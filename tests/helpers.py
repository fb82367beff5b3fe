"""Finite-difference utilities shared by the test oracles.

The 9-point central stencils are exact on polynomials through degree 8,
so with steps around 1e-2 the truncation error sits far below the
tolerances used in the tests.  ``fd_oracle`` differentiates a field of
tangent points with fourth-order stencils.

``coeff`` and ``partial`` read one coefficient of a jet by matching its
multi-index against the ring's exponent rows, so they share no table with
the kernel they check.

``reference_ring_tables`` builds a jet ring's index tables the way
``jets.PolyRing`` first built them, one full-size array per step, as the
reference the ring's own tables must equal; ``reference_lift_table``
finds each lifted row the same way.
"""

import itertools
import math

import numpy as np

from spraylab.errors import ConfigError
from spraylab.geometry import TangentPoint


def stencil(order: int, h: float):
    """Offsets and weights for d^order/dt^order on a 9-point central grid."""
    offsets = np.arange(-4.0, 5.0)
    vand = np.vander(offsets, 9, increasing=True).T
    rhs = np.zeros(9)
    rhs[order] = math.factorial(order)
    weights = np.linalg.solve(vand, rhs)
    return offsets * h, weights / h**order


def fd_partial(fn, point, alpha, h=0.01):
    """Mixed partial of scalar ``fn`` at ``point`` for multi-index ``alpha``."""
    point = np.asarray(point, dtype=float)
    active = [(i, a) for i, a in enumerate(alpha) if a > 0]

    def recurse(base, remaining):
        if not remaining:
            return fn(base)
        (var, order), rest = remaining[0], remaining[1:]
        offs, weights = stencil(order, h)
        total = 0.0
        for off, w in zip(offs, weights):
            shifted = base.copy()
            shifted[var] += off
            total += w * recurse(shifted, rest)
        return total

    return recurse(point, active)


def fd_gradient(fn, point, h=0.01):
    point = np.asarray(point, dtype=float)
    out = np.zeros(point.size)
    for i in range(point.size):
        alpha = [0] * point.size
        alpha[i] = 1
        out[i] = fd_partial(fn, point, alpha, h)
    return out


# fourth-order central stencils on offsets -2h .. 2h
_C1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
_C2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))


def fd_oracle(field, point: TangentPoint, alpha, step: float = 1e-2) -> float:
    """Central finite difference of ``field`` at ``point``.

    ``field`` maps a tangent point to a float; ``alpha`` is a multi-index
    of length 2n over the slots (x^1..x^n, y^1..y^n) with total order at
    most two.  Fourth-order stencils keep the truncation error near
    step^4 so jet values can be checked to 1e-5 relative at step 1e-2.
    """
    alpha = tuple(int(a) for a in alpha)
    n = point.dim
    if len(alpha) != 2 * n:
        raise ConfigError(f"alpha must have length {2 * n} (x then y slots)")
    if any(a < 0 for a in alpha):
        raise ConfigError("alpha entries must be non-negative")
    order = sum(alpha)
    if order > 2:
        raise ConfigError("finite-difference oracle supports total order <= 2")

    def shifted(offsets: dict) -> float:
        xs = list(point.x)
        ys = list(point.y)
        for slot, off in offsets.items():
            if slot < n:
                xs[slot] += off
            else:
                ys[slot - n] += off
        return float(field(TangentPoint(tuple(xs), tuple(ys))))

    if order == 0:
        return shifted({})
    slots = [i for i, a in enumerate(alpha) for _ in range(a)]
    if order == 1:
        (a,) = slots
        return sum(c * shifted({a: k * step}) for k, c in _C1) / (12.0 * step)
    a, b = slots
    if a == b:
        total = sum(c * shifted({a: k * step}) for k, c in _C2)
        return total / (12.0 * step * step)
    acc = 0.0
    for ka, ca in _C1:
        for kb, cb in _C1:
            acc += ca * cb * shifted({a: ka * step, b: kb * step})
    return acc / (144.0 * step * step)


def coeff(jet, alpha):
    """Coefficient of the multi-index ``alpha`` in ``jet``, batch axes kept."""
    exponents = jet.ring.exponents[: jet.coeffs.shape[-1]]
    (row,) = np.flatnonzero((exponents == np.asarray(alpha)).all(axis=1))
    c = jet.coeffs[..., row]
    return float(c) if c.ndim == 0 else c


def partial(jet, alpha):
    """Mixed partial d^alpha of ``jet`` at its expansion point: alpha! times the coefficient."""
    return coeff(jet, alpha) * math.prod(math.factorial(a) for a in alpha)


def _reference_index(nvars: int, degree: int, xcap: int | None = None):
    """A ring's multi-indices from combinations, and a mixed-radix lookup of their rows.

    With ``xcap``, the rows of degree above it in the first half of the
    variables are left out.
    """
    rows = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            exp = [0] * nvars
            for v in combo:
                exp[v] += 1
            if xcap is None or sum(exp[: nvars // 2]) <= xcap:
                rows.append(exp)
    exponents = np.array(rows, dtype=np.int64)
    pow_ = (degree + 1) ** np.arange(nvars, dtype=np.int64)
    codes = exponents @ pow_
    order = np.argsort(codes, kind="stable")
    codes_sorted = codes[order]

    def lookup(c):
        return order[np.searchsorted(codes_sorted, c)]

    return exponents, pow_, codes, lookup


def reference_ring_tables(nvars: int, degree: int, xcap: int | None = None) -> dict:
    """A ring's tables from combinations, dense pair lists and one sort of all pairs.

    With ``xcap``, pairs whose product has no row are dropped, and so is a
    successor that has none.
    """
    exponents, pow_, codes, lookup = _reference_index(nvars, degree, xcap)
    size = len(exponents)
    total_degree = exponents.sum(axis=1)
    size_upto = np.array([(total_degree <= t).sum() for t in range(degree + 1)], dtype=np.int64)
    xdeg = exponents[:, : nvars // 2].sum(axis=1) if xcap is not None else 0 * total_degree
    cap = degree if xcap is None else xcap

    deg_starts = np.concatenate(([0], size_upto))
    chunks_i, chunks_j = [], []
    for ta in range(degree + 1):
        ia = np.arange(deg_starts[ta], deg_starts[ta + 1])
        for tb in range(degree + 1 - ta):
            jb = np.arange(deg_starts[tb], deg_starts[tb + 1])
            chunks_i.append(np.repeat(ia, len(jb)))
            chunks_j.append(np.tile(jb, len(ia)))
    mi = np.concatenate(chunks_i)
    mj = np.concatenate(chunks_j)
    kept = xdeg[mi] + xdeg[mj] <= cap
    mi, mj = mi[kept], mj[kept]
    mk = lookup(codes[mi] + codes[mj])
    by_output = np.argsort(mk, kind="stable")
    mk_sorted = mk[by_output]

    dsrc = np.zeros((nvars, size), dtype=np.intp)
    dmul = np.zeros((nvars, size), dtype=np.float64)
    for v in range(nvars):
        shifted = exponents.copy()
        shifted[:, v] += 1
        ok = (total_degree + 1 <= degree) & (xdeg + (v < nvars // 2) * (xcap is not None) <= cap)
        dsrc[v, ok] = lookup(shifted[ok] @ pow_)
        dmul[v, ok] = shifted[ok, v].astype(np.float64)
    return {
        "exponents": exponents,
        "_dsrc": dsrc,
        "_dmul": dmul,
        "_mul_i": mi[by_output].astype(np.intp),
        "_mul_j": mj[by_output].astype(np.intp),
        "_mul_starts": np.searchsorted(mk_sorted, np.arange(size)).astype(np.intp),
        "_pairs_upto": np.searchsorted(mk_sorted, size_upto).astype(np.intp),
    }


def reference_lift_table(src_nvars, src_degree, dst_nvars, dst_degree) -> np.ndarray:
    """``jets._lift_table`` as one lookup per source row, -1 past the target's degree."""
    src, _, _, _ = _reference_index(src_nvars, src_degree)
    _, dst_pow, _, dst_lookup = _reference_index(dst_nvars, dst_degree)
    table = np.full(len(src), -1, dtype=np.intp)
    for i, row in enumerate(src):
        if row.sum() > dst_degree:
            continue
        alpha = np.zeros(dst_nvars, dtype=np.int64)
        alpha[:src_nvars] = row
        table[i] = dst_lookup(np.array([alpha @ dst_pow]))[0]
    return table
