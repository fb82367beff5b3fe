"""Truncated multivariate Taylor arithmetic (jets).

A jet stores the Taylor coefficients of a smooth function about a point,
up to a fixed total degree, in ``nvars`` variables.  Coefficient of the
multi-index ``alpha`` is ``partial^alpha f / alpha!``, so the constant
term is the function value and mixed partials are recovered by
multiplying with ``alpha!``.

Storage is dense: one flat float64 array per jet, indexed by a
precomputed graded multi-index table shared by all jets of the same
``(nvars, degree)`` ring.  Within a total degree, indices follow the
order of ``itertools.combinations_with_replacement``, so truncating to a
lower degree is a prefix slice.  Jets may carry leading batch axes
(``coeffs.shape == (*batch, ring.size)``); all operations broadcast over
them, which is what makes quadrature loops cheap.  A tensor is one jet
whose batch axes are its indices; indexing, ``grad`` and ``einsum`` act
on those axes only (the vector mode of forward differentiation).

Each jet also records ``valid``, the number of Taylor orders that are
still exact.  Deriving a jet from truncated data loses one order per
derivative; ``valid`` tracks that budget and every coefficient above it
is kept at exactly zero.  Requesting a partial beyond ``valid`` raises
:class:`DegreeBudgetError` instead of returning noise.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegreeBudgetError, JetDomainError

MAX_VARS = 12
MAX_DEGREE = 10


def _graded_exponents(nvars: int, degree: int) -> np.ndarray:
    rows = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            exp = [0] * nvars
            for v in combo:
                exp[v] += 1
            rows.append(exp)
    return np.array(rows, dtype=np.int64)


class PolyRing:
    """Shared tables for one (nvars, degree) truncation; obtain via :func:`ring`."""

    def __init__(self, nvars: int, degree: int):
        if not (1 <= nvars <= MAX_VARS):
            raise ConfigError(f"jet ring needs 1..{MAX_VARS} variables "
                              f"(dimension at most {MAX_VARS // 2}), got {nvars}")
        if not (1 <= degree <= MAX_DEGREE):
            raise ConfigError(f"jet degree must be in 1..{MAX_DEGREE}, got {degree}")
        self.nvars = nvars
        self.degree = degree
        self.exponents = _graded_exponents(nvars, degree)
        self.size = len(self.exponents)
        # number of indices of total degree <= t, for prefix slicing
        self.size_upto = np.array(
            [math.comb(nvars + t, t) for t in range(degree + 1)], dtype=np.int64
        )
        self.total_degree = self.exponents.sum(axis=1)

        # mixed-radix code for O(log) index lookup; degree+1 digits suffice
        base = degree + 1
        self._pow = base ** np.arange(nvars, dtype=np.int64)
        self._codes = self.exponents @ self._pow
        self._order = np.argsort(self._codes, kind="stable")
        self._codes_sorted = self._codes[self._order]

        self._build_mul_table()
        self._build_deriv_tables()
        self._factorials = np.array(
            [math.prod(math.factorial(int(e)) for e in row) for row in self.exponents],
            dtype=np.float64,
        )

    def index_of(self, alpha) -> int:
        alpha = np.asarray(alpha, dtype=np.int64)
        if alpha.shape != (self.nvars,) or (alpha < 0).any():
            raise ValueError(f"bad multi-index {alpha!r} for {self.nvars} variables")
        if alpha.sum() > self.degree:
            raise DegreeBudgetError(
                f"multi-index {tuple(int(a) for a in alpha)} exceeds degree {self.degree}"
            )
        return int(self._lookup(np.array([alpha @ self._pow]))[0])

    def _lookup(self, codes: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._codes_sorted, codes)
        return self._order[pos]

    def _build_mul_table(self):
        deg_starts = np.concatenate(([0], self.size_upto))
        chunks_i, chunks_j = [], []
        for ta in range(self.degree + 1):
            ia = np.arange(deg_starts[ta], deg_starts[ta + 1])
            for tb in range(self.degree + 1 - ta):
                jb = np.arange(deg_starts[tb], deg_starts[tb + 1])
                chunks_i.append(np.repeat(ia, len(jb)))
                chunks_j.append(np.tile(jb, len(ia)))
        mi = np.concatenate(chunks_i)
        mj = np.concatenate(chunks_j)
        mk = self._lookup(self._codes[mi] + self._codes[mj])
        order = np.argsort(mk, kind="stable")
        self._mul_i = mi[order].astype(np.intp)
        self._mul_j = mj[order].astype(np.intp)
        mk_sorted = mk[order]
        self._mul_starts = np.searchsorted(mk_sorted, np.arange(self.size)).astype(np.intp)
        # pairs contributing to outputs of degree <= t form a prefix
        self._pairs_upto = np.searchsorted(mk_sorted, self.size_upto).astype(np.intp)

    def _build_deriv_tables(self):
        self._dsrc = np.zeros((self.nvars, self.size), dtype=np.intp)
        self._dmul = np.zeros((self.nvars, self.size), dtype=np.float64)
        for v in range(self.nvars):
            shifted = self.exponents.copy()
            shifted[:, v] += 1
            ok = self.total_degree + 1 <= self.degree
            codes = shifted[ok] @ self._pow
            self._dsrc[v, ok] = self._lookup(codes)
            self._dmul[v, ok] = shifted[ok, v].astype(np.float64)

    # -- constructors -------------------------------------------------

    def const(self, value) -> "Jet":
        value = np.asarray(value, dtype=np.float64)
        coeffs = np.zeros(value.shape + (self.size,))
        coeffs[..., 0] = value
        return Jet(self, coeffs, valid=self.degree, nzdeg=0)

    def zero(self) -> "Jet":
        return self.const(0.0)

    def seed(self, var: int, value) -> "Jet":
        """Jet of the coordinate function ``var`` expanded about ``value``."""
        if not (0 <= var < self.nvars):
            raise ValueError(f"seed slot {var} out of range for {self.nvars} variables")
        value = np.asarray(value, dtype=np.float64)
        coeffs = np.zeros(value.shape + (self.size,))
        coeffs[..., 0] = value
        coeffs[..., 1 + var] = 1.0
        return Jet(self, coeffs, valid=self.degree, nzdeg=1)

    # -- raw kernels ---------------------------------------------------

    def _mul_coeffs(self, a: np.ndarray, b: np.ndarray, out_deg: int) -> np.ndarray:
        npairs = int(self._pairs_upto[out_deg])
        ncoef = int(self.size_upto[out_deg])
        prod = a[..., self._mul_i[:npairs]] * b[..., self._mul_j[:npairs]]
        out = np.zeros(prod.shape[:-1] + (self.size,))
        out[..., :ncoef] = np.add.reduceat(prod, self._mul_starts[:ncoef], axis=-1)
        return out


@lru_cache(maxsize=None)
def ring(nvars: int, degree: int) -> PolyRing:
    return PolyRing(nvars, degree)


class Jet:
    """One truncated Taylor expansion (or a tensor of them); treat as immutable."""

    __slots__ = ("ring", "coeffs", "valid", "nzdeg")
    __array_ufunc__ = None  # numpy operands on the left defer to __rmul__ etc.

    def __init__(self, ring: PolyRing, coeffs: np.ndarray, valid: int, nzdeg: int):
        self.ring = ring
        self.coeffs = coeffs
        self.valid = valid
        self.nzdeg = min(nzdeg, valid)

    # -- inspection ----------------------------------------------------

    @property
    def batch_shape(self) -> tuple:
        return self.coeffs.shape[:-1]

    def __getitem__(self, idx) -> "Jet":
        """Index the batch axes; the coefficient axis always stays whole."""
        if not self.batch_shape:
            raise TypeError("a scalar jet is not indexable")
        idx = idx if isinstance(idx, tuple) else (idx,)
        return Jet(self.ring, self.coeffs[idx + (Ellipsis, slice(None))], self.valid, self.nzdeg)

    def __len__(self) -> int:
        if not self.batch_shape:
            raise TypeError("a scalar jet has no length")
        return self.batch_shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def value(self):
        v = self.coeffs[..., 0]
        return float(v) if v.ndim == 0 else v

    def coeff(self, alpha):
        idx = self._checked_index(alpha)
        c = self.coeffs[..., idx]
        return float(c) if c.ndim == 0 else c

    def partial(self, alpha):
        """Mixed partial ``d^alpha`` at the expansion point (``alpha! * coeff``)."""
        idx = self._checked_index(alpha)
        p = self.coeffs[..., idx] * self.ring._factorials[idx]
        return float(p) if p.ndim == 0 else p

    def _checked_index(self, alpha) -> int:
        idx = self.ring.index_of(alpha)
        if int(self.ring.total_degree[idx]) > self.valid:
            raise DegreeBudgetError(
                f"partial {tuple(int(a) for a in np.atleast_1d(alpha))} needs order "
                f"{int(self.ring.total_degree[idx])} but only {self.valid} orders are exact"
            )
        return idx

    def gradient(self):
        """First-order partials with respect to every ring variable."""
        if self.valid < 1:
            raise DegreeBudgetError("no exact first-order coefficients left")
        return np.array(self.coeffs[..., 1 : 1 + self.ring.nvars])

    def assert_finite(self, what: str = "jet"):
        if not np.isfinite(self.coeffs).all():
            raise JetDomainError(f"{what} has non-finite coefficients")
        return self

    def deriv(self, var: int) -> "Jet":
        """Partial-derivative jet with respect to ring variable ``var``."""
        return self.grad(var)

    def grad(self, slots) -> "Jet":
        """Partials along a sequence of ``slots``, stacked on a new trailing batch axis."""
        ring = self.ring
        slots = np.asarray(slots)
        if slots.dtype.kind not in "iu" or ((slots < 0) | (slots >= ring.nvars)).any():
            raise ValueError(f"derivative slot {slots} out of range")
        if self.valid < 1:
            raise DegreeBudgetError("derivative would exceed the truncation budget")
        # outputs above valid-1 read inputs above valid, which are zero
        keep = int(ring.size_upto[self.valid - 1])
        part = self.coeffs[..., ring._dsrc[slots, :keep]] * ring._dmul[slots, :keep]
        coeffs = np.zeros(part.shape[:-1] + (ring.size,))
        coeffs[..., :keep] = part
        return Jet(ring, coeffs, valid=self.valid - 1, nzdeg=max(self.nzdeg - 1, 0))

    def truncate(self, k: int) -> "Jet":
        """The same jet with every order above ``k`` set to zero."""
        valid = min(self.valid, k)
        return Jet(self.ring, self._trim(self.coeffs.copy(), valid), valid, self.nzdeg)

    def einsum(self, spec: str) -> "Jet":
        """Linear map over the batch axes, e.g. ``"mm->"`` (trace) or ``"ik->ki"``."""
        inputs, output = spec.split("->")
        return Jet(self.ring, np.einsum(f"{inputs}...->{output}...", self.coeffs),
                   self.valid, self.nzdeg)

    def sum_batch(self, weights: np.ndarray) -> "Jet":
        """Weighted sum over the leading batch axis (quadrature reduction)."""
        coeffs = np.tensordot(np.asarray(weights, dtype=np.float64), self.coeffs, axes=(0, 0))
        return Jet(self.ring, coeffs, valid=self.valid, nzdeg=self.nzdeg)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.ring is not self.ring:
                raise ValueError("jets belong to different rings")
            return other
        if isinstance(other, (int, float, np.floating, np.integer, np.ndarray)):
            return self.ring.const(other)
        return None

    def _trim(self, coeffs: np.ndarray, valid: int) -> np.ndarray:
        keep = int(self.ring.size_upto[valid])
        if keep < self.ring.size:
            coeffs[..., keep:] = 0.0
        return coeffs

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        valid = min(self.valid, b.valid)
        coeffs = self._trim(self.coeffs + b.coeffs, valid)
        return Jet(self.ring, coeffs, valid, max(self.nzdeg, b.nzdeg))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        valid = min(self.valid, b.valid)
        coeffs = self._trim(self.coeffs - b.coeffs, valid)
        return Jet(self.ring, coeffs, valid, max(self.nzdeg, b.nzdeg))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b.__sub__(self)

    def __neg__(self):
        return Jet(self.ring, -self.coeffs, self.valid, self.nzdeg)

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        valid = min(self.valid, b.valid)
        if self.nzdeg == 0 or b.nzdeg == 0:
            const, full = (self, b) if self.nzdeg == 0 else (b, self)
            coeffs = self._trim(full.coeffs * const.coeffs[..., :1], valid)
            return Jet(self.ring, coeffs, valid, min(full.nzdeg, valid))
        coeffs = self.ring._mul_coeffs(self.coeffs, b.coeffs, valid)
        return Jet(self.ring, coeffs, valid, min(self.nzdeg + b.nzdeg, valid))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self.__mul__(reciprocal(b))

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b.__mul__(reciprocal(self))

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            n = int(exponent)
            if n < 0:
                return reciprocal(self) ** (-n)
            result = self.ring.const(np.ones(self.batch_shape))
            base = self
            while n:
                if n & 1:
                    result = result * base
                base = base * base if n > 1 else base
                n >>= 1
            return result
        return powr(self, float(exponent))

    def __repr__(self):
        return (
            f"Jet(nvars={self.ring.nvars}, degree={self.ring.degree}, "
            f"valid={self.valid}, value={np.array2string(np.asarray(self.coeffs[..., 0]))})"
        )


def stack(nested) -> Jet:
    """One tensor jet from nested jets, keeping the fewest exact orders among them."""
    if isinstance(nested, Jet):
        return nested
    parts = [stack(entry) for entry in nested]
    ring = parts[0].ring
    if any(p.ring is not ring for p in parts):
        raise ValueError("jets belong to different rings")
    valid = min(p.valid for p in parts)
    coeffs = np.stack([p.coeffs for p in parts])
    coeffs[..., int(ring.size_upto[valid]):] = 0.0
    return Jet(ring, coeffs, valid, max(p.nzdeg for p in parts))


def solve(a: Jet, b) -> Jet:
    """The jet z with ``a z = b``, for ``a`` of batch shape (n, n) and ``b`` of shape (n,).

    Taylor-mode solve with one inverse of a(0): the order-k coefficients of
    z come from those of the residual b - a z, with z known below order k
    and the product cut at order k (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., ch. 13).
    """
    b = a._coerce(b)
    ring = a.ring
    try:
        a0inv = np.linalg.inv(a.coeffs[..., 0])
    except np.linalg.LinAlgError:
        raise JetDomainError("solve needs an invertible constant term") from None
    valid = min(a.valid, b.valid)
    z = np.zeros(np.broadcast_shapes(a.batch_shape[:-1], b.batch_shape) + (ring.size,))
    z[..., :1] = a0inv @ b.coeffs[..., :1]
    for k in range(1, valid + 1):
        lo, hi = int(ring.size_upto[k - 1]), int(ring.size_upto[k])
        az = ring._mul_coeffs(a.coeffs, z[..., None, :, :], k).sum(axis=-2)
        z[..., lo:hi] = a0inv @ (b.coeffs[..., lo:hi] - az[..., lo:hi])
    return Jet(ring, z, valid, valid)


# -- univariate composition ---------------------------------------------


def _compose(a: Jet, series) -> Jet:
    """Horner evaluation of ``sum_k c_k (a - a0)^k`` truncated at ``a.valid``.

    ``series(k, a0)`` must return the k-th Taylor coefficient of the map at
    ``a0`` (array-valued for batched jets).  Order-k output coefficients
    depend only on input coefficients up to order k, so the result keeps
    every order of ``a`` that was exact.
    """
    a0 = np.asarray(a.coeffs[..., 0])
    top = a.valid
    nil_coeffs = a.coeffs.copy()
    nil_coeffs[..., 0] = 0.0
    nil = Jet(a.ring, nil_coeffs, a.valid, a.nzdeg)
    c_top = np.broadcast_to(np.asarray(series(top, a0), dtype=np.float64), a.batch_shape)
    result = a.ring.const(np.array(c_top))
    for k in range(top - 1, -1, -1):
        result = result * nil
        result.coeffs[..., 0] += series(k, a0)
    return Jet(a.ring, result.coeffs, a.valid, result.nzdeg)


def _require_positive(a: Jet, op: str) -> np.ndarray:
    a0 = np.asarray(a.coeffs[..., 0])
    if not np.all(a0 > 0.0):
        raise JetDomainError(f"{op} requires a positive constant term")
    return a0


def reciprocal(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return 1.0 / a
    a0 = np.asarray(a.coeffs[..., 0])
    if np.any(a0 == 0.0):
        raise JetDomainError("division by a jet with zero constant term")
    # integer powers keep negative constant terms legal
    return _compose(a, lambda k, x: (1.0 / x) * (-1.0 / x) ** k)


def sqrt(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.sqrt(a)
    _require_positive(a, "sqrt")
    return powr(a, 0.5)


def log(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.log(a)
    _require_positive(a, "log")

    def series(k: int, x):
        if k == 0:
            return np.log(x)
        return (-1.0) ** (k + 1) / (k * x**k)

    return _compose(a, series)


def exp(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.exp(a)
    return _compose(a, lambda k, x: np.exp(x) / math.factorial(k))


def powr(a: Jet, r: float) -> Jet:
    """Real power with positive constant term, as one binomial series.

    The k-th Taylor coefficient of ``x -> x**r`` at ``x0`` is
    ``binom(r, k) * x0**(r - k)``, so one composition does the work that
    ``exp(r * log(a))`` needs two for.
    """
    if not isinstance(a, Jet):
        return float(a) ** float(r)
    _require_positive(a, "pow")
    return _compose(a, lambda k, x: _binom(r, k) * x ** (r - k))


def sin(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.sin(a)
    return _compose(a, lambda k, x: np.sin(x + k * np.pi / 2) / math.factorial(k))


def cos(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.cos(a)
    return _compose(a, lambda k, x: np.cos(x + k * np.pi / 2) / math.factorial(k))


def _binom(r: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= (r - i) / (i + 1)
    return out


def lift(a: Jet, target: PolyRing, var_offset: int = 0) -> Jet:
    """Embed a jet into a larger ring; its variables land at ``var_offset``."""
    src = a.ring
    if var_offset + src.nvars > target.nvars:
        raise ValueError("lift target has too few variables")
    table = _lift_table(src.nvars, src.degree, target.nvars, target.degree, var_offset)
    valid = min(a.valid, target.degree)
    coeffs = np.zeros(a.batch_shape + (target.size,))
    keep = table >= 0
    coeffs[..., table[keep]] = a.coeffs[..., keep]
    return Jet(target, coeffs, valid, min(a.nzdeg, valid))


@lru_cache(maxsize=None)
def _lift_table(src_nvars, src_degree, dst_nvars, dst_degree, var_offset) -> np.ndarray:
    src = ring(src_nvars, src_degree)
    dst = ring(dst_nvars, dst_degree)
    table = np.full(src.size, -1, dtype=np.intp)
    for i, row in enumerate(src.exponents):
        if row.sum() > dst.degree:
            continue
        alpha = np.zeros(dst.nvars, dtype=np.int64)
        alpha[var_offset : var_offset + src.nvars] = row
        table[i] = dst.index_of(alpha)
    return table
