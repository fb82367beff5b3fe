"""Truncated multivariate Taylor arithmetic (jets).

A jet stores the Taylor coefficients of a smooth function about a point,
up to a fixed total degree, in ``nvars`` variables.  Coefficient of the
multi-index ``alpha`` is ``partial^alpha f / alpha!``, so the constant
term is the function value and mixed partials are recovered by
multiplying with ``alpha!``.

Storage is one flat float64 array per jet, indexed by a precomputed
graded multi-index table shared by all jets of the same ``(nvars,
degree)`` ring.  Within a total degree, indices follow the order of
``itertools.combinations_with_replacement``, so the orders up to ``k``
are the first ``ring.size_upto[k]`` coefficients.  Every index is a walk
up the ring's successor table from the zero row: row ``i`` plus one unit
of variable ``v`` is row ``_dsrc[v, i]``.  Jets may carry leading batch
axes (``coeffs.shape == (*batch, width)``); all operations broadcast over
them, which is what makes quadrature loops cheap.  A tensor is one jet
whose batch axes are its indices; indexing, ``grad`` and ``einsum`` act on
those axes only (the vector mode of forward differentiation).

A product sums, for each output coefficient, the products of its operand
pairs, which the ring's pair table lists contiguously (the output's
segment), sorted by output index.  A product whose gathered operands fit
in ``_DIRECT_BYTES`` (128 KiB) gathers all its pairs at once into fresh
arrays.  A larger one runs in blocks of whole segments, at most
``_BLOCK_BYTES`` (1 MiB) per operand, in two scratch arrays that the ring
keeps and grows by doubling up to one block.  So no product allocates a
temporary of its full pair count, and each coefficient is the same sum in
the same order either way.

A jet stores only its exact orders: ``valid``, the number of Taylor
orders still exact, is the ``v`` with ``width == ring.size_upto[v]``.
Each derivative of truncated data loses one order, and a sum or product
keeps the fewer orders of its operands.  A derivative (``grad``,
``gradient``) beyond ``valid`` raises :class:`DegreeBudgetError` instead
of returning noise.  ``truncate`` is a prefix view, so jets share memory
and no operation writes into an operand.

``xvalid`` counts the exact orders in the x variables, the leading half
of the ring's variables as in the doubled (x, y) ring of ``geometry``:
a coefficient is exact when its total degree is at most ``valid`` and
its degree in x at most ``xvalid``, which is never above ``valid``.  A
jet of x alone does not depend on y, so :func:`lift` pads it with
y-orders that are exact zeros and keeps its own orders as ``xvalid``.
The coefficients above ``xvalid`` in x are still stored and computed,
but are not exact.  Sums and products keep the fewer of each count, an
x-derivative lowers both and a y-derivative ``valid`` only, ``truncate``
caps both, and an x-derivative (``grad``, ``gradient``) beyond
``xvalid`` raises :class:`DegreeBudgetError`.  Only such a lift and what
is computed from it has ``xvalid`` below ``valid``; for any other jet
the two counts move together.

``nzdeg`` bounds the polynomial degree of the stored coefficients: every
coefficient of total degree above it is exactly zero.  A product therefore
stops at ``nzdeg_a + nzdeg_b`` (or ``valid``, if lower), and step k of
:func:`solve` computes order k of its product and no other.

The elementary functions (:func:`powr`, :func:`reciprocal`, :func:`log`,
:func:`exp`, :func:`sin`, :func:`cos`) are Taylor-mode recurrences.  The
Euler operator E = sum_i x_i d_i multiplies the order-k coefficient by k,
and each function satisfies a first-order equation such as a Ef = r f Ea
for f = a**r.  Order k of that equation gives order k of the result from
its lower orders with one order-k product, the slice :func:`solve` uses
(Neidinger, "Directions for computing truncated multivariate Taylor
series", Math. Comp. 74, 2005; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13).  Orders 0 and 1 are phi(a0) and
phi'(a0) a_1, and a constant argument gives a constant.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegreeBudgetError, JetDomainError

MAX_VARS = 12
MAX_DEGREE = 10
# multiply pairs (alpha, beta) with |alpha| + |beta| <= degree a ring may
# hold: ring(8, 10) has 5.3 M, ring(12, 8) 10.5 M and ring(12, 10) 131 M
MAX_MUL_PAIRS = 2**23

# A multiply whose product of gathered operands fits in this many bytes
# gathers into fresh arrays; 128 KiB is glibc's default mmap threshold, so
# they come from the heap.  Measured on a 2-core x86-64 host (glibc, numpy
# 2.4): sending every call through the scratch arrays cost 12-13% of the
# multiply time of one eval-randers3, verify-randers3-bh or verify-funk4
# point, the blocked path's overhead on small products; sending only calls
# above 1 MiB there faulted in about 1,790 fresh pages per warmed
# verify-randers3-bh point, whose 262-435 KB gathers were mmapped anew.
_DIRECT_BYTES = 128 * 1024
# A larger multiply runs in blocks of whole output segments whose gathered
# operands take at most this many bytes each.  One block splits funk-4's
# 245,157-pair products in two; 256 KiB blocks cost 3.5% of its multiply
# time.
_BLOCK_BYTES = 1024 * 1024

# operands that act as constant jets
_NUMBERS = (int, float, np.floating, np.integer, np.ndarray)


def _graded_exponents(nvars: int, degree: int):
    """Multi-indices by total degree, the successor table and each row's variables.

    Within a degree, rows follow combinations-with-replacement order: a
    combination of degree t + 1 is one of degree t followed by a variable no
    lower than its last, L (0 for the zero row), so row r of degree t yields,
    in order, its children r + e_v for v from L up, and those are
    ``dsrc[v, r]``.  For v < L, r is its parent p plus e_L, so r + e_v is
    the child for L of row ``dsrc[v, p]``, whose last variable is at most L.
    Rows of the top degree keep 0.  ``steps[t]`` holds the variables of each
    row of degree t, repeats included, ascending.
    """
    size = math.comb(nvars + degree, degree)
    exponents = np.zeros((size, nvars), dtype=np.int64)
    dsrc = np.zeros((nvars, size), dtype=np.intp)
    steps = [np.zeros((1, 0), dtype=np.intp)]
    v = np.arange(nvars)
    # the rows of degree t are lo..hi, with their parents and last variables
    lo, hi = 0, 1
    parent = last = np.zeros(1, dtype=np.intp)
    for _ in range(degree):
        lead = v >= last[:, None]
        child = hi + np.cumsum(lead).reshape(lead.shape) - 1
        dsrc[:, lo:hi] = child.T
        down = dsrc[last[:, None], dsrc[:, parent].T]
        dsrc[:, lo:hi] = np.where(lead, child, down).T
        r, last = np.nonzero(lead)
        parent = r + lo
        lo, hi = hi, hi + len(r)
        exponents[lo:hi] = exponents[parent]
        exponents[np.arange(lo, hi), last] += 1
        steps.append(np.column_stack((steps[-1][r], last)))
    return exponents, dsrc, steps


class PolyRing:
    """Shared tables for one (nvars, degree) truncation; obtain via :func:`ring`."""

    def __init__(self, nvars: int, degree: int):
        if not (1 <= nvars <= MAX_VARS):
            raise ConfigError(f"jet ring needs 1..{MAX_VARS} variables "
                              f"(dimension at most {MAX_VARS // 2}), got {nvars}")
        if not (1 <= degree <= MAX_DEGREE):
            raise ConfigError(f"jet degree must be in 1..{MAX_DEGREE}, got {degree}")
        pairs = math.comb(2 * nvars + degree, degree)
        if pairs > MAX_MUL_PAIRS:
            raise ConfigError(f"jet ring({nvars}, {degree}) needs {pairs:,} multiply pairs, "
                              f"more than the budget of {MAX_MUL_PAIRS:,}; lower the degree "
                              f"or the dimension")
        self.nvars = nvars
        self.degree = degree
        self.exponents, self._dsrc, steps = _graded_exponents(nvars, degree)
        self.size = len(self.exponents)
        # number of indices of total degree <= t, for prefix slicing
        self.size_upto = np.array(
            [math.comb(nvars + t, t) for t in range(degree + 1)], dtype=np.int64
        )
        self.total_degree = self.exponents.sum(axis=1)
        self._valid_of = {int(w): t for t, w in enumerate(self.size_upto)}

        # d/dx_v of x^(alpha + e_v) is (alpha_v + 1) x^alpha, none from the top degree;
        # in C order, since each derivative reads rows of it, and strided rows cost 2x
        self._dmul = np.ascontiguousarray(
            np.where(self.total_degree < degree, self.exponents.T + 1.0, 0.0))
        self._build_mul_table(steps)
        # the gathered operand pairs of a blocked multiply, grown on first use
        self._scratch = np.empty((2, 0))

    def _build_mul_table(self, steps):
        """Multiply pairs (i, j), sorted by output index k and, within one k, by i.

        One output degree t at a time: the output of (i, j), for i of degree
        ta and j of degree t - ta, is i stepped up j's variables through
        ``_dsrc``.  The pairs come in order of (ta, i, j), and a stable sort
        on k's offset within degree t (below 2**16 in any ring the pair
        budget admits; ring(11, 8) has the widest degree, 43,758) writes
        them into the final tables in order of (k, i).
        """
        starts = np.concatenate(([0], self.size_upto))
        npairs = math.comb(2 * self.nvars + self.degree, self.degree)
        self._mul_i = np.empty(npairs, dtype=np.intp)
        self._mul_j = np.empty(npairs, dtype=np.intp)
        counts = np.zeros(self.size, dtype=np.intp)
        done = 0
        for t in range(self.degree + 1):
            total = math.comb(2 * self.nvars + t - 1, t)
            mi = np.empty(total, dtype=np.intp)
            mj = np.empty(total, dtype=np.intp)
            key = np.empty(total, dtype=np.uint16)
            pos = 0
            for ta in range(t + 1):
                ia = np.arange(starts[ta], starts[ta + 1])
                jb = np.arange(starts[t - ta], starts[t - ta + 1])
                shape = (len(ia), len(jb))
                k = np.broadcast_to(ia[:, None], shape)
                for var in steps[t - ta].T:
                    k = self._dsrc[var, k]
                block = slice(pos, pos + k.size)
                mi[block].reshape(shape)[...] = ia[:, None]
                mj[block].reshape(shape)[...] = jb
                key[block].reshape(shape)[...] = k - starts[t]
                pos += k.size
            order = np.argsort(key, kind="stable")
            np.take(mi, order, out=self._mul_i[done:done + total], mode="clip")
            np.take(mj, order, out=self._mul_j[done:done + total], mode="clip")
            counts[starts[t]:starts[t + 1]] = np.bincount(key, minlength=starts[t + 1] - starts[t])
            done += total
        ends = np.cumsum(counts)
        self._mul_starts = ends - counts
        # pairs contributing to outputs of degree <= t form a prefix
        self._pairs_upto = ends[self.size_upto - 1]

    # -- constructors -------------------------------------------------

    def const(self, value, valid: int | None = None) -> "Jet":
        """Constant jet exact to ``valid`` orders (the ring's degree by default)."""
        value = np.asarray(value, dtype=np.float64)
        width = self.size if valid is None else int(self.size_upto[valid])
        coeffs = np.zeros(value.shape + (width,))
        coeffs[..., 0] = value
        return Jet(self, coeffs, nzdeg=0)

    def seed(self, var: int, value) -> "Jet":
        """Jet of the coordinate function ``var`` expanded about ``value``."""
        if not (0 <= var < self.nvars):
            raise ValueError(f"seed slot {var} out of range for {self.nvars} variables")
        value = np.asarray(value, dtype=np.float64)
        coeffs = np.zeros(value.shape + (self.size,))
        coeffs[..., 0] = value
        coeffs[..., 1 + var] = 1.0
        return Jet(self, coeffs, nzdeg=1)

    # -- raw kernels ---------------------------------------------------

    def _mul_coeffs(self, a: np.ndarray, b: np.ndarray, out_deg: int,
                    lo_deg: int = 0) -> np.ndarray:
        """Orders ``lo_deg..out_deg`` of the product, from operands that hold them.

        Pairs are sorted by output index and outputs are graded by degree,
        so the pairs of one order range are one contiguous slice, and the
        pairs of one output (its segment) a contiguous slice within it.

        A call whose product of gathered operands fits in ``_DIRECT_BYTES``
        gathers, multiplies and reduces the whole slice at once.  A larger
        one does the same for blocks of whole segments, each operand's
        gather at most ``_BLOCK_BYTES``, in the ring's two scratch arrays,
        and reduces each block into its slice of the output; so no call
        allocates a temporary of the full pair count, and each output is the
        same ``np.add.reduceat`` sum over the same pairs.  Gathers into the
        scratch take ``mode="clip"`` (every index is in range), since
        ``mode="raise"`` would buffer the output.

        The scratch grows by doubling from its first use up to one block
        (past it only for one segment too large for a block at the call's
        batch), so a ring of small products keeps a small one.  The arrays
        it outgrows are freed early and once, and that is what keeps glibc
        from trimming the heap a Busemann-Hausdorff point works in: with one
        block allocated at first use, each warmed verify-randers3-bh point
        faulted in about 95 pages, against 0.5 with the doubling scratch, as
        many as when every multiply gathered into fresh arrays (2-core
        x86-64, glibc, numpy 2.4).

        ``np.take`` gathers the operands, not fancy indexing: on numpy 2.4
        it costs less per element along the last axis of a narrow batch
        (one unbatched ring(8, 7) gather of 245,157 pairs: 0.33-0.43 ms
        against 0.74-0.78 ms on a 2-core x86-64 host). The values are the
        same, and the result is C-contiguous even for a transposed batch,
        whose order fancy indexing kept. On the 70-row batches of ring(3, 5)
        it is slower (0.052 against 0.028 ms), a cost this one path accepts.
        """
        c0 = int(self.size_upto[lo_deg - 1]) if lo_deg else 0
        c1 = int(self.size_upto[out_deg])
        p0, p1 = int(self._mul_starts[c0]), int(self._pairs_upto[out_deg])
        # rows of the product, or more where both operands broadcast
        sa, sb = a.shape, b.shape
        rows = a.size // sa[-1]
        if sa[:-1] != sb[:-1]:
            rows *= b.size // sb[-1]
        if 8 * rows * (p1 - p0) <= _DIRECT_BYTES:
            prod = (np.take(a, self._mul_i[p0:p1], axis=-1)
                    * np.take(b, self._mul_j[p0:p1], axis=-1))
            return np.add.reduceat(prod, self._mul_starts[c0:c1] - p0, axis=-1)
        batch = sa[:-1]
        if batch != sb[:-1]:
            batch = np.broadcast_shapes(batch, sb[:-1])
            a = np.broadcast_to(a, batch + sa[-1:])
        rows = math.prod(batch)
        out = np.empty(batch + (c1 - c0,))
        starts, limit = self._mul_starts, max(_BLOCK_BYTES // (8 * rows), 1)
        c = c0
        while c < c1:
            q0 = int(starts[c])
            if p1 - q0 <= limit:
                e = c1
            else:
                e = c + max(int(np.searchsorted(starts[c + 1:c1], q0 + limit, side="right")), 1)
            q1 = int(starts[e]) if e < c1 else p1
            width = self._scratch.shape[1]
            if rows * (q1 - q0) > width:
                # doubling up to one block, or one segment past it
                width = max(rows * (q1 - q0), min(2 * width, _BLOCK_BYTES // 8))
                self._scratch = np.empty((2, width))
            ga = self._scratch[0, : rows * (q1 - q0)].reshape(batch + (q1 - q0,))
            gb = self._scratch[1, : b.size // sb[-1] * (q1 - q0)].reshape(sb[:-1] + (q1 - q0,))
            np.take(a, self._mul_i[q0:q1], axis=-1, out=ga, mode="clip")
            np.take(b, self._mul_j[q0:q1], axis=-1, out=gb, mode="clip")
            np.multiply(ga, gb, out=ga)
            np.add.reduceat(ga, starts[c:e] - q0, axis=-1, out=out[..., c - c0:e - c0])
            c = e
        return out


@lru_cache(maxsize=None)
def ring(nvars: int, degree: int) -> PolyRing:
    return PolyRing(nvars, degree)


class Jet:
    """One truncated Taylor expansion (or a tensor of them); treat as immutable."""

    __slots__ = ("ring", "coeffs", "valid", "nzdeg", "xvalid")
    __array_ufunc__ = None  # numpy operands on the left defer to __rmul__ etc.

    def __init__(self, ring: PolyRing, coeffs: np.ndarray, nzdeg: int,
                 xvalid: int | None = None):
        valid = ring._valid_of.get(coeffs.shape[-1])
        if valid is None:
            raise ValueError(f"width {coeffs.shape[-1]} is no order of ring({ring.nvars}, "
                             f"{ring.degree}), whose widths are {ring.size_upto.tolist()}")
        self.ring = ring
        self.coeffs = coeffs
        self.valid = valid
        self.nzdeg = min(nzdeg, valid)
        self.xvalid = valid if xvalid is None else xvalid

    # -- inspection ----------------------------------------------------

    @property
    def batch_shape(self) -> tuple:
        return self.coeffs.shape[:-1]

    def __getitem__(self, idx) -> "Jet":
        """Index the batch axes; the coefficient axis always stays whole."""
        if not self.batch_shape:
            raise TypeError("a scalar jet is not indexable")
        idx = idx if isinstance(idx, tuple) else (idx,)
        return Jet(self.ring, self.coeffs[idx + (Ellipsis, slice(None))], self.nzdeg,
                   self.xvalid)

    def __len__(self) -> int:
        if not self.batch_shape:
            raise TypeError("a scalar jet has no length")
        return self.batch_shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def value(self):
        v = self.coeffs[..., 0]
        return float(v) if v.ndim == 0 else v

    def gradient(self, slots: range | None = None):
        """Values of the first-order partials along a range of variables (default: all)."""
        nvars = self.ring.nvars
        slots = range(nvars) if slots is None else slots
        if self.valid < 1:
            raise DegreeBudgetError("no exact first-order coefficients left")
        if self.xvalid < 1 and min(slots) < nvars // 2:
            raise DegreeBudgetError("no exact first-order x coefficients left")
        first = np.array(self.coeffs[..., 1 : 1 + nvars])
        return first[..., slots.start : slots.stop : slots.step]

    def assert_finite(self, what: str = "jet"):
        if not np.isfinite(self.coeffs).all():
            raise JetDomainError(f"{what} has non-finite coefficients")
        return self

    def grad(self, slots) -> "Jet":
        """Partials along a sequence of ``slots``, stacked on a new trailing batch axis."""
        ring = self.ring
        slots = np.asarray(slots)
        if slots.dtype.kind not in "iu" or ((slots < 0) | (slots >= ring.nvars)).any():
            raise ValueError(f"derivative slot {slots} out of range")
        if self.valid < 1:
            raise DegreeBudgetError("derivative would exceed the truncation budget")
        xvalid = self.xvalid
        # only a jet short of x-orders keeps them under a y-derivative
        if xvalid == self.valid or (slots < ring.nvars // 2).any():
            if xvalid < 1:
                raise DegreeBudgetError("x-derivative would exceed the exact x-orders")
            xvalid -= 1
        # the orders up to valid-1 of a partial read the orders up to valid
        keep = int(ring.size_upto[self.valid - 1])
        # fancy indexing, not np.take: take's C-contiguous layout changes how
        # downstream einsum and @ round, and moves report bytes
        coeffs = self.coeffs[..., ring._dsrc[slots, :keep]] * ring._dmul[slots, :keep]
        return Jet(ring, coeffs, max(self.nzdeg - 1, 0), xvalid)

    def truncate(self, k: int) -> "Jet":
        """The orders up to ``k`` of this jet, as a view of its coefficients."""
        return Jet(self.ring, self._upto(min(self.valid, k)), self.nzdeg, min(self.xvalid, k))

    def _upto(self, valid: int) -> np.ndarray:
        return self.coeffs[..., : int(self.ring.size_upto[valid])]

    def einsum(self, spec: str) -> "Jet":
        """Linear map over the batch axes, e.g. ``"mm->"`` (trace) or ``"ik->ki"``."""
        inputs, output = spec.split("->")
        return Jet(self.ring, np.einsum(f"{inputs}...->{output}...", self.coeffs), self.nzdeg,
                   self.xvalid)

    def sum_batch(self, weights: np.ndarray) -> "Jet":
        """Weighted sum over the leading batch axis (quadrature reduction)."""
        coeffs = np.tensordot(np.asarray(weights, dtype=np.float64), self.coeffs, axes=(0, 0))
        return Jet(self.ring, coeffs, self.nzdeg, self.xvalid)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.ring is not self.ring:
                raise ValueError("jets belong to different rings")
            return other
        if isinstance(other, _NUMBERS):
            return self.ring.const(other, self.valid)
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        valid = min(self.valid, b.valid)
        return Jet(self.ring, self._upto(valid) + b._upto(valid), max(self.nzdeg, b.nzdeg),
                   min(self.xvalid, b.xvalid))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        valid = min(self.valid, b.valid)
        return Jet(self.ring, self._upto(valid) - b._upto(valid), max(self.nzdeg, b.nzdeg),
                   min(self.xvalid, b.xvalid))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b.__sub__(self)

    def __neg__(self):
        return Jet(self.ring, -self.coeffs, self.nzdeg, self.xvalid)

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):  # self * ring.const(other), without building it
            return Jet(self.ring, self.coeffs * np.asarray(other, float)[..., None], self.nzdeg,
                       self.xvalid)
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        valid, xvalid = min(self.valid, b.valid), min(self.xvalid, b.xvalid)
        if self.nzdeg == 0 or b.nzdeg == 0:
            const, full = (self, b) if self.nzdeg == 0 else (b, self)
            return Jet(self.ring, full._upto(valid) * const.coeffs[..., :1], full.nzdeg, xvalid)
        # orders above nzdeg_a + nzdeg_b only sum products of exact zeros
        nzdeg = min(self.nzdeg + b.nzdeg, valid)
        coeffs = self.ring._mul_coeffs(self.coeffs, b.coeffs, nzdeg)
        if nzdeg < valid:
            padded = np.zeros(coeffs.shape[:-1] + (int(self.ring.size_upto[valid]),))
            padded[..., : coeffs.shape[-1]] = coeffs
            coeffs = padded
        return Jet(self.ring, coeffs, nzdeg, xvalid)

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
            result = self.ring.const(np.ones(self.batch_shape), self.valid)
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


def stack(parts) -> Jet:
    """One tensor jet from jets of one batch shape, keeping the fewest exact orders among them."""
    ring = parts[0].ring
    if any(p.ring is not ring for p in parts):
        raise ValueError("jets belong to different rings")
    valid = min(p.valid for p in parts)
    return Jet(ring, np.stack([p._upto(valid) for p in parts]), max(p.nzdeg for p in parts),
               min(p.xvalid for p in parts))


def solve(a: Jet, b) -> Jet:
    """The jet z with ``a z = b``, for ``a`` of batch shape (n, n) and ``b`` of shape (n,).

    Taylor-mode solve with one inverse of a(0): the order-k coefficients of
    z come from those of the residual b - a z, with z known below order k
    and only order k of the product computed (Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., ch. 13).
    """
    b = a._coerce(b)
    ring = a.ring
    try:
        a0inv = np.linalg.inv(a.coeffs[..., 0])
    except np.linalg.LinAlgError:
        raise JetDomainError("solve needs an invertible constant term") from None
    valid = min(a.valid, b.valid)
    z = np.zeros(np.broadcast_shapes(a.batch_shape[:-1], b.batch_shape)
                 + (int(ring.size_upto[valid]),))
    z[..., :1] = a0inv @ b.coeffs[..., :1]
    for k in range(1, valid + 1):
        lo, hi = int(ring.size_upto[k - 1]), int(ring.size_upto[k])
        az = ring._mul_coeffs(a.coeffs, z[..., None, :, :], k, k).sum(axis=-2)
        z[..., lo:hi] = a0inv @ (b.coeffs[..., lo:hi] - az)
    return Jet(ring, z, valid, min(a.xvalid, b.xvalid))


# -- elementary functions ----------------------------------------------------


def _compose(a: Jet, f0, d1, order) -> Jet:
    """phi(a) from phi(a0) = ``f0``, phi'(a0) = ``d1`` and a Taylor-mode recurrence.

    Orders 0 and 1 are ``f0`` and ``d1 * a_1``.  For k >= 2, ``order(k, f)``
    returns order k of the result from ``f``, which holds the orders below k
    and zeros from order k on.  ``f0`` and ``d1`` may lead with axes of their
    own (sin and cos stack a pair).  Order k of the result reads the orders
    up to k of ``a``, so the result keeps every exact order of ``a``, in
    total and in x; a constant ``a`` gives a constant.
    """
    ring = a.ring
    f0, d1 = np.asarray(f0), np.asarray(d1)
    f = np.zeros(f0.shape + a.coeffs.shape[-1:])
    f[..., 0] = f0
    if a.nzdeg == 0:
        return Jet(ring, f, 0, a.xvalid)
    first = slice(1, 1 + ring.nvars)
    f[..., first] = a.coeffs[..., first] * d1[..., None]
    for k in range(2, a.valid + 1):
        f[..., ring.size_upto[k - 1] : ring.size_upto[k]] = order(k, f)
    return Jet(ring, f, a.valid, a.xvalid)


def _euler(a: Jet) -> np.ndarray:
    """Coefficients of E a = sum_i x_i d_i a: order k of ``a`` times k."""
    return a.coeffs * a.ring.total_degree[: a.coeffs.shape[-1]]


def _power(a: Jet, r: float, f0, d1) -> Jet:
    # a Ef = r f Ea gives  k a0 f_k = [((r + 1) Ea - k a) f_{<k}]_k
    ring, a0 = a.ring, a.coeffs[..., :1]
    scaled_degree = (r + 1.0) * ring.total_degree

    def order(k, f):
        c1 = ring.size_upto[k]
        u = a.coeffs[..., :c1] * (scaled_degree[:c1] - k)
        return ring._mul_coeffs(u, f, k, k) / (k * a0)

    return _compose(a, f0, d1, order)


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
    # the power recurrence holds for any nonzero a0, so negative ones stay legal
    inv = 1.0 / a0
    return _power(a, -1.0, inv, -inv * inv)


def sqrt(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.sqrt(a)
    _require_positive(a, "sqrt")
    return powr(a, 0.5)


def log(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.log(a)
    x = _require_positive(a, "log")
    # a EL = Ea gives  k a0 L_k = k a_k - [(k a - Ea) L_{<k}]_k
    ring, a0 = a.ring, a.coeffs[..., :1]

    def order(k, f):
        c0, c1 = ring.size_upto[k - 1], ring.size_upto[k]
        u = a.coeffs[..., :c1] * (k - ring.total_degree[:c1])
        return (k * a.coeffs[..., c0:c1] - ring._mul_coeffs(u, f, k, k)) / (k * a0)

    return _compose(a, np.log(x), 1.0 / x, order)


def exp(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.exp(a)
    # Ef = f Ea gives  k f_k = [Ea f_{<k}]_k
    ring, ea = a.ring, _euler(a)
    value = np.exp(a.coeffs[..., 0])
    return _compose(a, value, value, lambda k, f: ring._mul_coeffs(ea, f, k, k) / k)


def powr(a: Jet, r: float) -> Jet:
    """Real power ``a**r`` of a jet with positive constant term.

    From a Ef = r f Ea, with E the Euler operator (order k times k), each
    order k >= 2 of f = a**r costs one order-k product (Neidinger, Math.
    Comp. 74, 2005; Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
    ch. 13).
    """
    if not isinstance(a, Jet):
        return float(a) ** float(r)
    x = _require_positive(a, "pow")
    return _power(a, r, x**r, r * x ** (r - 1))


def _cos_sin(a: Jet) -> Jet:
    """The pair (cos a, sin a), stacked on a new leading batch axis."""
    # Ec = -s Ea and Es = c Ea give  k (c_k, s_k) = (-[Ea s]_k, [Ea c]_k)
    ring, ea, x = a.ring, _euler(a), a.coeffs[..., 0]

    def order(k, f):
        ec, es = ring._mul_coeffs(ea, f, k, k) / k
        return np.stack([-es, ec])

    # order 1 as the series cos(x + k pi/2) / k! gave it, so its bits stay put
    d1 = np.stack([np.cos(x + np.pi / 2), np.sin(x + np.pi / 2)])
    return _compose(a, np.stack([np.cos(x), np.sin(x)]), d1, order)


def sin(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.sin(a)
    return _cos_sin(a)[1]


def cos(a: Jet) -> Jet:
    if not isinstance(a, Jet):
        return np.cos(a)
    return _cos_sin(a)[0]


def lift(a: Jet, target: PolyRing, valid: int) -> Jet:
    """Embed a jet of x alone into ``target``; its variables become the x variables.

    The result does not depend on the rest (the y variables), so it is
    exact to ``valid`` orders in total, and to the orders of ``a`` in x
    (``xvalid``).
    """
    src = a.ring
    if src.nvars > target.nvars // 2:
        raise ValueError("lift target has too few variables")
    top = min(valid, target.degree)
    table = _lift_table(src.nvars, src.degree, target.nvars, target.degree)
    coeffs = np.zeros(a.batch_shape + (int(target.size_upto[top]),))
    keep = np.flatnonzero(table[: int(src.size_upto[min(a.valid, top)])] >= 0)
    coeffs[..., table[keep]] = a.coeffs[..., keep]
    return Jet(target, coeffs, a.nzdeg, min(a.xvalid, top))


@lru_cache(maxsize=None)
def _lift_table(src_nvars, src_degree, dst_nvars, dst_degree) -> np.ndarray:
    src = ring(src_nvars, src_degree)
    dst = ring(dst_nvars, dst_degree)
    # each row walks the successor table of dst from its zero row
    table = np.zeros(src.size, dtype=np.intp)
    fits = src.total_degree <= dst.degree
    for v in range(src.nvars):
        for e in range(dst.degree):
            walk = fits & (src.exponents[:, v] > e)
            table[walk] = dst._dsrc[v, table[walk]]
    table[~fits] = -1
    return table
