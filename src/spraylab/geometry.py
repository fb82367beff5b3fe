"""Sprays, Finsler metrics, and the pointwise curvature stack.

Everything is evaluated through jets at a single tangent point: a metric
contributes the jet of F^2 in the doubled ring of (x, y) variables, the
spray coefficients follow from one Taylor-mode linear solve against the
fundamental tensor g, and connection and curvature tensors are plain
derivative reads from there.  No symbolic expressions are kept; a
"field" is anything that can hand back a jet at a point, which is what
makes the derivative operators composable.

Index conventions: ring variables 0..n-1 are x^1..x^n, variables n..2n-1
are y^1..y^n.  A tensor is one batched jet whose batch axes are its
indices, all contravariant indices first; ``.value()`` reads its values.

This module holds the first two links of the per-point chain: the metric
frame (F^2, g, G^i) and the spray stack (N, Gamma, B, R and horizontal
derivatives).  ``projective.PointContext`` strings them together with the
measure and projective layers; quantities are read from those objects,
not through one-call helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .errors import AdmissibilityError, ConfigError
from .jets import Jet

# Input truncation degree that leaves every derived quantity enough exact
# orders, including the reference Berwald-Weyl route: the projective Ricci
# scalar sits five derivative orders below F^2 and needs two more.
DEFAULT_DEGREE = 7

PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class TangentPoint:
    """A base point x with a nonzero tangent vector y in one chart."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same dimension")
        if all(v == 0.0 for v in self.y):
            raise ValueError("tangent vector y must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.x)

    def x_array(self) -> np.ndarray:
        return np.array(self.x)

    def y_array(self) -> np.ndarray:
        return np.array(self.y)


class Chart:
    """The chart protocol shared by metrics and sprays: which points are admissible."""

    dim: int
    name: str
    default_box: tuple[str, float] = ("cube", 0.5)

    def admissible(self, point: TangentPoint) -> bool:
        return True

    def check_point(self, point: TangentPoint):
        if point.dim != self.dim:
            raise AdmissibilityError(
                f"point dimension {point.dim} does not match dimension {self.dim} of {self.name}"
            )
        if not self.admissible(point):
            raise AdmissibilityError(f"point {point} is outside the chart of {self.name}")


class FinslerMetric(Chart):
    """Base class: a positively 1-homogeneous norm given through F^2 jets."""

    name: str = "metric"
    params: dict = {}

    def fsq(self, x: list, y: list):
        """Jet (or float) of F^2 from coordinate jets (or floats)."""
        raise NotImplementedError

    def fsq_at(self, x: list):
        """The map y -> F^2(x, y) at fixed base coordinates ``x``.

        A metric whose F^2 has parts that depend on x alone computes them
        here, once, so the Busemann-Hausdorff quadrature pays for them once
        per rule rather than once per block of directions.
        """
        return lambda y: self.fsq(x, y)

    def spray(self) -> "MetricSpray":
        return MetricSpray(self)


class Spray(Chart):
    """Base class: second-order vector field with 2-homogeneous coefficients."""

    name: str = "spray"
    metric: FinslerMetric | None = None

    def coefficients(self, point: TangentPoint, degree: int) -> Jet:
        """The jets G^i, as one jet with batch shape (n,)."""
        raise NotImplementedError


class MetricSpray(Spray):
    """The geodesic spray induced by a Finsler metric."""

    def __init__(self, metric: FinslerMetric):
        self.metric = metric
        self.dim = metric.dim
        self.name = f"spray({metric.name})"
        self.default_box = metric.default_box

    def coefficients(self, point: TangentPoint, degree: int) -> Jet:
        return MetricFrame(self.metric, point, degree).spray_coefficients

    def admissible(self, point: TangentPoint) -> bool:
        return self.metric.admissible(point)


class PerturbedSpray(Spray):
    """Projective perturbation G^i + (a_m(x) y^m) y^i of a base spray."""

    def __init__(self, base: Spray, oneform):
        self.base = base
        self.dim = base.dim
        self.oneform = list(oneform)
        if len(self.oneform) != self.dim:
            raise ValueError("one-form must have one component per dimension")
        self.name = f"perturbed({base.name})"
        # measure-level quantities of the perturbation are taken with the
        # base metric's volume forms, so keep the anchor
        self.metric = base.metric
        self.default_box = base.default_box

    def coefficients(self, point: TangentPoint, degree: int) -> Jet:
        return self.perturb(self.base.coefficients(point, degree), point)

    def perturb(self, G: Jet, point: TangentPoint) -> Jet:
        """G^i + p y^i for the base spray's coefficients G at ``point``."""
        n = self.dim
        xs = [G.ring.seed(i, point.x[i]) for i in range(n)]
        ys = _seeds(G.ring, n, point.y)
        p = sum((self.oneform[m](xs) * ys[m] for m in range(n)), G.ring.zero())
        return G + p.truncate(G.valid) * ys

    def admissible(self, point: TangentPoint) -> bool:
        return self.base.admissible(point)


def spray_and_metric(obj) -> tuple[Spray, FinslerMetric | None]:
    """The spray of a metric or spray, with the metric it comes from (if any)."""
    if isinstance(obj, FinslerMetric):
        return obj.spray(), obj
    if isinstance(obj, Spray):
        return obj, obj.metric
    raise ConfigError(f"expected a metric or spray, got {type(obj).__name__}")


def _seeds(ring, offset: int, values) -> Jet:
    """The coordinate jets of ring variables offset, offset+1, ... as one tensor."""
    return jets.stack([ring.seed(offset + i, v) for i, v in enumerate(values)])


def _assert_positive_definite(g: np.ndarray, context: str):
    """Pivoted Cholesky; pivots below PIVOT_TOL times the scale fail."""
    a = np.array(g, dtype=float)
    n = a.shape[0]
    scale = max(float(np.abs(np.diag(a)).max()), 1.0)
    for k in range(n):
        p = k + int(np.argmax(np.diag(a)[k:]))
        a[[k, p]] = a[[p, k]]
        a[:, [k, p]] = a[:, [p, k]]
        pivot = a[k, k]
        if pivot <= PIVOT_TOL * scale:
            raise AdmissibilityError(
                f"{context}: fundamental tensor is not positive definite "
                f"(pivot {pivot:.3e} at step {k})"
            )
        a[k + 1 :, k] /= pivot
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])


class MetricFrame:
    """Jets of one metric at one point: F^2, F to first order, g, and G^i solved from g."""

    def __init__(self, metric: FinslerMetric, point: TangentPoint, degree: int = DEFAULT_DEGREE):
        metric.check_point(point)
        self.metric = metric
        self.point = point
        self.n = metric.dim
        self.ring = jets.ring(2 * self.n, degree)
        self.x = [self.ring.seed(i, point.x[i]) for i in range(self.n)]
        self.y = _seeds(self.ring, self.n, point.y)
        self.ys = range(self.n, 2 * self.n)
        self.fsq = metric.fsq(self.x, list(self.y))
        self.fsq.assert_finite(f"F^2 of {metric.name}")
        if self.fsq.value() <= 0.0:
            raise AdmissibilityError(f"F^2 <= 0 at {point} for {metric.name}")

    @cached_property
    def F(self) -> Jet:
        return jets.sqrt(self.fsq.truncate(1))

    @cached_property
    def g(self) -> Jet:
        return 0.5 * self.fsq.grad(self.ys).grad(self.ys)

    @cached_property
    def g_values(self) -> np.ndarray:
        vals = self.g.value()
        _assert_positive_definite(vals, f"{self.metric.name} at {self.point}")
        return vals

    @cached_property
    def ylow(self) -> np.ndarray:
        return 0.5 * self.fsq.gradient()[self.n:]

    @cached_property
    def spray_coefficients(self) -> Jet:
        fx = self.fsq.grad(range(self.n))
        # rhs_l = -F^2_{x^l} + F^2_{x^k y^l} y^k
        rhs = (fx.grad(self.ys) * self.y[:, None]).einsum("kl->l") - fx
        self.g_values  # definiteness gate before solving
        return 0.25 * jets.solve(self.g, rhs)

    @cached_property
    def stack(self) -> "SprayStack":
        return SprayStack(self.point, self.spray_coefficients)


class SprayStack:
    """Connection and curvature jets of one spray at one tangent point.

    Derivative bookkeeping relative to the coefficients G (valid to v):
    N keeps v-1 orders, Gamma v-2, B v-3, R^i_k v-2, R^i_kl v-3, the full
    curvature tensor v-4, and each covariant derivative costs one more.
    B and the full curvature tensor are kept as values only.
    """

    def __init__(self, point: TangentPoint, G):
        self.point = point
        self.G = jets.stack(G)
        self.ring = self.G.ring
        self.n = point.dim
        if self.ring.nvars != 2 * self.n:
            raise ValueError("spray jets must live in the doubled (x, y) ring")
        self.xs = range(self.n)
        self.ys = range(self.n, 2 * self.n)
        self.y_jets = _seeds(self.ring, self.n, point.y)

    # -- derivatives of scalars ------------------------------------------

    def hgrad(self, f: Jet) -> Jet:
        """Horizontal derivatives f_{|k} = f_{x^k} - N^l_k f_{.l} of a scalar jet."""
        return f.grad(self.xs) - (self.N * f.grad(self.ys)[:, None]).einsum("lk->k")

    def euler_field(self, f: Jet) -> Jet:
        """Y(f) = y^m f_{.m}."""
        return (self.y_jets * f.grad(self.ys)).einsum("m->")

    # -- connection -------------------------------------------------------

    @cached_property
    def N(self) -> Jet:
        return self.G.grad(self.ys)

    N_values = cached_property(lambda self: self.N.value())

    @cached_property
    def Gamma(self) -> Jet:
        return self.N.grad(self.ys)

    Gamma_values = cached_property(lambda self: self.Gamma.value())

    B_values = cached_property(lambda self: self.Gamma.gradient()[..., self.n:])

    # -- curvature ----------------------------------------------------------

    @cached_property
    def Rik(self) -> Jet:
        # one batched (n, n) product per summed index keeps temporaries small
        gx = self.G.grad(self.xs)
        gxy = gx.grad(self.ys)
        G, N, y = self.G, self.N, self.y_jets
        acc = 2.0 * gx
        for j in range(self.n):
            acc = acc - y[j] * gxy[:, j]
            acc = acc + 2.0 * G[j] * self.Gamma[:, j]
            acc = acc - N[:, j, None] * N[None, j]
        return acc

    Rik_values = cached_property(lambda self: self.Rik.value())

    @cached_property
    def R3(self) -> Jet:
        d = self.Rik.grad(self.ys)
        return (1.0 / 3.0) * (d - d.einsum("ikl->ilk"))

    @cached_property
    def R4_values(self) -> np.ndarray:
        """R^i_{jkl}, the full curvature tensor, indexed [j, i, k, l]."""
        return np.moveaxis(self.R3.gradient()[..., self.n:], -1, 0)

    @cached_property
    def Ric(self) -> Jet:
        return self.Rik.einsum("mm->")

    @cached_property
    def Rscalar(self) -> Jet:
        return (1.0 / (self.n - 1)) * self.Ric

    @cached_property
    def Rscalar_v(self) -> Jet:
        """R_{.k}."""
        return self.Rscalar.grad(self.ys)

    @cached_property
    def T(self) -> Jet:
        return (self.Rik + (0.5 * self.Rscalar_v)[None, :] * self.y_jets[:, None]
                - self.Rscalar * np.eye(self.n))

    T_values = cached_property(lambda self: self.T.value())

    # -- covariant derivatives -------------------------------------------

    def hcov_values(self, tensor, contra: int) -> np.ndarray:
        """Horizontal covariant derivative, one extra lower index, values only.

        ``tensor`` is a tensor jet (or nested jets, see :func:`jets.stack`) whose
        first ``contra`` axes are contravariant; it must keep one exact order.
        """
        tensor = jets.stack(tensor)
        vals = np.asarray(tensor.value())
        out = self._hcov_partials(tensor)
        for pos in range(vals.ndim):
            # contravariant slot: + T^..l.. Gamma^i_lm; covariant: - T_..l.. Gamma^l_im
            conn = self.Gamma_values if pos < contra else -self.Gamma_values.transpose(1, 0, 2)
            out += np.moveaxis(np.tensordot(vals, conn, axes=([pos], [1])), -2, pos)
        return out

    def hcov_scalar_values(self, f: Jet) -> np.ndarray:
        """Values of f_{|k} = f_{x^k} - N^l_k f_{.l}, indexed [..., k], entry by entry."""
        return self._hcov_partials(f)

    def _hcov_partials(self, f: Jet) -> np.ndarray:
        # shared by both public derivatives, so each call of either is one derivative
        grad = f.gradient()
        return grad[..., : self.n] - grad[..., self.n :] @ self.N_values

    @cached_property
    def Rscalar_hcov(self) -> np.ndarray:
        """R_{|k}."""
        return self.hcov_scalar_values(self.Rscalar)

    @cached_property
    def Rscalar_h(self) -> Jet:
        """R_{|k} as jets, for derivatives beyond the first."""
        return self.hgrad(self.Rscalar)

    @cached_property
    def Rscalar_hh(self) -> np.ndarray:
        """R_{|k|m}, indexed [k, m]."""
        return self.hcov_values(self.Rscalar_h, contra=0)

    @cached_property
    def Rscalar_vhcov(self) -> np.ndarray:
        """(R_{.k})_{|m}, indexed [k, m]."""
        return self.hcov_values(self.Rscalar_v, contra=0)

    @cached_property
    def Rik_hcov(self) -> np.ndarray:
        """R^i_{k|m}, indexed [i, k, m]."""
        return self.hcov_values(self.Rik, contra=1)


def stack_for(spray: Spray, point: TangentPoint, degree: int = DEFAULT_DEGREE) -> SprayStack:
    """The connection and curvature stack of any spray at an admissible point."""
    spray.check_point(point)
    return SprayStack(point, spray.coefficients(point, degree))
