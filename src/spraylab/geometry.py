"""Sprays, Finsler metrics, and the pointwise curvature stack.

Everything is evaluated through jets at a single tangent point: a metric
contributes the jet of F^2 in the doubled ring of (x, y) variables, the
spray coefficients follow by linear algebra on jets, and connection and
curvature tensors are plain derivative reads from there.  No symbolic
expressions are kept; a "field" is anything that can hand back a jet at
a point, which is what makes the derivative operators composable.

Index conventions: ring variables 0..n-1 are x^1..x^n, variables n..2n-1
are y^1..y^n.  Tensors are stored as numpy object arrays of jets with
all contravariant indices first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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


class FinslerMetric:
    """Base class: a positively 1-homogeneous norm given through F^2 jets."""

    dim: int
    name: str = "metric"
    params: dict = {}
    default_box: tuple[str, float] = ("cube", 0.5)

    def fsq(self, x: list, y: list):
        """Jet (or float) of F^2 from coordinate jets (or floats)."""
        raise NotImplementedError

    def admissible(self, point: TangentPoint) -> bool:
        return True

    def check_point(self, point: TangentPoint):
        if point.dim != self.dim:
            raise AdmissibilityError(
                f"point dimension {point.dim} does not match metric dimension {self.dim}"
            )
        if not self.admissible(point):
            raise AdmissibilityError(f"point {point} is outside the chart of {self.name}")

    def spray(self) -> "MetricSpray":
        return MetricSpray(self)


class Spray:
    """Base class: second-order vector field with 2-homogeneous coefficients."""

    dim: int
    name: str = "spray"
    metric: FinslerMetric | None = None

    def coefficients(self, point: TangentPoint, degree: int) -> list[Jet]:
        raise NotImplementedError

    def admissible(self, point: TangentPoint) -> bool:
        return True

    def check_point(self, point: TangentPoint):
        if point.dim != self.dim:
            raise AdmissibilityError(
                f"point dimension {point.dim} does not match spray dimension {self.dim}"
            )
        if not self.admissible(point):
            raise AdmissibilityError(f"point {point} is outside the chart of {self.name}")


class MetricSpray(Spray):
    """The geodesic spray induced by a Finsler metric."""

    def __init__(self, metric: FinslerMetric):
        self.metric = metric
        self.dim = metric.dim
        self.name = f"spray({metric.name})"
        self.default_box = metric.default_box

    def coefficients(self, point: TangentPoint, degree: int) -> list[Jet]:
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
        if isinstance(base, MetricSpray):
            self.default_box = base.metric.default_box

    def coefficients(self, point: TangentPoint, degree: int) -> list[Jet]:
        G = self.base.coefficients(point, degree)
        ring = G[0].ring
        n = self.dim
        xs = [ring.seed(i, point.x[i]) for i in range(n)]
        ys = [ring.seed(n + i, point.y[i]) for i in range(n)]
        p = sum((self.oneform[m](xs) * ys[m] for m in range(n)), ring.zero())
        return [G[i] + p * ys[i] for i in range(n)]

    def admissible(self, point: TangentPoint) -> bool:
        return self.base.admissible(point)


def spray_and_metric(obj) -> tuple[Spray, FinslerMetric | None]:
    """The spray of a metric or spray, with the metric it comes from (if any)."""
    if isinstance(obj, FinslerMetric):
        return obj.spray(), obj
    if isinstance(obj, Spray):
        return obj, obj.metric
    raise ConfigError(f"expected a metric or spray, got {type(obj).__name__}")


def tensor_values(tensor: np.ndarray) -> np.ndarray:
    out = np.zeros(tensor.shape)
    for idx in np.ndindex(*tensor.shape):
        out[idx] = tensor[idx].value()
    return out


def _assert_positive_definite(g: np.ndarray, context: str):
    """Pivoted Cholesky; pivots below PIVOT_TOL times the scale fail."""
    a = np.array(g, dtype=float)
    n = a.shape[0]
    scale = max(float(np.abs(np.diag(a)).max()), 1.0)
    perm = list(range(n))
    for k in range(n):
        p = k + int(np.argmax(np.diag(a)[k:]))
        a[[k, p]] = a[[p, k]]
        a[:, [k, p]] = a[:, [p, k]]
        perm[k], perm[p] = perm[p], perm[k]
        pivot = a[k, k]
        if pivot <= PIVOT_TOL * scale:
            raise AdmissibilityError(
                f"{context}: fundamental tensor is not positive definite "
                f"(pivot {pivot:.3e} at step {k})"
            )
        a[k + 1 :, k] /= pivot
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])


def jet_matrix_inverse(m: list[list[Jet]]) -> list[list[Jet]]:
    """Gauss-Jordan inverse of a jet matrix, pivoting on constant terms."""
    n = len(m)
    ring = m[0][0].ring
    aug = [list(row) + [ring.const(1.0 if i == j else 0.0) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col].value()))
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_pivot = jets.reciprocal(aug[col][col])
        aug[col] = [entry * inv_pivot for entry in aug[col]]
        for row in range(n):
            if row == col:
                continue
            factor = aug[row][col]
            if factor.nzdeg == 0 and abs(factor.value()) == 0.0:
                continue
            aug[row] = [a - factor * b for a, b in zip(aug[row], aug[col])]
    return [row[n:] for row in aug]


class MetricFrame:
    """Jets of one metric at one point: F^2, F, g, its inverse, and G^i."""

    def __init__(self, metric: FinslerMetric, point: TangentPoint, degree: int = DEFAULT_DEGREE):
        metric.check_point(point)
        self.metric = metric
        self.point = point
        self.n = metric.dim
        self.ring = jets.ring(2 * self.n, degree)
        self.x = [self.ring.seed(i, point.x[i]) for i in range(self.n)]
        self.y = [self.ring.seed(self.n + i, point.y[i]) for i in range(self.n)]
        self.fsq = metric.fsq(self.x, self.y)
        self.fsq.assert_finite(f"F^2 of {metric.name}")
        if self.fsq.value() <= 0.0:
            raise AdmissibilityError(f"F^2 <= 0 at {point} for {metric.name}")

    @cached_property
    def F(self) -> Jet:
        return jets.sqrt(self.fsq)

    @cached_property
    def g(self) -> list[list[Jet]]:
        n = self.n
        half = [self.fsq.deriv(n + i) for i in range(n)]
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                out[i][j] = out[j][i] = 0.5 * half[i].deriv(n + j)
        return out

    @cached_property
    def g_values(self) -> np.ndarray:
        vals = np.array([[e.value() for e in row] for row in self.g])
        _assert_positive_definite(vals, f"{self.metric.name} at {self.point}")
        return vals

    @cached_property
    def ginv(self) -> list[list[Jet]]:
        self.g_values  # definiteness gate before inverting
        return jet_matrix_inverse(self.g)

    @cached_property
    def ylow(self) -> np.ndarray:
        n = self.n
        return np.array([0.5 * self.fsq.deriv(n + m).value() for m in range(n)])

    @cached_property
    def spray_coefficients(self) -> list[Jet]:
        n = self.n
        fx = [self.fsq.deriv(k) for k in range(n)]
        rhs = []
        for l in range(n):
            acc = -fx[l]
            for k in range(n):
                acc = acc + fx[k].deriv(n + l) * self.y[k]
            rhs.append(acc)
        G = []
        for i in range(n):
            acc = self.ring.zero()
            for l in range(n):
                acc = acc + self.ginv[i][l] * rhs[l]
            G.append(0.25 * acc)
        return G

    @cached_property
    def stack(self) -> "SprayStack":
        return SprayStack(self.point, self.spray_coefficients)


class SprayStack:
    """Connection and curvature jets of one spray at one tangent point.

    Derivative bookkeeping relative to the coefficients G (valid to v):
    N keeps v-1 orders, Gamma v-2, B v-3, R^i_k v-2, R^i_kl v-3, the full
    curvature tensor v-4, and each covariant derivative costs one more.
    """

    def __init__(self, point: TangentPoint, G: list[Jet]):
        self.point = point
        self.G = list(G)
        self.ring = self.G[0].ring
        self.n = point.dim
        if self.ring.nvars != 2 * self.n:
            raise ValueError("spray jets must live in the doubled (x, y) ring")
        self.y_jets = [self.ring.seed(self.n + i, point.y[i]) for i in range(self.n)]

    # -- derivatives of scalars ------------------------------------------

    def vderiv(self, f: Jet, k: int) -> Jet:
        """Vertical derivative with respect to y^k."""
        return f.deriv(self.n + k)

    def hderiv(self, f: Jet, k: int) -> Jet:
        """Horizontal derivative of a scalar along the spray's frame."""
        acc = f.deriv(k)
        for l in range(self.n):
            acc = acc - self.N[l, k] * f.deriv(self.n + l)
        return acc

    def hderiv_value(self, f: Jet, k: int) -> float:
        grad = f.gradient()
        return float(grad[k] - self.N_values[:, k] @ grad[self.n :])

    def euler_field(self, f: Jet) -> Jet:
        """Y(f) = y^m f_{.m}."""
        acc = self.ring.zero()
        for m in range(self.n):
            acc = acc + self.y_jets[m] * f.deriv(self.n + m)
        return acc

    # -- connection -------------------------------------------------------

    @cached_property
    def N(self) -> np.ndarray:
        n = self.n
        return np.array([[self.G[i].deriv(n + j) for j in range(n)] for i in range(n)],
                        dtype=object)

    @cached_property
    def N_values(self) -> np.ndarray:
        return tensor_values(self.N)

    @cached_property
    def Gamma(self) -> np.ndarray:
        n = self.n
        out = np.empty((n, n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                for k in range(j, n):
                    out[i, j, k] = out[i, k, j] = self.N[i, j].deriv(n + k)
        return out

    @cached_property
    def Gamma_values(self) -> np.ndarray:
        return tensor_values(self.Gamma)

    @cached_property
    def B(self) -> np.ndarray:
        n = self.n
        out = np.empty((n, n, n, n), dtype=object)
        for i, j in itertools.product(range(n), repeat=2):
            for k in range(j, n):
                for l in range(k, n):
                    d = self.Gamma[i, j, k].deriv(n + l)
                    for a, b, c in itertools.permutations((j, k, l)):
                        out[i, a, b, c] = d
        return out

    @cached_property
    def B_values(self) -> np.ndarray:
        return tensor_values(self.B)

    # -- curvature ----------------------------------------------------------

    @cached_property
    def Rik(self) -> np.ndarray:
        n = self.n
        out = np.empty((n, n), dtype=object)
        gx = [[self.G[i].deriv(j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for k in range(n):
                acc = 2.0 * gx[i][k]
                for j in range(n):
                    acc = acc - self.y_jets[j] * gx[i][j].deriv(n + k)
                    acc = acc + 2.0 * self.G[j] * self.Gamma[i, j, k]
                    acc = acc - self.N[i, j] * self.N[j, k]
                out[i, k] = acc
        return out

    @cached_property
    def Rik_values(self) -> np.ndarray:
        return tensor_values(self.Rik)

    @cached_property
    def R3(self) -> np.ndarray:
        n = self.n
        out = np.empty((n, n, n), dtype=object)
        third = 1.0 / 3.0
        for i, k, l in itertools.product(range(n), repeat=3):
            out[i, k, l] = third * (
                self.Rik[i, k].deriv(n + l) - self.Rik[i, l].deriv(n + k)
            )
        return out

    @cached_property
    def R4(self) -> np.ndarray:
        n = self.n
        out = np.empty((n, n, n, n), dtype=object)
        for j, i, k, l in itertools.product(range(n), repeat=4):
            out[j, i, k, l] = self.R3[i, k, l].deriv(n + j)
        return out

    @cached_property
    def Ric(self) -> Jet:
        acc = self.ring.zero()
        for m in range(self.n):
            acc = acc + self.Rik[m, m]
        return acc

    @cached_property
    def Rscalar(self) -> Jet:
        return (1.0 / (self.n - 1)) * self.Ric

    @cached_property
    def T(self) -> np.ndarray:
        n = self.n
        out = np.empty((n, n), dtype=object)
        rv = [self.Rscalar.deriv(n + j) for j in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            entry = self.Rik[i, j] + 0.5 * rv[j] * self.y_jets[i]
            if i == j:
                entry = entry - self.Rscalar
            out[i, j] = entry
        return out

    @cached_property
    def T_values(self) -> np.ndarray:
        return tensor_values(self.T)

    # -- covariant derivatives -------------------------------------------

    def hcov_values(self, tensor, contra: int) -> np.ndarray:
        """Horizontal covariant derivative, one extra lower index, values only.

        ``tensor`` is an object array (or nested list) of jets whose first
        ``contra`` axes are contravariant; every entry must keep at least
        one exact order.
        """
        n = self.n
        tensor = np.asarray(tensor, dtype=object)
        rank = tensor.ndim
        vals = tensor_values(tensor)
        Nv, Gv = self.N_values, self.Gamma_values
        out = np.zeros(tensor.shape + (n,))
        for idx in np.ndindex(*tensor.shape):
            grad = tensor[idx].gradient()
            base = grad[:n] - Nv.T @ grad[n:]
            for m in range(n):
                val = base[m]
                for pos in range(rank):
                    swapped = list(idx)
                    for l in range(n):
                        swapped[pos] = l
                        if pos < contra:
                            val += vals[tuple(swapped)] * Gv[idx[pos], l, m]
                        else:
                            val -= vals[tuple(swapped)] * Gv[l, idx[pos], m]
                out[idx + (m,)] = val
        return out

    def hcov_scalar_values(self, f: Jet) -> np.ndarray:
        grad = f.gradient()
        return grad[: self.n] - self.N_values.T @ grad[self.n :]

    @cached_property
    def Rscalar_hcov(self) -> np.ndarray:
        """R_{|k}."""
        return self.hcov_scalar_values(self.Rscalar)

    @cached_property
    def Rscalar_vhcov(self) -> np.ndarray:
        """(R_{.k})_{|m}, indexed [k, m]."""
        return self.hcov_values([self.vderiv(self.Rscalar, k) for k in range(self.n)], contra=0)

    @cached_property
    def Rik_hcov(self) -> np.ndarray:
        """R^i_{k|m}, indexed [i, k, m]."""
        return self.hcov_values(self.Rik, contra=1)


# -- public wrappers ---------------------------------------------------------


@dataclass(frozen=True)
class FundamentalTensor:
    g: np.ndarray
    ginv: np.ndarray
    ylow: np.ndarray


@dataclass(frozen=True)
class Connection:
    N: np.ndarray
    Gamma: np.ndarray
    B: np.ndarray


@dataclass(frozen=True)
class Curvature:
    Rik: np.ndarray
    R3: np.ndarray
    R4: np.ndarray
    Ric: float
    Rscalar: float
    T: np.ndarray


def fundamental_tensor(metric: FinslerMetric, point: TangentPoint, degree: int = 3) -> FundamentalTensor:
    frame = MetricFrame(metric, point, degree)
    g = frame.g_values
    return FundamentalTensor(g=g, ginv=np.linalg.inv(g), ylow=frame.ylow)


def geodesic_coefficients(metric: FinslerMetric, point: TangentPoint, degree: int = DEFAULT_DEGREE) -> list[Jet]:
    return MetricFrame(metric, point, degree).spray_coefficients


def stack_for(spray: Spray, point: TangentPoint, degree: int = DEFAULT_DEGREE) -> SprayStack:
    spray.check_point(point)
    return SprayStack(point, spray.coefficients(point, degree))


def connection(spray: Spray, point: TangentPoint, degree: int = 5) -> Connection:
    st = stack_for(spray, point, degree)
    return Connection(N=st.N_values, Gamma=st.Gamma_values, B=st.B_values)


def riemann(spray: Spray, point: TangentPoint, degree: int = 6) -> Curvature:
    st = stack_for(spray, point, degree)
    return Curvature(
        Rik=st.Rik_values,
        R3=tensor_values(st.R3),
        R4=tensor_values(st.R4),
        Ric=st.Ric.value(),
        Rscalar=st.Rscalar.value(),
        T=st.T_values,
    )


def vderiv(field, spray: Spray, point: TangentPoint, k: int, degree: int = DEFAULT_DEGREE) -> float:
    """d(field)/dy^k where ``field`` maps a SprayStack to a jet."""
    st = stack_for(spray, point, degree)
    return st.vderiv(field(st), k).value()


def hderiv(field, spray: Spray, point: TangentPoint, k: int, degree: int = DEFAULT_DEGREE) -> float:
    """Horizontal derivative of a scalar field along the spray's frame."""
    st = stack_for(spray, point, degree)
    return st.hderiv_value(field(st), k)
