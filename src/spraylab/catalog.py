"""Built-in metric and spray families used as fixtures.

Every family builds a concrete object from a MetricSpec.  The classes
keep their defining data (matrix and covector callables, coupling
constants) accessible so tests can evaluate closed-form oracles against
the jet pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import AdmissibilityError, ConfigError
from .expressions import as_field
from .geometry import FinslerMetric, PerturbedSpray, Spray, TangentPoint


@dataclass(frozen=True)
class MetricSpec:
    """Family name, dimension, and family-specific parameters."""

    family: str
    dim: int | None = None
    params: dict = field(default_factory=dict)


# -- metric classes -----------------------------------------------------------


class Euclidean(FinslerMetric):
    def __init__(self, dim):
        self.dim = dim
        self.name = f"euclidean({dim})"

    def fsq(self, x, y):
        acc = y[0] * y[0]
        for i in range(1, self.dim):
            acc = acc + y[i] * y[i]
        return acc


class Riemannian(FinslerMetric):
    """F^2 = a_ij(x) y^i y^j for a callable symmetric matrix a(x)."""

    def __init__(self, dim, matrix, name="riemannian", box=("cube", 0.5), chart=None):
        self.dim = dim
        self.matrix = matrix
        self.name = name
        self.default_box = box
        self.chart = chart

    def fsq(self, x, y):
        m = self.matrix(x)
        acc = 0.0
        for i in range(self.dim):
            for j in range(self.dim):
                acc = m[i][j] * y[i] * y[j] + acc
        return acc

    def admissible(self, point):
        return self.chart is None or self.chart(point.x)

    def a_matrix(self, x):
        return np.array(self.matrix([float(v) for v in x]), dtype=float)


def round_sphere():
    """Stereographic chart of the unit 2-sphere, Gauss curvature +1."""

    def matrix(x):
        s = 1.0 + x[0] * x[0] + x[1] * x[1]
        f = 4.0 * jets.reciprocal(s * s)
        return [[f, 0.0 * f], [0.0 * f, f]]

    return Riemannian(2, matrix, name="round-sphere")


def hyperbolic_ball(dim):
    """Poincare ball model, sectional curvature -1."""

    def matrix(x):
        s = 1.0
        for v in x:
            s = s - v * v
        f = 4.0 * jets.reciprocal(s * s)
        zero = 0.0 * f
        return [[f if i == j else zero for j in range(dim)] for i in range(dim)]

    return Riemannian(
        dim,
        matrix,
        name=f"hyperbolic-ball({dim})",
        box=("ball", 0.6),
        chart=lambda x: sum(v * v for v in x) < 1.0,
    )


def conformal_flat_2d(lam="x1^2"):
    """Metric e^{2 lam(x)} (dx1^2 + dx2^2) on the plane."""
    lam_field = as_field(lam, 2)

    def matrix(x):
        f = jets.exp(2.0 * lam_field(x))
        return [[f, 0.0 * f], [0.0 * f, f]]

    metric = Riemannian(2, matrix, name="conformal-flat-2d")
    metric.lam_field = lam_field
    return metric


class Randers(FinslerMetric):
    """F = sqrt(a_ij(x) y^i y^j) + b_i(x) y^i."""

    def __init__(self, dim, a, b, name="randers", box=("cube", 0.4)):
        self.dim = dim
        self.a = a
        self.b = b
        self.name = name
        self.default_box = box

    def fsq(self, x, y):
        am = self.a(x)
        bv = self.b(x)
        a2 = 0.0
        beta = 0.0
        for i in range(self.dim):
            beta = bv[i] * y[i] + beta
            for j in range(self.dim):
                a2 = am[i][j] * y[i] * y[j] + a2
        f = jets.sqrt(a2) + beta
        return f * f

    def a_matrix(self, x):
        return np.array(self.a([float(v) for v in x]), dtype=float)

    def b_covector(self, x):
        return np.array(self.b([float(v) for v in x]), dtype=float)

    def admissible(self, point):
        a = self.a_matrix(point.x)
        b = self.b_covector(point.x)
        return float(b @ np.linalg.solve(a, b)) < 1.0


def randers_generic():
    """x-dependent Randers data on n = 3 with non-closed b, |b|_a < 1."""

    def a(x):
        d0 = jets.exp(0.2 * x[0])
        d1 = jets.exp(-0.15 * x[2])
        c = 0.1 * x[1]
        zero = 0.0 * c
        one = 1.0 + zero
        return [[d0, c, zero], [c, d1, zero], [zero, zero, one]]

    def b(x):
        zero = 0.0 * x[0]
        return [0.2 + 0.1 * x[1] + zero, 0.05 * x[0] + zero, -0.1 + zero]

    return Randers(3, a, b, name="randers(3)")


def randers_constant(dim, a=None, b=None):
    a_mat = np.eye(dim) if a is None else np.asarray(a, dtype=float)
    b_vec = np.zeros(dim) if b is None else np.asarray(b, dtype=float)
    if b is None:
        b_vec[0] = 0.3
    norm2 = float(b_vec @ np.linalg.solve(a_mat, b_vec))
    if norm2 >= 1.0:
        raise ConfigError(
            f"randers data violates |b|_a < 1: |b|_a^2 = {norm2:.6g}"
        )
    metric = Randers(
        dim,
        lambda x: [[a_mat[i, j] for j in range(dim)] for i in range(dim)],
        lambda x: list(b_vec),
        name=f"randers-constant({dim})",
    )
    metric.const_a = a_mat
    metric.const_b = b_vec
    return metric


class Funk(FinslerMetric):
    """Funk metric of the unit ball; geodesic coefficients are F y / 2."""

    def __init__(self, dim):
        self.dim = dim
        self.name = f"funk({dim})"
        self.default_box = ("ball", 0.6)

    def fsq(self, x, y):
        x2 = 0.0
        y2 = 0.0
        xy = 0.0
        for i in range(self.dim):
            x2 = x[i] * x[i] + x2
            y2 = y[i] * y[i] + y2
            xy = x[i] * y[i] + xy
        om = 1.0 - x2
        f = (jets.sqrt(om * y2 + xy * xy) + xy) * jets.reciprocal(om)
        return f * f

    def admissible(self, point):
        return sum(v * v for v in point.x) < 1.0


class FourthRoot(FinslerMetric):
    """F^4 = a1^4 + 2c a1^2 a2^2 + a2^4 for flat factor norms a1, a2."""

    def __init__(self, n1, n2, c):
        if not 0.0 < c <= 1.0:
            raise ConfigError(f"fourth-root coupling must satisfy 0 < c <= 1, got {c}")
        self.n1 = n1
        self.n2 = n2
        self.c = float(c)
        self.dim = n1 + n2
        self.name = f"fourth-root({n1}+{n2}, c={c})"

    def fsq(self, x, y):
        u2 = 0.0
        v2 = 0.0
        for i in range(self.n1):
            u2 = y[i] * y[i] + u2
        for i in range(self.n1, self.dim):
            v2 = y[i] * y[i] + v2
        quartic = u2 * u2 + 2.0 * self.c * u2 * v2 + v2 * v2
        return jets.sqrt(quartic)


class SquareMetric(FinslerMetric):
    """F = (alpha + beta)^2 / alpha with the quadratic-chart data.

    With u = 1 + 4|x|^2: alpha^2 = u^2 |y|^2 - 4u <x,y>^2, beta = 2<x,y>.
    ``literal_inner`` swaps <x,y>^2 for <x,y> inside alpha, which breaks
    positive 1-homogeneity; it exists so the broken reading can be probed.
    """

    def __init__(self, dim, literal_inner=False):
        self.dim = dim
        self.literal_inner = bool(literal_inner)
        self.name = f"square-metric({dim})"
        self.default_box = ("ball", 0.25)

    def fsq(self, x, y):
        x2 = 0.0
        y2 = 0.0
        xy = 0.0
        for i in range(self.dim):
            x2 = x[i] * x[i] + x2
            y2 = y[i] * y[i] + y2
            xy = x[i] * y[i] + xy
        u = 1.0 + 4.0 * x2
        inner = xy if self.literal_inner else xy * xy
        a2 = u * u * y2 - 4.0 * u * inner
        alpha = jets.sqrt(a2)
        f = (alpha + 2.0 * xy) * (alpha + 2.0 * xy) * jets.reciprocal(alpha)
        return f * f


# -- family registry ----------------------------------------------------------


def _build_euclidean(dim, params):
    return Euclidean(dim)


def _build_riemannian(dim, params):
    if dim is None:
        raise ConfigError("riemannian family needs an explicit dim")
    matrix = params.get("matrix")
    if matrix is None:
        raise ConfigError("riemannian family needs a 'matrix' parameter")
    if not callable(matrix):
        rows = [[as_field(entry, dim) for entry in row] for row in matrix]

        def matrix_fn(x, rows=rows):
            return [[entry(x) for entry in row] for row in rows]

        return Riemannian(dim, matrix_fn)
    return Riemannian(dim, matrix)


def _build_round_sphere(dim, params):
    if dim != 2:
        raise ConfigError("round-sphere is a 2-dimensional chart")
    return round_sphere()


def _build_hyperbolic(dim, params):
    if dim not in (2, 3):
        raise ConfigError("hyperbolic-ball supports dim 2 or 3")
    return hyperbolic_ball(dim)


def _build_conformal(dim, params):
    if dim != 2:
        raise ConfigError("conformal-flat-2d is 2-dimensional")
    return conformal_flat_2d(params.get("lam", "x1^2"))


def _build_randers(dim, params):
    preset = params.get("preset", "generic")
    if preset == "generic":
        if dim != 3:
            raise ConfigError("the generic randers preset is defined for dim 3")
        return randers_generic()
    if preset == "constant":
        return randers_constant(dim, params.get("a"), params.get("b"))
    raise ConfigError(f"unknown randers preset {preset!r}")


def _build_funk(dim, params):
    return Funk(dim)


def _build_fourth_root(dim, params):
    n1 = int(params.get("n1", 2))
    n2 = int(params.get("n2", 2))
    if dim != n1 + n2:
        raise ConfigError(f"fourth-root dim must equal n1 + n2 = {n1 + n2}, got {dim}")
    return FourthRoot(n1, n2, float(params.get("c", 0.5)))


def _build_square(dim, params):
    return SquareMetric(dim, literal_inner=bool(params.get("literal_inner", False)))


def _build_perturbation(dim, params):
    base = params.get("base")
    if base is None:
        raise ConfigError("projective-perturbation needs a 'base' spec")
    if isinstance(base, (str, MetricSpec)):
        base = build(base if isinstance(base, MetricSpec) else MetricSpec(base, dim))
    if isinstance(base, FinslerMetric):
        base = base.spray()
    oneform = params.get("oneform")
    if oneform is None:
        raise ConfigError("projective-perturbation needs a 'oneform' parameter")
    forms = [as_field(entry, base.dim) for entry in oneform]
    return PerturbedSpray(base, forms)


_FAMILIES = {
    "euclidean": (_build_euclidean, 3, "flat metric |y|"),
    "riemannian": (_build_riemannian, None, "F^2 = a_ij(x) y^i y^j from a matrix parameter"),
    "round-sphere": (_build_round_sphere, 2, "stereographic 2-sphere, curvature +1"),
    "hyperbolic-ball": (_build_hyperbolic, 2, "Poincare ball, curvature -1 (dim 2 or 3)"),
    "conformal-flat-2d": (_build_conformal, 2, "e^{2 lam(x)} (dx^2), param lam (default x1^2)"),
    "randers": (_build_randers, 3, "sqrt(a_ij y^i y^j) + b_i y^i; presets generic | constant"),
    "funk": (_build_funk, 3, "Funk metric of the unit ball"),
    "fourth-root": (_build_fourth_root, 4, "(a1^4 + 2c a1^2 a2^2 + a2^4)^{1/4}, params n1, n2, c"),
    "square-metric": (_build_square, 3, "(alpha + beta)^2 / alpha on the quadratic chart"),
    "projective-perturbation": (_build_perturbation, None, "base spray plus (a_m(x) y^m) y^i"),
}


def family_names():
    return list(_FAMILIES)


def family_summary(name):
    builder, default_dim, summary = _FAMILIES[name]
    return {"family": name, "default_dim": default_dim, "summary": summary}


def build(spec) -> FinslerMetric | Spray:
    """Build the metric or spray described by a MetricSpec (or family name)."""
    if isinstance(spec, str):
        spec = MetricSpec(spec)
    if spec.family not in _FAMILIES:
        raise ConfigError(
            f"unknown family {spec.family!r}; available: {', '.join(_FAMILIES)}"
        )
    builder, default_dim, _ = _FAMILIES[spec.family]
    dim = spec.dim if spec.dim is not None else default_dim
    if dim is not None and dim < 2:
        raise ConfigError("dim must be at least 2")
    built = builder(dim, dict(spec.params))
    built.spec = MetricSpec(spec.family, built.dim, dict(spec.params))
    return built


def _draw_x(rng, dim, box):
    kind, size = box
    if not size > 0:
        raise ConfigError(f"box size must be positive, got {size}")
    if kind == "cube":
        return rng.uniform(-size, size, dim)
    if kind == "ball":
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        return v * size * rng.uniform(0.0, 1.0) ** (1.0 / dim)
    raise ConfigError(f"unknown box kind {kind!r} (use cube or ball)")


def sample(obj, count=20, seed=0, box=None) -> list[TangentPoint]:
    """Deterministic admissible sample; |y| drawn uniformly in [1/2, 2]."""
    if count < 1:
        raise ConfigError(f"point count must be at least 1, got {count}")
    if isinstance(obj, (str, MetricSpec)):
        obj = build(obj)
    box = box if box is not None else obj.default_box
    rng = np.random.default_rng(seed)
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts >= 50 and len(points) < 0.1 * attempts:
            raise AdmissibilityError(
                f"sampler rejection rate above 90% for {obj.name} with box {box}"
            )
        x = _draw_x(rng, obj.dim, box)
        direction = rng.standard_normal(obj.dim)
        direction /= np.linalg.norm(direction)
        y = direction * rng.uniform(0.5, 2.0)
        point = TangentPoint(tuple(x), tuple(y))
        if obj.admissible(point):
            points.append(point)
    return points
