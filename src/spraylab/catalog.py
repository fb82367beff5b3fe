"""Built-in metric and spray families used as fixtures.

Every family builds a concrete object from a MetricSpec; a family
parameter of the wrong shape or type, one the family does not read, or a
Randers ``a`` that is not symmetric positive definite is a ``ConfigError``
that names it.  The classes keep the data F^2 is built from (matrix and
covector callables, factor dimensions, coupling constant); matrix data may
mix jets and plain numbers, and a float 0.0 entry costs no jet product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import AdmissibilityError, ConfigError
from .expressions import ScalarField, as_field, finite_number
from .geometry import FinslerMetric, PerturbedSpray, Spray, TangentPoint


@dataclass(frozen=True)
class MetricSpec:
    """Family name, dimension, and family-specific parameters."""

    family: str
    dim: int | None = None
    params: dict = field(default_factory=dict)


# -- metric classes -----------------------------------------------------------


def _dot(u, v):
    """sum_i u_i v_i, accumulated in index order."""
    acc = 0.0
    for ui, vi in zip(u, v):
        acc = ui * vi + acc
    return acc


def _quad(m, y):
    """sum_ij m_ij y^i y^j in index order, skipping entries that are the float 0.0."""
    acc = 0.0
    for i, row in enumerate(m):
        for j, mij in enumerate(row):
            if not (isinstance(mij, float) and mij == 0.0):
                acc = mij * y[i] * y[j] + acc
    return acc


class Riemannian(FinslerMetric):
    """F^2 = a_ij(x) y^i y^j for a callable symmetric matrix a(x)."""

    def __init__(self, dim, matrix, name="riemannian", box=("cube", 0.5), chart=None):
        self.dim = dim
        self.matrix = matrix
        self.name = name
        self.default_box = box
        self.chart = chart

    def fsq_at(self, x):
        m = self.matrix(x)
        return lambda y: _quad(m, y)

    def admissible(self, point):
        return self.chart is None or self.chart(point.x)


class Randers(FinslerMetric):
    """F = sqrt(a_ij(x) y^i y^j) + b_i(x) y^i."""

    def __init__(self, dim, a, b, name="randers", box=("cube", 0.4)):
        self.dim = dim
        self.a = a
        self.b = b
        self.name = name
        self.default_box = box

    def fsq_at(self, x):
        am = self.a(x)
        bv = self.b(x)

        def fsq(y):
            f = jets.sqrt(_quad(am, y)) + _dot(bv, y)
            return f * f

        return fsq

    def admissible(self, point):
        x = [float(v) for v in point.x]
        a, b = np.array(self.a(x), dtype=float), np.array(self.b(x), dtype=float)
        return float(b @ np.linalg.solve(a, b)) < 1.0


class Funk(FinslerMetric):
    """Funk metric of the unit ball; geodesic coefficients are F y / 2."""

    def __init__(self, dim):
        self.dim = dim
        self.name = f"funk({dim})"
        self.default_box = ("ball", 0.6)

    def fsq_at(self, x):
        om = 1.0 - _dot(x, x)
        rom = jets.reciprocal(om)

        def fsq(y):
            xy = _dot(x, y)
            f = (jets.sqrt(om * _dot(y, y) + xy * xy) + xy) * rom
            return f * f

        return fsq

    def admissible(self, point):
        return sum(v * v for v in point.x) < 1.0


class FourthRoot(FinslerMetric):
    """F^4 = a1^4 + 2c a1^2 a2^2 + a2^4 for flat factor norms a1, a2."""

    def __init__(self, n1, n2, c):
        self.n1 = n1
        self.n2 = n2
        self.c = float(c)
        self.dim = n1 + n2
        self.name = f"fourth-root({n1}+{n2}, c={c})"

    def fsq_at(self, x):
        def fsq(y):
            u2, v2 = _dot(y[:self.n1], y[:self.n1]), _dot(y[self.n1:], y[self.n1:])
            quartic = u2 * u2 + 2.0 * self.c * u2 * v2 + v2 * v2
            return jets.sqrt(quartic)

        return fsq


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

    def fsq_at(self, x):
        u = 1.0 + 4.0 * _dot(x, x)
        u2 = u * u
        four_u = 4.0 * u

        def fsq(y):
            xy = _dot(x, y)
            inner = xy if self.literal_inner else xy * xy
            alpha = jets.sqrt(u2 * _dot(y, y) - four_u * inner)
            f = (alpha + 2.0 * xy) * (alpha + 2.0 * xy) * jets.reciprocal(alpha)
            return f * f

        return fsq


# -- family registry ----------------------------------------------------------


def _param(family, params, key, want, ok, default=None):
    """``params[key]``, which must pass ``ok``; ``default`` if absent, required without one."""
    if key not in params and default is None:
        raise ConfigError(f"{family} needs a {key!r} parameter")
    value = params.get(key, default)
    if not ok(value):
        raise ConfigError(f"{family} parameter {key!r} must be {want}, got {value!r}")
    return value


def _expression(v):
    return isinstance(v, (str, ScalarField)) or finite_number(v)


def _nested(shape, entry):
    """Whether a value is nested lists of ``shape`` whose entries pass ``entry``."""
    if not shape:
        return entry
    inner = _nested(shape[1:], entry)
    return lambda v: isinstance(v, (list, tuple)) and len(v) == shape[0] and all(map(inner, v))


def _require_spd(family, key, a, given):
    """Refuse a constant matrix ``a`` that is not symmetric positive definite."""
    try:
        if not np.array_equal(a, a.T):
            raise np.linalg.LinAlgError("not symmetric")
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ConfigError(f"{family} parameter {key!r} must be a symmetric positive definite "
                          f"matrix, got {given!r}") from None


def _diagonal(dim, f):
    return [[f if i == j else 0.0 for j in range(dim)] for i in range(dim)]


def _build_euclidean(dim, params):
    identity = _diagonal(dim, 1.0)
    return Riemannian(dim, lambda x: identity, name=f"euclidean({dim})")


def _build_riemannian(dim, params):
    if dim is None:
        raise ConfigError("riemannian family needs an explicit dim")
    matrix = _param("riemannian", params, "matrix",
                    f"a {dim} x {dim} list of expressions or numbers",
                    _nested((dim, dim), _expression))
    # expression entries can only be checked per point
    if _nested((dim, dim), finite_number)(matrix):
        _require_spd("riemannian", "matrix", np.asarray(matrix, dtype=float), matrix)
    rows = [[as_field(entry, dim) for entry in row] for row in matrix]
    return Riemannian(dim, lambda x: [[entry(x) for entry in row] for row in rows])


def _build_round_sphere(dim, params):
    """Stereographic chart of the unit 2-sphere, Gauss curvature +1."""
    if dim != 2:
        raise ConfigError("round-sphere is a 2-dimensional chart")

    def matrix(x):
        s = 1.0 + x[0] * x[0] + x[1] * x[1]
        return _diagonal(2, 4.0 * jets.reciprocal(s * s))

    return Riemannian(2, matrix, name="round-sphere")


def _build_hyperbolic(dim, params):
    """Poincare ball model, sectional curvature -1."""
    if dim not in (2, 3):
        raise ConfigError("hyperbolic-ball supports dim 2 or 3")

    def matrix(x):
        s = 1.0
        for v in x:
            s = s - v * v
        return _diagonal(dim, 4.0 * jets.reciprocal(s * s))

    return Riemannian(dim, matrix, name=f"hyperbolic-ball({dim})", box=("ball", 0.6),
                      chart=lambda x: sum(v * v for v in x) < 1.0)


def _build_conformal(dim, params):
    """Metric e^{2 lam(x)} (dx1^2 + dx2^2) on the plane."""
    if dim != 2:
        raise ConfigError("conformal-flat-2d is 2-dimensional")
    lam = as_field(_param("conformal-flat-2d", params, "lam", "an expression or a number",
                          _expression, "x1^2"), 2)

    def matrix(x):
        return _diagonal(2, jets.exp(2.0 * lam(x)))

    return Riemannian(2, matrix, name="conformal-flat-2d")


def _generic_a(x):
    # x-dependent Randers data on n = 3 with non-closed b, |b|_a < 1
    d0 = jets.exp(0.2 * x[0])
    d1 = jets.exp(-0.15 * x[2])
    c = 0.1 * x[1]
    return [[d0, c, 0.0], [c, d1, 0.0], [0.0, 0.0, 1.0]]


def _generic_b(x):
    return [0.2 + 0.1 * x[1], 0.05 * x[0], -0.1]


def _build_randers(dim, params):
    preset = params.get("preset", "generic")
    if preset == "generic":
        for key in ("a", "b"):
            if key in params:
                raise ConfigError(f"randers parameter {key!r} needs preset=constant")
        if dim != 3:
            raise ConfigError("the generic randers preset is defined for dim 3")
        return Randers(3, _generic_a, _generic_b, name="randers(3)")
    if preset != "constant":
        raise ConfigError(f"unknown randers preset {preset!r}")
    a = np.asarray(_param("randers", params, "a", f"a {dim} x {dim} list of numbers",
                          _nested((dim, dim), finite_number), np.eye(dim).tolist()), dtype=float)
    b = np.asarray(_param("randers", params, "b", f"a list of {dim} numbers",
                          _nested((dim,), finite_number), [0.3] + [0.0] * (dim - 1)),
                   dtype=float)
    _require_spd("randers", "a", a, params.get("a"))
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = float(b @ np.linalg.solve(a, b))
    if not norm2 < 1.0:
        raise ConfigError(f"randers data violates |b|_a < 1: |b|_a^2 = {norm2:.6g}")
    return Randers(dim, lambda x: [[a[i, j] for j in range(dim)] for i in range(dim)],
                   lambda x: list(b), name=f"randers-constant({dim})")


def _build_funk(dim, params):
    return Funk(dim)


def _build_fourth_root(dim, params):
    n1, n2 = (_param("fourth-root", params, key, "an integer >= 1",
                     lambda v: finite_number(v) and isinstance(v, int) and v >= 1, 2)
              for key in ("n1", "n2"))
    if dim != n1 + n2:
        raise ConfigError(f"fourth-root dim must equal n1 + n2 = {n1 + n2}, got {dim}")
    c = _param("fourth-root", params, "c", "a number with 0 < c <= 1",
               lambda v: finite_number(v) and 0.0 < v <= 1.0, 0.5)
    return FourthRoot(n1, n2, float(c))


def _build_square(dim, params):
    return SquareMetric(dim, _param("square-metric", params, "literal_inner", "true or false",
                                    lambda v: isinstance(v, bool), False))


def _build_perturbation(dim, params):
    base = _param("projective-perturbation", params, "base", "a family name",
                  lambda b: isinstance(b, (str, MetricSpec, Spray)))
    if isinstance(base, (str, MetricSpec)):
        base = build(base if isinstance(base, MetricSpec) else MetricSpec(base, dim))
    oneform = _param("projective-perturbation", params, "oneform",
                     f"a list of {base.dim} expressions or numbers",
                     _nested((base.dim,), _expression))
    forms = [as_field(entry, base.dim) for entry in oneform]
    return PerturbedSpray(base, forms)


# family -> (builder, default dim, summary, parameter keys)
_FAMILIES = {
    "euclidean": (_build_euclidean, 3, "flat metric |y|", ()),
    "riemannian": (_build_riemannian, None, "F^2 = a_ij(x) y^i y^j from a matrix parameter",
                   ("matrix",)),
    "round-sphere": (_build_round_sphere, 2, "stereographic 2-sphere, curvature +1", ()),
    "hyperbolic-ball": (_build_hyperbolic, 2, "Poincare ball, curvature -1 (dim 2 or 3)", ()),
    "conformal-flat-2d": (_build_conformal, 2, "e^{2 lam(x)} (dx^2), param lam (default x1^2)",
                          ("lam",)),
    "randers": (_build_randers, 3, "sqrt(a_ij y^i y^j) + b_i y^i; presets generic | constant",
                ("preset", "a", "b")),
    "funk": (_build_funk, 3, "Funk metric of the unit ball", ()),
    "fourth-root": (_build_fourth_root, 4, "(a1^4 + 2c a1^2 a2^2 + a2^4)^{1/4}, params n1, n2, c",
                    ("n1", "n2", "c")),
    "square-metric": (_build_square, 3, "(alpha + beta)^2 / alpha on the quadratic chart",
                      ("literal_inner",)),
    "projective-perturbation": (_build_perturbation, None, "base spray plus (a_m(x) y^m) y^i",
                                ("base", "oneform")),
}


def family_names():
    return list(_FAMILIES)


def family_summary(name):
    builder, default_dim, summary, _ = _FAMILIES[name]
    return {"family": name, "default_dim": default_dim, "summary": summary}


def build(spec) -> Spray:
    """Build the metric or spray described by a MetricSpec (or family name)."""
    if isinstance(spec, str):
        spec = MetricSpec(spec)
    if spec.family not in _FAMILIES:
        raise ConfigError(
            f"unknown family {spec.family!r}; available: {', '.join(_FAMILIES)}"
        )
    builder, default_dim, _, keys = _FAMILIES[spec.family]
    for key in spec.params:
        if key not in keys:
            raise ConfigError(f"{spec.family} takes no parameter {key!r}; it takes "
                              f"{', '.join(keys) or 'none'}")
    dim = spec.dim if spec.dim is not None else default_dim
    if dim is not None and dim < 2:
        raise ConfigError("dim must be at least 2")
    built = builder(dim, dict(spec.params))
    built.spec = MetricSpec(spec.family, built.dim, dict(spec.params))
    return built


def _draw_x(rng, dim, box):
    kind, size = box
    if not 0 < size < np.inf:
        raise ConfigError(f"box size must be positive and finite, got {size}")
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
    if seed < 0:
        raise ConfigError(f"sampler seed must be at least 0, got {seed}")
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
