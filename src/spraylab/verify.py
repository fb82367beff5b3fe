"""Identity suite, theorem fixtures, and a finite-difference oracle.

Every registered check recomputes one relation by two independent routes
and reports the raw residual together with the magnitude of the compared
terms, so thresholds are relative with a small absolute floor for
quantities that vanish identically.  Tolerances come in two tiers: jet
identities hold to rounding, while anything that feeds on a quadrature
volume form inherits the quadrature error instead.

A suite run never aborts on a failing point; domain and budget errors at
a single point are recorded as infinite residuals and the run continues.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import catalog
from .catalog import MetricSpec
from .errors import ConfigError, SprayLabError
from .geometry import (DEFAULT_DEGREE, PerturbedSpray, SprayStack, TangentPoint,
                       spray_and_metric)
from .jets import Jet
from .measures import MeasureStack, VolumeForm, as_volume
from .projective import (PointContext, ProjectiveStack, einstein_wo_check,
                         volume_change)

__all__ = [
    "Tolerances",
    "CheckResult",
    "CheckAggregate",
    "SuiteReport",
    "IdentityCheck",
    "REGISTRY",
    "identity_suite",
    "theorem_check",
    "theorem_names",
    "fd_oracle",
]


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds per tier plus the shared absolute floor."""

    jet: float = 1e-7
    quad: float = 1e-4
    floor: float = 1e-9

    def __post_init__(self):
        # a negative or NaN threshold fails every check, an infinite one
        # passes every check; neither is a verdict about the geometry
        for name in ("jet", "quad", "floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"tolerance {name} must be a finite number >= 0, "
                                  f"got {value!r}")

    def pick(self, quadrature: bool) -> float:
        return self.quad if quadrature else self.jet


@dataclass(frozen=True)
class CheckResult:
    check: str
    point: TangentPoint
    residual: float
    scale: float
    tolerance: float
    floor: float
    passed: bool


@dataclass(frozen=True)
class CheckAggregate:
    """One check over many points, reduced to its worst offender."""

    check: str
    points: int
    max_residual: float
    scale: float
    tolerance: float
    floor: float
    worst_point: TangentPoint | None
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    metric: str
    volume: str
    seed: int | None
    degree: int
    tolerances: Tolerances
    checks: tuple[CheckAggregate, ...]
    results: tuple[CheckResult, ...]
    passed: bool
    # largest BH rule and last rule change over the points, for a
    # quadrature volume in the identity suite
    quadrature: dict | None = None

    def failures(self) -> list[CheckAggregate]:
        return [agg for agg in self.checks if not agg.passed]


def _maxabs(*arrays) -> float:
    out = 0.0
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.size:
            out = max(out, float(np.abs(a).max()))
    return out


def _result(check: str, point, residual, scale, tolerance, floor) -> CheckResult:
    residual = float(residual)
    scale = float(scale)
    passed = residual <= tolerance * scale + floor
    return CheckResult(check, point, residual, scale, tolerance, floor, passed)


def _ratio(r: CheckResult) -> float:
    """Residual over its threshold; a non-finite ratio ranks worst."""
    if r.residual == 0.0:
        return 0.0
    limit = r.tolerance * r.scale + r.floor
    ratio = r.residual / limit if limit else math.inf
    return ratio if math.isfinite(ratio) else math.inf


def _aggregate(check: str, results: list[CheckResult], tolerance, floor) -> CheckAggregate:
    if not results:
        return CheckAggregate(check, 0, 0.0, 0.0, tolerance, floor, None, True)
    worst = max(results, key=_ratio)
    passed = all(r.passed for r in results)
    return CheckAggregate(
        check, len(results), worst.residual, worst.scale, tolerance, floor,
        worst.point, passed,
    )


def _suite_report(metric: str, volume: str, seed, degree: int, tol: Tolerances,
                  groups: dict, results=None, quadrature=None) -> SuiteReport:
    """A report from insertion-ordered ``{check: (tolerance, results)}`` groups.

    ``results`` keeps the caller's order of the per-point results; by
    default they follow the groups.
    """
    checks = tuple(_aggregate(name, rs, t, tol.floor) for name, (t, rs) in groups.items())
    if results is None:
        results = [r for _, rs in groups.values() for r in rs]
    return SuiteReport(metric, volume, seed, degree, tol, checks, tuple(results),
                       all(agg.passed for agg in checks), quadrature)


def _spread(vals) -> tuple[float, float]:
    """Largest pairwise distance between routes, and their magnitude."""
    res = max(_maxabs(a - b) for a, b in itertools.combinations(vals, 2))
    return res, _maxabs(*vals)


# -- registered identities -----------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    fn: Callable[[PointContext], tuple[float, float]]
    uses_measure: bool = False
    needs_metric: bool = False
    min_dim: int = 2
    only_dim: int | None = None
    riemannian_only: bool = False

    def applies(self, metric, n: int) -> bool:
        """Whether the check is defined for this metric (or None) in dimension n."""
        if self.needs_metric and metric is None:
            return False
        if n < self.min_dim:
            return False
        if self.only_dim is not None and n != self.only_dim:
            return False
        if self.riemannian_only and not isinstance(
            metric, (catalog.Euclidean, catalog.Riemannian)
        ):
            return False
        return True


def _euler_metric(ctx):
    F = ctx.frame.F
    lhs = float(ctx.y @ F.gradient()[ctx.n:])
    return abs(lhs - F.value()), abs(F.value())


def _euler_fundamental(ctx):
    lhs = ctx.frame.g_values @ ctx.y
    return _maxabs(lhs - ctx.frame.ylow), _maxabs(lhs, ctx.frame.ylow)


def _euler_spray(ctx):
    st = ctx.stack
    G = st.G.value()
    lhs = st.N_values @ ctx.y
    return _maxabs(lhs - 2.0 * G), _maxabs(lhs, 2.0 * G)


def _euler_nonlinear(ctx):
    st = ctx.stack
    lhs = np.einsum("ijk,k->ij", st.Gamma_values, ctx.y)
    return _maxabs(lhs - st.N_values), _maxabs(lhs, st.N_values)


def _berwald_y_kill(ctx):
    st = ctx.stack
    con = np.einsum("ijkl,l->ijk", st.B_values, ctx.y)
    return _maxabs(con), _maxabs(st.B_values) * _maxabs(ctx.y) * ctx.n


def _rik_y_kill(ctx):
    st = ctx.stack
    return _maxabs(st.Rik_values @ ctx.y), _maxabs(st.Rik_values) * _maxabs(ctx.y) * ctx.n


def _r3_antisymmetric(ctx):
    r3 = ctx.stack.R3.value()
    return _maxabs(r3 + r3.transpose(0, 2, 1)), _maxabs(r3)


def _r3_contract(ctx):
    st = ctx.stack
    lhs = np.einsum("ikl,l->ik", st.R3.value(), ctx.y)
    return _maxabs(lhs - st.Rik_values), _maxabs(lhs, st.Rik_values)


def _r4_contract(ctx):
    st = ctx.stack
    r3 = st.R3.value()
    lhs = np.einsum("jikl,j->ikl", st.R4_values, ctx.y)
    return _maxabs(lhs - r3), _maxabs(lhs, r3)


def _t_traceless(ctx):
    tv = ctx.stack.T_values
    return abs(float(np.trace(tv))), _maxabs(tv) * ctx.n


def _t_y_kill(ctx):
    tv = ctx.stack.T_values
    return _maxabs(tv @ ctx.y), _maxabs(tv) * _maxabs(ctx.y) * ctx.n


def _riemannian_berwald(ctx):
    st = ctx.stack
    return _maxabs(st.B_values), 1.0 + _maxabs(st.Gamma_values)


def _y_parallel(ctx):
    st = ctx.stack
    cov = st.hcov_values(st.y_jets, contra=1)
    return _maxabs(cov), _maxabs(st.N_values) + _maxabs(ctx.y)


def _ricci_exchange_1(ctx):
    lhs = ctx.stack.Rscalar_h.gradient()[:, ctx.n:]
    rhs = ctx.stack.Rscalar_vhcov
    return _maxabs(lhs - rhs.T), _maxabs(lhs, rhs)


def _ricci_exchange_2(ctx):
    st = ctx.stack
    cov = st.Rscalar_hh
    rhs = np.einsum("l,lkm->km", st.Rscalar_v.value(), st.R3.value())
    return _maxabs(cov - cov.T - rhs), _maxabs(cov, rhs)


def _ricci_exchange_3(ctx):
    st = ctx.stack
    lhs = st.Rscalar_hh @ ctx.y
    mid = st.hcov_scalar_values((st.Rscalar_h * st.y_jets).einsum("m->"))
    rhs = st.Rscalar_v.value() @ st.Rik_values
    return _maxabs(lhs - mid - rhs), _maxabs(lhs, mid, rhs)


def _bianchi_contracted(ctx):
    st = ctx.stack
    rikcov = st.Rik_hcov
    r3cov = st.hcov_values(st.R3, contra=1)
    term = np.einsum("ipkl,l->ikp", r3cov, ctx.y)
    lhs = rikcov - rikcov.transpose(0, 2, 1) + term
    return _maxabs(lhs), _maxabs(rikcov, term)


def _s_homogeneous(ctx):
    S = ctx.measure.S
    lhs = float(ctx.y @ ctx.measure.S_v)
    return abs(lhs - S.value()), max(abs(lhs), abs(S.value()))


def _tau_homogeneous(ctx):
    t = ctx.measure.tau
    lhs = float(ctx.y @ t.gradient()[ctx.n:])
    return abs(lhs - 2.0 * t.value()), max(abs(lhs), 2.0 * abs(t.value()))


def _chi_y_kill(ctx):
    chi = ctx.measure.chi_values("fromR")
    return abs(float(chi @ ctx.y)), _maxabs(chi) * _maxabs(ctx.y) * ctx.n


def _chi_routes(ctx):
    return _spread([ctx.measure.chi_values(route) for route in MeasureStack.CHI_ROUTES])


def _s_volume_change(ctx):
    n = ctx.n
    change = volume_change("0.1*x1*x2", ctx.measure)
    s_tilde = ctx.measure.rescaled("0.1*x1*x2").S.value()
    lhs = ctx.measure.S.value()
    rhs = s_tilde - (n + 1.0) * change.f0
    scale = max(abs(lhs), abs(s_tilde), (n + 1.0) * abs(change.f0))
    return abs(lhs - rhs), scale


def _hat_ricci_scalar(ctx):
    lhs = ctx.proj.Rhat.value()
    rhs = ctx.stack.Rscalar.value() + ctx.measure.tau.value()
    return abs(lhs - rhs), max(abs(lhs), abs(ctx.stack.Rscalar.value()),
                               abs(ctx.measure.tau.value()))


def _hat_ricci_tensor(ctx):
    n = ctx.n
    tau = ctx.measure.tau
    taud = tau.gradient()[n:]
    chi = ctx.measure.chi_values("fromR")
    rhs = (
        ctx.stack.Rik_values
        + tau.value() * np.eye(n)
        + np.outer(ctx.y, -0.5 * taud + (3.0 / (n + 1.0)) * chi)
    )
    lhs = ctx.proj.hat.Rik_values
    return _maxabs(lhs - rhs), _maxabs(lhs, ctx.stack.Rik_values) + abs(tau.value())


def _chi_compact_form(ctx):
    sk = ctx.stack.hcov_scalar_values(ctx.measure.S)
    lhs = 0.5 * (ctx.measure.S0.gradient()[ctx.n:] - 2.0 * sk)
    rhs = ctx.measure.chi_values("fromR")
    return _maxabs(lhs - rhs), _maxabs(lhs, rhs, sk)


def _chi_curvature_trace(ctx):
    n = ctx.n
    st = ctx.stack
    lhs = np.einsum("mim->i", st.Rik.gradient()[..., n:])
    chi = ctx.measure.chi_values("fromR")
    rhs = -3.0 * chi - 0.5 * (n - 1.0) * st.Rscalar_v.value()
    return _maxabs(lhs - rhs), _maxabs(lhs, rhs)


def _hat_s_zero(ctx):
    s_hat = ctx.proj.hat_measure.S.value()
    scale = max(abs(ctx.measure.S.value()), abs(float(np.trace(ctx.stack.N_values))))
    return abs(s_hat), scale


def _hat_chi_zero(ctx):
    chi_hat = ctx.proj.hat_measure.chi_values("fromR")
    return _maxabs(chi_hat), _maxabs(ctx.proj.hat.Rik_values)


def _hat_nonlinear(ctx):
    n = ctx.n
    S = ctx.measure.S
    rhs = ctx.stack.N_values - (
        S.value() * np.eye(n) + np.outer(ctx.y, ctx.measure.S_v)
    ) / (n + 1.0)
    lhs = ctx.proj.hat.N_values
    return _maxabs(lhs - rhs), _maxabs(lhs, ctx.stack.N_values)


def _hat_berwald(ctx):
    n = ctx.n
    sd = ctx.measure.S_v
    sdd = ctx.measure.S.grad(ctx.stack.ys).gradient()[:, n:]
    eye = np.eye(n)
    # sd_k d^i_j + sd_j d^i_k + sdd_jk y^i
    corr = (np.einsum("ij,k->ijk", eye, sd) + np.einsum("ik,j->ijk", eye, sd)
            + np.einsum("i,kj->ijk", ctx.y, sdd))
    rhs = ctx.stack.Gamma_values - corr / (n + 1.0)
    lhs = ctx.proj.hat.Gamma_values
    return _maxabs(lhs - rhs), _maxabs(lhs, ctx.stack.Gamma_values)


def _transfer_residual(ctx, f: Jet) -> tuple[float, float]:
    # f_{||k} = f_{|k} + Y(f) S_{.k}/(n+1) + S f_{.k}/(n+1)
    n = ctx.n
    st = ctx.stack
    Yf = st.euler_field(f).value()
    lhs = ctx.proj.hat.hgrad(f).value()
    rhs = st.hcov_scalar_values(f) + (
        Yf * ctx.measure.S_v + ctx.measure.S.value() * f.gradient()[n:]) / (n + 1.0)
    return _maxabs(lhs - rhs), _maxabs(lhs, rhs)


def _hat_scalar_transfer(ctx):
    return _transfer_residual(ctx, ctx.stack.Ric)


def _hat_frame_transfer(ctx):
    return _transfer_residual(ctx, ctx.stack.N.einsum("mm->"))


def _weyl_routes(ctx):
    a = ctx.proj.weyl_values("viaHat")
    b = ctx.proj.weyl_values("viaChi")
    return _maxabs(a - b), _maxabs(a, b)


def _weyl_traceless(ctx):
    wv = ctx.proj.weyl_values("viaHat")
    return abs(float(np.trace(wv))), _maxabs(wv) * ctx.n


def _weyl_y_kill(ctx):
    wv = ctx.proj.weyl_values("viaHat")
    return _maxabs(wv @ ctx.y), _maxabs(wv) * _maxabs(ctx.y) * ctx.n


def _weyl_2d(ctx):
    wv = ctx.proj.weyl_values("viaHat")
    return _maxabs(wv), _maxabs(ctx.stack.Rik_values) + abs(ctx.stack.Rscalar.value())


def _wo_routes(ctx):
    routes = ["definition", "viaBase", "divR"]
    if ctx.n >= 3:
        routes.append("divW")
    return _spread([ctx.proj.wo_values(route) for route in routes])


def _wo_rewrite(ctx):
    # W^o_k = (3 Rhat_{||k} - (Rhat_{||m} y^m)_{.k}) / 2
    hat = ctx.proj.hat
    hk = hat.hgrad(ctx.proj.Rhat)
    h0 = (hk * hat.y_jets).einsum("m->")
    alt = 0.5 * (3.0 * hk.value() - h0.gradient()[ctx.n:])
    wo = ctx.proj.wo_values("definition")
    return _maxabs(alt - wo), _maxabs(alt, wo)


def _wo_y_kill(ctx):
    wo = ctx.proj.wo_values("definition")
    return abs(float(wo @ ctx.y)), _maxabs(wo) * _maxabs(ctx.y) * ctx.n


def _ricci_divergence(ctx):
    n = ctx.n
    first, second, third = ctx.proj.base_pieces
    rik_div = np.einsum("mkm->k", ctx.stack.Rik_hcov)
    lhs = first - 0.5 * second - (third + rik_div) / (n - 1.0)
    return _maxabs(lhs), _maxabs(first, 0.5 * second, third / (n - 1.0),
                                 rik_div / (n - 1.0))


def _weyl_divergence(ctx):
    n = ctx.n
    lhs = ctx.proj.weyl_div
    first, second, third = ctx.proj.base_pieces
    rhs = (n - 2.0) * (first - 0.5 * second - third / (n + 1.0))
    return _maxabs(lhs - rhs), _maxabs(lhs, rhs)


def _perturbation_forms(n: int):
    def mk(m):
        return lambda xs: 0.01 * (m + 1) + 0.05 * xs[(m + 1) % n]

    return [mk(m) for m in range(n)]


def _projective_invariance(ctx):
    pert = PerturbedSpray(ctx.spray, _perturbation_forms(ctx.n))
    pstack = SprayStack(ctx.point, pert.perturb(ctx.stack.G, ctx.point))
    pproj = ProjectiveStack(MeasureStack(pstack, ctx.measure.lnsigma_x))
    w0 = ctx.proj.weyl_values("viaHat")
    w1 = pproj.weyl_values("viaHat")
    wo0 = ctx.proj.wo_values("definition")
    wo1 = pproj.wo_values("definition")
    res = max(_maxabs(w1 - w0), _maxabs(wo1 - wo0))
    return res, _maxabs(w0, w1, wo0, wo1)


def _flatness_residual(proj: ProjectiveStack, f) -> tuple[float, float]:
    # W^o_k = W^m_k f_m  iff  W^m_{k|m} = (n-2) W^m_k Xi_{.m}
    # with Xi_{.m} = S_{.m}/(n+1) + f_m; the gaps are proportional by n-2.
    (b, c), (_, _, div, wxi) = proj.flatness_gaps(volume_change(f, proj.measure).fm)
    nb = (proj.n - 2.0) * b
    return _maxabs(c - nb), _maxabs(div, wxi, nb)


def _flatness_equivalence(ctx):
    return _flatness_residual(ctx.proj, "0.1*x1*x2")


REGISTRY: tuple[IdentityCheck, ...] = (
    IdentityCheck("euler-metric", _euler_metric, needs_metric=True),
    IdentityCheck("euler-fundamental", _euler_fundamental, needs_metric=True),
    IdentityCheck("euler-spray", _euler_spray),
    IdentityCheck("euler-nonlinear", _euler_nonlinear),
    IdentityCheck("berwald-y-kill", _berwald_y_kill),
    IdentityCheck("rik-y-kill", _rik_y_kill),
    IdentityCheck("r3-antisymmetric", _r3_antisymmetric),
    IdentityCheck("r3-contract", _r3_contract),
    IdentityCheck("r4-contract", _r4_contract),
    IdentityCheck("t-traceless", _t_traceless),
    IdentityCheck("t-y-kill", _t_y_kill),
    IdentityCheck("riemannian-berwald", _riemannian_berwald,
                  needs_metric=True, riemannian_only=True),
    IdentityCheck("y-parallel", _y_parallel),
    IdentityCheck("ricci-exchange-1", _ricci_exchange_1),
    IdentityCheck("ricci-exchange-2", _ricci_exchange_2),
    IdentityCheck("ricci-exchange-3", _ricci_exchange_3),
    IdentityCheck("bianchi-contracted", _bianchi_contracted),
    IdentityCheck("s-homogeneous", _s_homogeneous, uses_measure=True),
    IdentityCheck("tau-homogeneous", _tau_homogeneous, uses_measure=True),
    IdentityCheck("chi-y-kill", _chi_y_kill),
    IdentityCheck("chi-routes", _chi_routes, uses_measure=True),
    IdentityCheck("s-volume-change", _s_volume_change, uses_measure=True),
    IdentityCheck("hat-ricci-scalar", _hat_ricci_scalar, uses_measure=True),
    IdentityCheck("hat-ricci-tensor", _hat_ricci_tensor, uses_measure=True),
    IdentityCheck("chi-compact-form", _chi_compact_form, uses_measure=True),
    IdentityCheck("chi-curvature-trace", _chi_curvature_trace),
    IdentityCheck("hat-s-zero", _hat_s_zero, uses_measure=True),
    IdentityCheck("hat-chi-zero", _hat_chi_zero, uses_measure=True),
    IdentityCheck("hat-nonlinear", _hat_nonlinear, uses_measure=True),
    IdentityCheck("hat-berwald", _hat_berwald, uses_measure=True),
    IdentityCheck("hat-scalar-transfer", _hat_scalar_transfer, uses_measure=True),
    IdentityCheck("hat-frame-transfer", _hat_frame_transfer, uses_measure=True),
    IdentityCheck("weyl-routes", _weyl_routes, uses_measure=True),
    IdentityCheck("weyl-traceless", _weyl_traceless, uses_measure=True),
    IdentityCheck("weyl-y-kill", _weyl_y_kill, uses_measure=True),
    IdentityCheck("weyl-2d", _weyl_2d, uses_measure=True, only_dim=2),
    IdentityCheck("wo-routes", _wo_routes, uses_measure=True),
    IdentityCheck("wo-rewrite", _wo_rewrite, uses_measure=True),
    IdentityCheck("wo-y-kill", _wo_y_kill, uses_measure=True),
    IdentityCheck("ricci-divergence", _ricci_divergence),
    IdentityCheck("weyl-divergence", _weyl_divergence, min_dim=3),
    IdentityCheck("projective-invariance", _projective_invariance, uses_measure=True),
    IdentityCheck("flatness-equivalence", _flatness_equivalence,
                  uses_measure=True, min_dim=3),
)


def check_names() -> list[str]:
    return [check.name for check in REGISTRY]


# -- suite runner ---------------------------------------------------------------


def _resolve_points(obj, points, seed, box):
    if isinstance(points, int):
        return catalog.sample(obj, count=points, seed=seed, box=box), seed
    pts = [p if isinstance(p, TangentPoint) else TangentPoint(*p) for p in points]
    if not pts:
        raise ConfigError("the identity suite needs at least one point")
    for p in pts:
        if p.dim != obj.dim:
            raise ConfigError(f"point x={p.x} has dimension {p.dim} but "
                              f"{getattr(obj, 'name', obj)} has dimension {obj.dim}")
    return pts, None


def identity_suite(spec, volume=None, points=20, tolerances=None, *,
                   seed=0, degree=DEFAULT_DEGREE, box=None,
                   checks=None) -> SuiteReport:
    """Run every applicable registered identity at sampled points.

    ``spec`` may be a family name, a MetricSpec, a metric, or a spray;
    ``points`` is a sample count or an explicit list of tangent points.
    A failing point never aborts the run: domain or budget errors are
    recorded as infinite residuals on the affected checks.  The default
    jet degree is the smallest that feeds every registered identity.
    """
    obj = catalog.build(spec) if isinstance(spec, (str, MetricSpec)) else spec
    metric = spray_and_metric(obj)[1]
    volume = as_volume(volume)
    tolerances = tolerances if tolerances is not None else Tolerances()
    selected = list(REGISTRY if checks is None else
                    [c for c in REGISTRY if c.name in set(checks)])
    if checks is not None and len(selected) < len(set(checks)):
        known = {c.name for c in REGISTRY}
        missing = sorted(set(checks) - known)
        raise ConfigError(f"unknown checks: {', '.join(missing)}")
    applicable = [c for c in selected if c.applies(metric, obj.dim)]
    if checks is not None and len(applicable) < len(selected):
        # a selected check that never runs would pass with zero points
        idle = [c.name for c in selected if c not in applicable]
        raise ConfigError(f"checks that do not apply to {obj.name} in dimension "
                          f"{obj.dim}: {', '.join(idle)}")
    pts, seed = _resolve_points(obj, points, seed, box)
    # a volume no selected check reads must still be one that can be built
    volume.validate(obj.dim)

    quad = volume.uses_quadrature
    groups = {c.name: (tolerances.pick(quad and c.uses_measure), []) for c in selected}
    rules = []
    for point in pts:
        ctx = PointContext(obj, volume, point, degree)
        for check in applicable:
            tol, results = groups[check.name]
            try:
                residual, scale = check.fn(ctx)
            except ConfigError:
                raise
            except (SprayLabError, FloatingPointError):
                residual, scale = math.inf, 1.0
            results.append(_result(check.name, point, residual, scale, tol, tolerances.floor))
        rules.extend(ctx.rules)
    quadrature = None
    if quad:
        changes = [change for _, change in rules if change is not None]
        quadrature = {"bh_nodes": max((nodes for nodes, _ in rules), default=None),
                      "bh_change": max(changes, default=None)}
    return _suite_report(getattr(obj, "name", str(obj)), volume.describe(), seed,
                         degree, tolerances, groups, quadrature=quadrature)


# -- theorem fixtures -------------------------------------------------------------


def _fixture(family, dim, opts, default_count, seed_offset=0, params=None):
    """A catalog fixture and its sample points (``default_count`` unless given)."""
    metric = catalog.build(MetricSpec(family, dim, params or {}))
    count = default_count if opts["points"] is None else opts["points"]
    return metric, catalog.sample(metric, count=count, seed=opts["seed"] + seed_offset)


def _wo_zero(label: str, point, ms: MeasureStack, tol, quad: bool, at_least=0.0) -> CheckResult:
    """W^o = 0 under the volume of ``ms``, scaled by its two defining terms."""
    proj = ProjectiveStack(ms)
    return _result(label, point, _maxabs(proj.wo_values("definition")),
                   max(_maxabs(*proj.wo_terms), at_least), tol.pick(quad), tol.floor)


def _theorem_volumes(override, nodes):
    if override is not None:
        return [as_volume(override, nodes)]
    return [
        VolumeForm.coordinate(),
        VolumeForm.explicit("exp(0.1*x2)"),
        VolumeForm.busemann_hausdorff(nodes),
    ]


def _thm12(opts, tol):
    """Scalar-curvature spray: W^o vanishes for every volume form."""
    metric, pts = _fixture("funk", 3, opts, 20)
    volumes = _theorem_volumes(opts["volume"], opts["nodes"])
    # one context per point serves every volume; results stay grouped by volume
    per_volume = [[] for _ in volumes]
    for point in pts:
        ctx = PointContext(metric, None, point, opts["degree"])
        for vol, rs in zip(volumes, per_volume):
            rs.append(_wo_zero(f"thm12:funk:{vol.kind}", point, ctx.measure_for(vol),
                               tol, vol.uses_quadrature))
    results = [r for rs in per_volume for r in rs]
    if opts["volume"] is not None:
        return results, volumes[0].describe()
    return results, "coordinate, explicit, busemann-hausdorff"


def _thm15(opts, tol):
    """Einstein with constant S-curvature: W^o vanishes under the BH form."""
    results = []
    vol = VolumeForm.busemann_hausdorff(opts["nodes"])
    t = tol.pick(True)

    funk, pts = _fixture("funk", 3, opts, 6)
    for point in pts:
        ctx = PointContext(funk, vol, point, opts["degree"])
        ms = ctx.measure
        s_val, f_val = ms.S.value(), ctx.frame.F.value()
        results.append(_result("thm15:funk:constant-s", point,
                               abs(s_val - 2.0 * f_val),
                               max(abs(s_val), 2.0 * f_val), t, tol.floor))
        results.append(_wo_zero("thm15:funk:wo-zero", point, ms, tol, True))

    ball, pts = _fixture("hyperbolic-ball", 3, opts, 6, seed_offset=1)
    for point in pts:
        ctx = PointContext(ball, vol, point, opts["degree"])
        st, ms = ctx.stack, ctx.measure
        scale_s = max(abs(float(np.trace(st.N_values))), 1.0)
        results.append(_result("thm15:hyperbolic:constant-s", point,
                               abs(ms.S.value()), scale_s, t, tol.floor))
        results.append(_wo_zero("thm15:hyperbolic:wo-zero", point, ms, tol, True))
    return results, vol.describe()


def _cor14(opts, tol):
    """In dimension two W^o does not depend on the volume form."""
    metric, pts = _fixture("conformal-flat-2d", 2, opts, 12)
    volumes = _theorem_volumes(opts["volume"], opts["nodes"])
    if len(volumes) < 2:
        volumes.append(VolumeForm.coordinate()
                       if volumes[0].kind != "coordinate"
                       else VolumeForm.explicit("exp(0.1*x2)"))
    t = tol.pick(any(v.uses_quadrature for v in volumes))
    results = []
    for point in pts:
        ctx = PointContext(metric, None, point, opts["degree"])
        res, scale = _spread([ProjectiveStack(ctx.measure_for(vol)).wo_values("definition")
                              for vol in volumes])
        results.append(_result("cor14:volume-independence", point, res, scale, t, tol.floor))
    return results, ", ".join(v.describe() for v in volumes)


def _cor33(opts, tol):
    """Constant flag curvature surfaces have W^o = 0."""
    results = []
    volumes = [VolumeForm.coordinate(), VolumeForm.busemann_hausdorff(opts["nodes"])]
    for family, offset in (("round-sphere", 0), ("hyperbolic-ball", 1)):
        metric, pts = _fixture(family, 2, opts, 8, seed_offset=offset)
        for point in pts:
            ctx = PointContext(metric, None, point, opts["degree"])
            for vol in volumes:
                results.append(_wo_zero(f"cor33:{family}:{vol.kind}", point,
                                        ctx.measure_for(vol), tol, vol.uses_quadrature,
                                        at_least=abs(ctx.stack.Rscalar.value())))
    return results, "coordinate, busemann-hausdorff"


def _prop32(opts, tol):
    """Einstein surface under BH: W^o_k = F^3 (theta/F)_{.k}."""
    t = tol.pick(True)
    results = []
    for family in ("conformal-flat-2d", "round-sphere"):
        metric, pts = _fixture(family, 2, opts, 8)
        for point in pts:
            check = einstein_wo_check(metric, point, degree=opts["degree"],
                                      nodes=opts["nodes"])
            scale = _maxabs(check.wo, check.predicted)
            results.append(_result(f"prop32:{family}", point, check.residual,
                                   scale, t, tol.floor))
    return results, "busemann-hausdorff"


def _thm43(opts, tol):
    """The two volume-flatness conditions fail or hold together."""
    metric, pts = _fixture("randers", 3, opts, 6)
    volume = as_volume(opts["volume"], opts["nodes"])
    t = tol.pick(volume.uses_quadrature)
    by_f: dict[str | None, list[CheckResult]] = {"0.1*x1*x2": [], "0.05*x3": [], None: []}
    for point in pts:
        proj = PointContext(metric, volume, point, opts["degree"]).proj
        for f, results in by_f.items():
            res, scale = _flatness_residual(proj, f)
            results.append(_result(f"thm43:f={f or '0'}", point, res, scale, t, tol.floor))
    return [r for results in by_f.values() for r in results], volume.describe()


def _ex17(opts, tol):
    """Fourth-root metric with flat factors: everything vanishes."""
    metric, pts = _fixture("fourth-root", 4, opts, 5, params={"c": 0.5})
    vol = VolumeForm.busemann_hausdorff(min(opts["nodes"], 16))
    t = tol.pick(True)
    results = []
    for point in pts:
        ctx = PointContext(metric, vol, point, opts["degree"])
        st, ms = ctx.stack, ctx.measure
        results.append(_result("ex17:berwald-flat", point, _maxabs(st.B_values),
                               1.0 + _maxabs(st.Gamma_values), t, tol.floor))
        results.append(_result("ex17:ricci-flat", point, _maxabs(st.Rik_values),
                               1.0 + _maxabs(st.N_values), t, tol.floor))
        results.append(_result("ex17:s-zero", point, abs(ms.S.value()),
                               1.0, t, tol.floor))
        results.append(_wo_zero("ex17:wo-zero", point, ms, tol, True, at_least=1.0))
    return results, vol.describe()


def _ex45(opts, tol):
    """Square metric with the quadratic conformal factor.

    The metric is Ricci-flat and of scalar curvature, hence W^o vanishes
    for every volume form, and its S-curvature is not isotropic.  The
    stronger gate - a catalog volume form making the projective spray
    Ricci-flat - fails at every tried volume, and that failure is
    reported as a failing aggregate rather than suppressed.
    """
    metric, pts = _fixture("square-metric", 3, opts, 4)
    nodes = min(opts["nodes"], 32)
    results = []
    gate_vols = [
        VolumeForm.coordinate(),
        VolumeForm.explicit("exp(0.1*x1)"),
        VolumeForm.busemann_hausdorff(nodes),
    ]
    for point in pts:
        ctx = PointContext(metric, None, point, opts["degree"])
        st, fsq = ctx.stack, ctx.frame.fsq.value()
        wv = ctx.proj.weyl_values("viaChi")
        results.append(_result("ex45:scalar-curvature", point, _maxabs(wv),
                               fsq, tol.pick(False), tol.floor))
        projs = [ProjectiveStack(ctx.measure_for(vol)) for vol in gate_vols]
        for vol, proj in zip(gate_vols[::2], projs[::2]):  # coordinate and BH
            wo = proj.wo_values("definition")
            results.append(_result(f"ex45:wo-zero:{vol.kind}", point, _maxabs(wo),
                                   fsq ** 1.5, tol.pick(vol.uses_quadrature), tol.floor))
        best = min(projs, key=lambda proj: abs(proj.Rhat.value()))
        scale = max(abs(st.Rscalar.value()), abs(best.measure.tau.value()))
        results.append(_result("ex45:projective-ricci-flat-gate", point,
                               abs(best.Rhat.value()), scale, tol.pick(True), tol.floor))

    x = pts[0].x
    dirs = [(1.0, 0.4, -0.3), (-0.5, 1.0, 0.8), (0.2, -0.9, 1.0)]
    ratios = []
    # sigma_BH depends on x alone, so the three directions share one density
    degree = 4
    lnsigma = VolumeForm.busemann_hausdorff(nodes).lnsigma_jet(metric, x, degree - 2)
    for y in dirs:
        ctx = PointContext(metric, None, TangentPoint(x, y), degree)
        ratios.append(MeasureStack(ctx.stack, lnsigma).S.value() / ctx.frame.F.value())
    spread = max(ratios) - min(ratios)
    results.append(_result("ex45:anisotropic-s", pts[0],
                           max(0.0, 0.01 - spread), 1.0,
                           tol.pick(True), tol.floor))
    return results, "coordinate, explicit, busemann-hausdorff"


_THEOREMS: dict[str, tuple[Callable, str]] = {
    "thm12": (_thm12, "scalar-curvature spray has W^o = 0 for every volume"),
    "thm15": (_thm15, "Einstein + constant S under BH volume has W^o = 0"),
    "cor14": (_cor14, "surfaces: W^o does not depend on the volume form"),
    "cor33": (_cor33, "constant flag curvature surfaces have W^o = 0"),
    "prop32": (_prop32, "Einstein surface: W^o matches F^3 (theta/F)_{.k}"),
    "thm43": (_thm43, "the two volume-flatness conditions are equivalent"),
    "ex17": (_ex17, "fourth-root metric with flat factors is fully flat"),
    "ex45": (_ex45, "square metric is BWeyl-flat but fails the Ricci gate"),
}


# the conclusions that hold for every volume form; the others fix theirs by hypothesis
_TAKES_VOLUME = ("thm12", "cor14", "thm43")


def theorem_names() -> list[str]:
    return list(_THEOREMS)


def _theorem(name: str) -> tuple[Callable, str]:
    if name not in _THEOREMS:
        raise ConfigError(
            f"unknown theorem {name!r}; available: {', '.join(_THEOREMS)}"
        )
    return _THEOREMS[name]


def theorem_summary(name: str) -> str:
    return _theorem(name)[1]


def theorem_check(name: str, *, points=None, seed=0, degree=DEFAULT_DEGREE,
                  nodes=64, volume=None, tolerances=None) -> SuiteReport:
    """Run one named conclusion on its designated catalog fixture(s).

    ``volume`` replaces the volume forms of thm12, cor14 and thm43; the other
    conclusions fix theirs by hypothesis and refuse one with a ``ConfigError``.
    """
    fn, _ = _theorem(name)
    if volume is not None and name not in _TAKES_VOLUME:
        raise ConfigError(f"theorem {name} fixes its volume forms; only "
                          f"{', '.join(_TAKES_VOLUME)} take a volume")
    tol = tolerances if tolerances is not None else Tolerances()
    opts = {"points": points, "seed": seed, "degree": degree,
            "nodes": nodes, "volume": volume}
    results, volume_desc = fn(opts, tol)
    groups: dict[str, tuple[float, list[CheckResult]]] = {}
    for r in results:
        groups.setdefault(r.check, (r.tolerance, []))[1].append(r)
    return _suite_report(name, volume_desc, seed, degree, tol, groups, results)


# -- finite-difference oracle ----------------------------------------------------

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
