"""Identity suite and theorem records.

Every registered check recomputes one relation by two independent routes
and reports the raw residual together with the magnitude of the compared
terms, so thresholds are relative with a small absolute floor for
quantities that vanish identically.  Tolerances come in two tiers: jet
identities hold to rounding, while anything that feeds on a quadrature
volume form inherits the quadrature error instead.

A report holds one aggregate per check that ran, with the residual and
scale of its worst point, the one of largest residual / (tolerance * scale
+ floor).  A ratio of at most ``RANK_RATIO`` is rounding noise and ranks no
point, so among such points the first in sample order is reported.

``verify`` and ``theorem`` share one point loop and one error policy.  At
each point every source, a registered check or a theorem's fixture, gives
its rows; a domain error in a source (a SprayLabError not named below, or a
FloatingPointError) gives one infinite residual under its label, and the
run continues.  A ConfigError ends the run, and so does an
AdmissibilityError: a point outside the metric's own gates (its chart,
F^2 > 0, a positive definite fundamental tensor) or where the volume's sigma
is not positive.  A DegreeBudgetError becomes a ConfigError naming the
degree and the check or theorem it starved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import catalog
from .catalog import MetricSpec
from .errors import (AdmissibilityError, ConfigError, DegreeBudgetError, SprayLabError,
                     degree_too_low)
from .geometry import (DEFAULT_DEGREE, FinslerMetric, MetricFrame, PerturbedSpray,
                       SprayStack, TangentPoint, as_spray)
from .jets import Jet
from .measures import MeasureStack, VolumeForm, as_volume
from .projective import PointContext, ProjectiveStack, einstein_wo, volume_change

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
]

# a residual of at most this fraction of its limit is rounding noise; in the
# catalog's reports rounding reaches about 1e-4 of the limit
RANK_RATIO = 1e-2


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds per tier plus the shared absolute floor, the same for every run."""

    jet: float = 1e-7
    quad: float = 1e-4
    floor: float = 1e-9

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
    """One check over its points, reduced to its worst point (see the module docstring)."""

    check: str
    points: int
    residual: float
    scale: float
    tolerance: float
    floor: float
    worst_point: TangentPoint
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
    # bh_nodes and bh_change, the largest BH rule and last rule change over
    # the points, when a volume of the run is Busemann-Hausdorff
    quadrature: dict | None

    def failures(self) -> list[CheckAggregate]:
        return [agg for agg in self.checks if not agg.passed]


def _maxabs(*arrays) -> float:
    """The largest magnitude over all entries, 0.0 for none; a NaN entry gives NaN."""
    # reduced in Python: np.max over a list costs 4 us more per call, 77 calls a funk-4 point
    out = 0.0
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.size:
            peak = float(np.abs(a).max())
            if peak > out or math.isnan(peak):
                out = peak
    return out


def _result(check: str, point, residual, scale, tolerance, floor) -> CheckResult:
    residual = float(residual)
    scale = float(scale)
    passed = residual <= tolerance * scale + floor
    return CheckResult(check, point, residual, scale, tolerance, floor, passed)


def _rank(r: CheckResult) -> float:
    """Residual over its limit, 0 up to RANK_RATIO; a NaN or infinite ratio ranks worst."""
    limit = r.tolerance * r.scale + r.floor
    ratio = r.residual / limit if limit else (math.inf if r.residual else 0.0)
    if math.isnan(ratio):
        return math.inf
    return ratio if ratio > RANK_RATIO else 0.0


def _aggregate(results: list[CheckResult]) -> CheckAggregate:
    """One check's results, which share its tolerance and floor."""
    worst = max(results, key=_rank)  # the first of equal ranks
    return CheckAggregate(worst.check, len(results), worst.residual, worst.scale,
                          worst.tolerance, worst.floor, worst.point,
                          all(r.passed for r in results))


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
    # the class the context's metric must be, if the check reads one
    needs: type | None = None
    min_dim: int = 2
    only_dim: int | None = None

    def applies(self, metric, n: int) -> bool:
        """Whether the check is defined for this metric (or None) in dimension n."""
        if self.needs is not None and not isinstance(metric, self.needs):
            return False
        if n < self.min_dim:
            return False
        if self.only_dim is not None and n != self.only_dim:
            return False
        return True


def _euler_metric(ctx):
    F = ctx.frame.F
    lhs = float(ctx.y @ F.gradient(ctx.frame.ys))
    return abs(lhs - F.value()), abs(F.value())


def _euler_fundamental(ctx):
    lhs = ctx.frame.g_values @ ctx.y
    return _spread([lhs, ctx.frame.ylow])


def _euler_spray(ctx):
    st = ctx.stack
    G = st.G.value()
    lhs = st.N.value() @ ctx.y
    return _spread([lhs, 2.0 * G])


def _euler_nonlinear(ctx):
    st = ctx.stack
    lhs = np.einsum("ijk,k->ij", st.Gamma.value(), ctx.y)
    return _spread([lhs, st.N.value()])


def _kills_y(ctx, t, t_y):
    """|t y|, the contraction ``t_y`` of tensor ``t`` with y, against |t| |y| n."""
    return _maxabs(t_y), _maxabs(t) * _maxabs(ctx.y) * ctx.n


def _traceless(ctx, t):
    """|tr t| against |t| n."""
    return abs(float(np.trace(t))), _maxabs(t) * ctx.n


def _berwald_y_kill(ctx):
    b = ctx.stack.B_values
    return _kills_y(ctx, b, np.einsum("ijkl,l->ijk", b, ctx.y))


def _rik_y_kill(ctx):
    rik = ctx.stack.Rik.value()
    return _kills_y(ctx, rik, rik @ ctx.y)


def _r3_contract(ctx):
    st = ctx.stack
    lhs = np.einsum("ikl,l->ik", st.R3.value(), ctx.y)
    return _spread([lhs, st.Rik.value()])


def _r4_contract(ctx):
    st = ctx.stack
    r3 = st.R3.value()
    lhs = np.einsum("jikl,j->ikl", st.R4_values, ctx.y)
    return _spread([lhs, r3])


def _t_traceless(ctx):
    return _traceless(ctx, ctx.stack.T.value())


def _t_y_kill(ctx):
    tv = ctx.stack.T.value()
    return _kills_y(ctx, tv, tv @ ctx.y)


def _geodesic_spray(ctx):
    # F_{|k} = F_{x^k} - N^l_k F_{.l} = 0 for the spray of F (Shen 2001)
    st, F = ctx.frame.stack, ctx.frame.F
    nfy = F.gradient(st.ys) @ st.N.value()
    return _maxabs(st.hgrad(F).value()), _maxabs(F.gradient(st.xs), nfy)


def _riemannian_berwald(ctx):
    st = ctx.stack
    return _maxabs(st.B_values), 1.0 + _maxabs(st.Gamma.value())


def _y_parallel(ctx):
    st = ctx.stack
    cov = st.hcov_values(st.y_jets, contra=1)
    return _maxabs(cov), _maxabs(st.N.value()) + _maxabs(ctx.y)


def _ricci_exchange_1(ctx):
    lhs = ctx.stack.Rscalar_h.gradient(ctx.stack.ys)
    rhs = ctx.stack.Rscalar_vhcov
    return _spread([lhs, rhs.T])


def _ricci_exchange_2(ctx):
    st = ctx.stack
    cov = st.Rscalar_hh
    rhs = np.einsum("l,lkm->km", st.Rscalar_v.value(), st.R3.value())
    return _maxabs(cov - cov.T - rhs), _maxabs(cov, rhs)


def _ricci_exchange_3(ctx):
    st = ctx.stack
    lhs = st.Rscalar_hh @ ctx.y
    mid = st.hcov_values((st.Rscalar_h * st.y_jets).einsum("m->"))
    rhs = st.Rscalar_v.value() @ st.Rik.value()
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
    lhs = float(ctx.y @ t.gradient(ctx.stack.ys))
    return abs(lhs - 2.0 * t.value()), max(abs(lhs), 2.0 * abs(t.value()))


def _chi_y_kill(ctx):
    chi = ctx.stack.chi.value()
    return _kills_y(ctx, chi, chi @ ctx.y)


def _chi_routes(ctx):
    return _spread([ctx.measure.chi_from_S, ctx.stack.chi_from_T, ctx.stack.chi.value()])


def _s_volume_change(ctx):
    n = ctx.n
    f0 = float(volume_change("0.1*x1*x2", ctx.point) @ ctx.y)
    s_tilde = ctx.measure.rescaled("0.1*x1*x2").S.value()
    lhs = ctx.measure.S.value()
    rhs = s_tilde - (n + 1.0) * f0
    scale = max(abs(lhs), abs(s_tilde), (n + 1.0) * abs(f0))
    return abs(lhs - rhs), scale


def _hat_ricci_scalar(ctx):
    lhs = ctx.proj.hat.Rscalar.value()
    rhs = ctx.stack.Rscalar.value() + ctx.measure.tau.value()
    return abs(lhs - rhs), max(abs(lhs), abs(ctx.stack.Rscalar.value()),
                               abs(ctx.measure.tau.value()))


def _hat_ricci_tensor(ctx):
    n = ctx.n
    tau = ctx.measure.tau
    taud = tau.gradient(ctx.stack.ys)
    chi = ctx.stack.chi.value()
    rhs = (
        ctx.stack.Rik.value()
        + tau.value() * np.eye(n)
        + np.outer(ctx.y, -0.5 * taud + (3.0 / (n + 1.0)) * chi)
    )
    lhs = ctx.proj.hat.Rik.value()
    return _maxabs(lhs - rhs), _maxabs(lhs, ctx.stack.Rik.value()) + abs(tau.value())


def _chi_compact_form(ctx):
    sk = ctx.stack.hcov_values(ctx.measure.S)
    lhs = 0.5 * (ctx.measure.S0.gradient(ctx.stack.ys) - 2.0 * sk)
    rhs = ctx.stack.chi.value()
    return _maxabs(lhs - rhs), _maxabs(lhs, rhs, sk)


def _hat_s_zero(ctx):
    s_hat = ctx.proj.hat_measure.S.value()
    scale = max(abs(ctx.measure.S.value()), abs(float(np.trace(ctx.stack.N.value()))))
    return abs(s_hat), scale


def _hat_chi_zero(ctx):
    chi_hat = ctx.proj.hat.chi.value()
    return _maxabs(chi_hat), _maxabs(ctx.proj.hat.Rik.value())


def _hat_nonlinear(ctx):
    n = ctx.n
    S = ctx.measure.S
    rhs = ctx.stack.N.value() - (
        S.value() * np.eye(n) + np.outer(ctx.y, ctx.measure.S_v)
    ) / (n + 1.0)
    lhs = ctx.proj.hat.N.value()
    return _maxabs(lhs - rhs), _maxabs(lhs, ctx.stack.N.value())


def _hat_berwald(ctx):
    n = ctx.n
    sd = ctx.measure.S_v
    sdd = ctx.measure.S.grad(ctx.stack.ys).gradient(ctx.stack.ys)
    eye = np.eye(n)
    # sd_k d^i_j + sd_j d^i_k + sdd_jk y^i
    corr = (np.einsum("ij,k->ijk", eye, sd) + np.einsum("ik,j->ijk", eye, sd)
            + np.einsum("i,kj->ijk", ctx.y, sdd))
    rhs = ctx.stack.Gamma.value() - corr / (n + 1.0)
    lhs = ctx.proj.hat.Gamma.value()
    return _maxabs(lhs - rhs), _maxabs(lhs, ctx.stack.Gamma.value())


def _transfer_residual(ctx, f: Jet) -> tuple[float, float]:
    # f_{||k} = f_{|k} + Y(f) S_{.k}/(n+1) + S f_{.k}/(n+1)
    n = ctx.n
    st = ctx.stack
    fv = f.gradient(st.ys)
    lhs = ctx.proj.hat.hgrad(f).value()
    rhs = st.hcov_values(f) + (
        float(ctx.y @ fv) * ctx.measure.S_v + ctx.measure.S.value() * fv) / (n + 1.0)
    return _spread([lhs, rhs])


def _hat_scalar_transfer(ctx):
    return _transfer_residual(ctx, ctx.stack.Ric)


def _hat_frame_transfer(ctx):
    return _transfer_residual(ctx, ctx.stack.N.einsum("mm->"))


def _weyl_routes(ctx):
    return _spread([ctx.proj.hat.T.value(), ctx.stack.weyl.value()])


def _weyl_traceless(ctx):
    return _traceless(ctx, ctx.proj.hat.T.value())


def _weyl_y_kill(ctx):
    wv = ctx.proj.hat.T.value()
    return _kills_y(ctx, wv, wv @ ctx.y)


def _weyl_2d(ctx):
    wv = ctx.proj.hat.T.value()
    return _maxabs(wv), _maxabs(ctx.stack.Rik.value()) + abs(ctx.stack.Rscalar.value())


def _wo_routes(ctx):
    return _spread([ctx.proj.wo_values(route) for route in ctx.proj.wo_routes])


def _wo_rewrite(ctx):
    # W^o_k = (3 Rhat_{||k} - (Rhat_{||m} y^m)_{.k}) / 2
    hat = ctx.proj.hat
    hk = hat.Rscalar_h
    h0 = (hk * hat.y_jets).einsum("m->")
    alt = 0.5 * (3.0 * hk.value() - h0.gradient(hat.ys))
    wo = ctx.proj.wo_values("definition")
    return _spread([alt, wo])


def _wo_y_kill(ctx):
    wo = ctx.proj.wo_values("definition")
    return _kills_y(ctx, wo, wo @ ctx.y)


def _ricci_divergence(ctx):
    n = ctx.n
    first, half = ctx.stack.wo_terms
    chi_y = ctx.stack.chi_hcov_y
    rik_div = np.einsum("mkm->k", ctx.stack.Rik_hcov)
    lhs = first - half - (chi_y + rik_div) / (n - 1.0)
    return _maxabs(lhs), _maxabs(first, half, chi_y / (n - 1.0),
                                 rik_div / (n - 1.0))


def _weyl_divergence(ctx):
    n = ctx.n
    lhs = ctx.stack.weyl_div
    first, half = ctx.stack.wo_terms
    rhs = (n - 2.0) * (first - half - ctx.stack.chi_hcov_y / (n + 1.0))
    return _spread([lhs, rhs])


def _perturbation_forms(n: int):
    def mk(m):
        return lambda xs: 0.01 * (m + 1) + 0.05 * xs[(m + 1) % n]

    return [mk(m) for m in range(n)]


def _projective_invariance(ctx):
    pert = PerturbedSpray(ctx.spray, _perturbation_forms(ctx.n))
    pstack = SprayStack(ctx.point, pert.perturb(ctx.stack.G, ctx.point))
    pproj = ProjectiveStack(MeasureStack(pstack, ctx.measure.lnsigma_x))
    w0 = ctx.proj.hat.T.value()
    w1 = pproj.hat.T.value()
    wo0 = ctx.proj.wo_values("definition")
    wo1 = pproj.wo_values("definition")
    res = max(_maxabs(w1 - w0), _maxabs(wo1 - wo0))
    return res, _maxabs(w0, w1, wo0, wo1)


def _flatness_residual(proj: ProjectiveStack, f) -> tuple[float, float]:
    # W^o_k = W^m_k f_m  iff  W^m_{k|m} = (n-2) W^m_k Xi_{.m}
    # with Xi_{.m} = S_{.m}/(n+1) + f_m; the gaps are proportional by n-2.
    (b, c), (_, _, div, wxi) = proj.flatness_gaps(volume_change(f, proj.point))
    nb = (proj.n - 2.0) * b
    return _maxabs(c - nb), _maxabs(div, wxi, nb)


def _flatness_equivalence(ctx):
    return _flatness_residual(ctx.proj, "0.1*x1*x2")


REGISTRY: tuple[IdentityCheck, ...] = (
    IdentityCheck("euler-metric", _euler_metric, needs=FinslerMetric),
    IdentityCheck("euler-fundamental", _euler_fundamental, needs=FinslerMetric),
    IdentityCheck("euler-spray", _euler_spray),
    IdentityCheck("euler-nonlinear", _euler_nonlinear),
    IdentityCheck("berwald-y-kill", _berwald_y_kill),
    IdentityCheck("rik-y-kill", _rik_y_kill),
    IdentityCheck("r3-contract", _r3_contract),
    IdentityCheck("r4-contract", _r4_contract),
    IdentityCheck("t-traceless", _t_traceless),
    IdentityCheck("t-y-kill", _t_y_kill),
    IdentityCheck("riemannian-berwald", _riemannian_berwald, needs=catalog.Riemannian),
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
    IdentityCheck("geodesic-spray", _geodesic_spray, needs=FinslerMetric),
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
                              f"{obj.name} has dimension {obj.dim}")
    return pts, None


def identity_suite(spec, volume=None, points=20, *, seed=0, degree=DEFAULT_DEGREE, box=None,
                   checks=None) -> SuiteReport:
    """Run every applicable registered identity at sampled points.

    ``spec`` may be a family name, a MetricSpec, a metric, or a spray;
    ``points`` is a sample count or an explicit list of tangent points, and
    ``checks`` a non-empty selection of registered names.  Errors at a point
    follow the policy of the module docstring.  The default jet degree is
    the smallest that feeds every registered identity.
    """
    obj = as_spray(catalog.build(spec) if isinstance(spec, (str, MetricSpec)) else spec)
    volume = as_volume(volume)
    selected = list(REGISTRY if checks is None else
                    [c for c in REGISTRY if c.name in set(checks)])
    if checks is not None and (not selected or len(selected) < len(set(checks))):
        # an empty selection would pass with zero checks
        missing = sorted(set(checks) - set(check_names()))
        what = f"unknown checks: {', '.join(missing)}" if missing else "no checks selected"
        raise ConfigError(f"{what}; available: {', '.join(check_names())}")
    applicable = [c for c in selected if c.applies(obj.metric, obj.dim)]
    if checks is not None and len(applicable) < len(selected):
        # a selected check that never runs would pass with zero points
        idle = [c.name for c in selected if c not in applicable]
        raise ConfigError(f"checks that do not apply to {obj.name} in dimension "
                          f"{obj.dim}: {', '.join(idle)}")
    pts, seed = _resolve_points(obj, points, seed, box)
    # a volume no selected check reads must still be one that can be built
    volume.validate(obj.dim)
    sources = [_check_source(c, volume.uses_quadrature and c.uses_measure)
               for c in applicable]
    return _run(obj.name, [volume], seed, degree, [(obj, pts, sources)], "check")


def _check_source(check: IdentityCheck, quad: bool) -> tuple:
    """A registered check as a source of one row per point."""
    return check.name, quad, lambda ctx: [(check.name, *check.fn(ctx), quad)]


def _run(name: str, volumes: list[VolumeForm], seed, degree: int, fixtures,
         kind: str) -> SuiteReport:
    """The report of every source ``(label, quad, rows)`` at every point of each
    ``(spray, points, sources)``; ``rows(ctx)`` gives (label, residual, scale, quad)
    rows, and ``kind`` with the label names a source in a degree error."""
    tol = Tolerances()
    groups: dict[str, list[CheckResult]] = {}
    rules = []
    for spray, points, sources in fixtures:
        for point in points:
            ctx = PointContext(spray, volumes[0], point, degree)
            for label, quad, rows in sources:
                try:
                    found = rows(ctx)
                except (ConfigError, AdmissibilityError):
                    raise
                except DegreeBudgetError as exc:
                    raise degree_too_low(degree, f"{kind} {label}", exc) from None
                except (SprayLabError, FloatingPointError):
                    found = [(label, math.inf, 1.0, quad)]
                for row, residual, scale, row_quad in found:
                    groups.setdefault(row, []).append(
                        _result(row, point, residual, scale, tol.pick(row_quad), tol.floor))
            rules.extend(ctx.rules)
    checks = tuple(_aggregate(rs) for rs in groups.values())
    results = tuple(r for rs in groups.values() for r in rs)
    quadrature = None
    if any(vol.uses_quadrature for vol in volumes):
        changes = [change for _, change in rules if change is not None]
        quadrature = {"bh_nodes": max((nodes for nodes, _ in rules), default=None),
                      "bh_change": max(changes, default=None)}
    return SuiteReport(name, ", ".join(vol.describe() for vol in volumes), seed, degree,
                       tol, checks, results, all(agg.passed for agg in checks), quadrature)


# -- theorems ---------------------------------------------------------------------


class Fixture(NamedTuple):
    """A sampled catalog metric and, per point, rows (label, residual, scale, quadrature)."""

    spec: MetricSpec
    count: int  # points unless the run gives a count
    rows: Callable[[PointContext, list[VolumeForm]], list[tuple]]
    seed_offset: int = 0


class Theorem(NamedTuple):
    """One conclusion of the paper: its fixtures and the volume forms it holds for."""

    summary: str
    fixtures: tuple[Fixture, ...]
    volumes: tuple[str, ...]  # default volume specs
    takes_volume: bool = False  # holds for every volume form, so a given one replaces these
    compares_volumes: bool = False  # a given volume is paired with a default of another kind


def _wo_zero(label: str, proj: ProjectiveStack, quad: bool, at_least=0.0) -> tuple:
    """W^o = 0 under the volume of ``proj``, scaled by its two defining terms."""
    return (label, _maxabs(proj.wo_values("definition")),
            max(_maxabs(*proj.hat.wo_terms), at_least), quad)


def _thm12(ctx, volumes):
    """Scalar-curvature spray: W^o vanishes for every volume form, on one stack."""
    return [_wo_zero(f"thm12:funk:{vol.kind}", ctx.proj_for(vol), vol.uses_quadrature)
            for vol in volumes]


def _thm15_funk(ctx, volumes):
    """Funk has S = (n+1)/2 F under BH, and W^o = 0."""
    s_val, f_val = ctx.measure.S.value(), ctx.frame.F.value()
    return [("thm15:funk:constant-s", abs(s_val - 2.0 * f_val),
             max(abs(s_val), 2.0 * f_val), True),
            _wo_zero("thm15:funk:wo-zero", ctx.proj, True)]


def _thm15_ball(ctx, volumes):
    """The hyperbolic ball has S = 0 under BH, and W^o = 0."""
    scale_s = max(abs(float(np.trace(ctx.stack.N.value()))), 1.0)
    return [("thm15:hyperbolic:constant-s", abs(ctx.measure.S.value()), scale_s, True),
            _wo_zero("thm15:hyperbolic:wo-zero", ctx.proj, True)]


def _cor14(ctx, volumes):
    """In dimension two W^o does not depend on the volume form."""
    res, scale = _spread([ctx.proj_for(vol).wo_values("definition") for vol in volumes])
    return [("cor14:volume-independence", res, scale,
             any(vol.uses_quadrature for vol in volumes))]


def _cor33(ctx, volumes):
    """Constant flag curvature surfaces have W^o = 0."""
    curvature = abs(ctx.stack.Rscalar.value())
    return [_wo_zero(f"cor33:{ctx.metric.spec.family}:{vol.kind}", ctx.proj_for(vol),
                     vol.uses_quadrature, at_least=curvature) for vol in volumes]


def _prop32(ctx, volumes):
    """Einstein surface under BH: W^o_k = F^3 (theta/F)_{.k}."""
    predicted = einstein_wo(ctx)
    wo = ctx.proj.wo_values("definition")
    return [(f"prop32:{ctx.metric.spec.family}", *_spread([wo, predicted]), True)]


def _thm43(ctx, volumes):
    """The two volume-flatness conditions fail or hold together."""
    return [(f"thm43:f={f or '0'}", *_flatness_residual(ctx.proj, f),
             ctx.volume.uses_quadrature) for f in ("0.1*x1*x2", "0.05*x3", None)]


def _ex17(ctx, volumes):
    """Fourth-root metric with flat factors: everything vanishes."""
    st, ms = ctx.stack, ctx.measure
    # B and R^i_k read no density, so they hold to the jet tier
    return [("ex17:berwald-flat", _maxabs(st.B_values), 1.0 + _maxabs(st.Gamma.value()), False),
            ("ex17:ricci-flat", _maxabs(st.Rik.value()), 1.0 + _maxabs(st.N.value()), False),
            ("ex17:s-zero", abs(ms.S.value()), 1.0, True),
            _wo_zero("ex17:wo-zero", ctx.proj, True, at_least=1.0)]


def _ex45(ctx, volumes):
    """Square metric with the quadratic conformal factor.

    The metric is Ricci-flat and of scalar curvature, hence W^o vanishes
    for every volume form.  The stronger gate - a catalog volume form
    making the projective spray Ricci-flat - fails at every tried volume,
    and that failure is reported as a failing aggregate rather than
    suppressed.
    """
    fsq = ctx.frame.fsq.value()
    rows = [("ex45:scalar-curvature", _maxabs(ctx.stack.weyl.value()), fsq, False)]
    projs = [ctx.proj_for(vol) for vol in volumes]
    for vol, proj in zip(volumes[::2], projs[::2]):  # coordinate and BH
        rows.append((f"ex45:wo-zero:{vol.kind}", _maxabs(proj.wo_values("definition")),
                     fsq ** 1.5, vol.uses_quadrature))
    best = min(projs, key=lambda proj: abs(proj.hat.Rscalar.value()))
    scale = max(abs(ctx.stack.Rscalar.value()), abs(best.measure.tau.value()))
    rows.append(("ex45:projective-ricci-flat-gate", abs(best.hat.Rscalar.value()), scale, True))
    return rows


def _ex45_anisotropic(ctx, volumes):
    """The square metric's S-curvature is not isotropic: S/F depends on y."""
    # sigma_BH depends on x alone, so the three directions share one density
    degree = 4
    lnsigma = volumes[-1].lnsigma_jet(ctx.metric, ctx.point.x, degree - 2, rules=ctx.rules)
    ratios = []
    for y in [(1.0, 0.4, -0.3), (-0.5, 1.0, 0.8), (0.2, -0.9, 1.0)]:
        frame = MetricFrame(ctx.metric, TangentPoint(ctx.point.x, y), degree)
        ratios.append(MeasureStack(frame.stack, lnsigma).S.value() / frame.F.value())
    return [("ex45:anisotropic-s", max(0.0, 0.01 - (max(ratios) - min(ratios))), 1.0, True)]


_EVERY_KIND = ("coordinate", "explicit:exp(0.1*x2)", "bh")
_THEOREMS: dict[str, Theorem] = {
    "thm12": Theorem("scalar-curvature spray has W^o = 0 for every volume",
                     (Fixture(MetricSpec("funk", 3), 20, _thm12),),
                     _EVERY_KIND, takes_volume=True),
    "thm15": Theorem("Einstein + constant S under BH volume has W^o = 0",
                     (Fixture(MetricSpec("funk", 3), 6, _thm15_funk),
                      Fixture(MetricSpec("hyperbolic-ball", 3), 6, _thm15_ball, seed_offset=1)),
                     ("bh",)),
    "cor14": Theorem("surfaces: W^o does not depend on the volume form",
                     (Fixture(MetricSpec("conformal-flat-2d", 2), 12, _cor14),),
                     _EVERY_KIND, takes_volume=True, compares_volumes=True),
    "cor33": Theorem("constant flag curvature surfaces have W^o = 0",
                     (Fixture(MetricSpec("round-sphere", 2), 8, _cor33),
                      Fixture(MetricSpec("hyperbolic-ball", 2), 8, _cor33, seed_offset=1)),
                     ("coordinate", "bh")),
    "prop32": Theorem("Einstein surface: W^o matches F^3 (theta/F)_{.k}",
                      (Fixture(MetricSpec("conformal-flat-2d", 2), 8, _prop32),
                       Fixture(MetricSpec("round-sphere", 2), 8, _prop32)),
                      ("bh",)),
    "thm43": Theorem("the two volume-flatness conditions are equivalent",
                     (Fixture(MetricSpec("randers", 3), 6, _thm43),),
                     ("coordinate",), takes_volume=True),
    "ex17": Theorem("fourth-root metric with flat factors is fully flat",
                    (Fixture(MetricSpec("fourth-root", 4, {"c": 0.5}), 5, _ex17),), ("bh",)),
    "ex45": Theorem("square metric is BWeyl-flat but fails the Ricci gate",
                    (Fixture(MetricSpec("square-metric", 3), 4, _ex45),
                     Fixture(MetricSpec("square-metric", 3), 1, _ex45_anisotropic)),
                    ("coordinate", "explicit:exp(0.1*x1)", "bh")),
}


def theorem_names() -> list[str]:
    return list(_THEOREMS)


def _theorem(name: str) -> Theorem:
    if name not in _THEOREMS:
        raise ConfigError(
            f"unknown theorem {name!r}; available: {', '.join(_THEOREMS)}"
        )
    return _THEOREMS[name]


def theorem_summary(name: str) -> str:
    return _theorem(name).summary


def theorem_check(name: str, *, points=None, seed=0, degree=DEFAULT_DEGREE,
                  volume=None) -> SuiteReport:
    """Run one named conclusion on its catalog fixtures, one context per point.

    ``points`` replaces each fixture's count.  ``volume`` replaces the default
    volume forms where the theorem holds for every volume form, and is refused
    elsewhere.
    """
    thm = _theorem(name)
    volumes = [as_volume(spec) for spec in thm.volumes]
    if volume is not None:
        if not thm.takes_volume:
            takes = [key for key, other in _THEOREMS.items() if other.takes_volume]
            raise ConfigError(f"theorem {name} fixes its volume forms; only "
                              f"{', '.join(takes)} take a volume")
        given = as_volume(volume)
        others = [vol for vol in volumes if vol.kind != given.kind]
        volumes = [given, *others[:1]] if thm.compares_volumes else [given]
    quad = any(vol.uses_quadrature for vol in volumes)
    fixtures = []
    for fixture in thm.fixtures:
        metric = catalog.build(fixture.spec)
        count = fixture.count if points is None else points
        pts = catalog.sample(metric, count=count, seed=seed + fixture.seed_offset)
        source = (name, quad, lambda ctx, rows=fixture.rows: rows(ctx, volumes))
        fixtures.append((metric, pts, [source]))
    return _run(name, volumes, seed, degree, fixtures, "theorem")
