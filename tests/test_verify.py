"""Identity suite, theorem fixtures, and the finite-difference oracle."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import fd_oracle

from spraylab import catalog, verify
from spraylab.catalog import MetricSpec
from spraylab.cli import main
from spraylab.errors import (AdmissibilityError, ConfigError, DegreeBudgetError,
                             JetDomainError)
from spraylab.geometry import MetricFrame, TangentPoint, stack_for
from spraylab.measures import BH_AGREE, VolumeForm
from spraylab.projective import PointContext, ProjectiveStack
from spraylab.verify import (REGISTRY, Tolerances, as_volume,
                             identity_suite, theorem_check, theorem_names)

PT3 = TangentPoint((0.1, -0.2, 0.15), (0.9, -0.4, 0.7))


# -- registry ------------------------------------------------------------------


def test_registry_size_and_unique_names():
    names = verify.check_names()
    assert len(REGISTRY) == 42
    assert len(set(names)) == len(names)


def test_identity_suite_builds_one_metric_frame_per_point(monkeypatch):
    built = []
    init = MetricFrame.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(MetricFrame, "__init__", counting_init)
    identity_suite("randers", points=3)
    assert len(built) == 3 and len(set(built)) == 3


@pytest.mark.parametrize("name, built", [("ex45", 3), ("thm12", 3)])
def test_theorem_rows_reuse_the_point_context_stacks(monkeypatch, name, built):
    # ex45 reads ctx.proj for its first gate volume; thm12 builds one stack per volume
    inits = []
    init = ProjectiveStack.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProjectiveStack, "__init__", counting_init)
    theorem_check(name, points=1)
    assert len(inits) == built


def test_registry_dimension_gates():
    report = identity_suite("conformal-flat-2d", points=2)
    by_name = {agg.check: agg for agg in report.checks}
    assert by_name["weyl-2d"].points == 2
    # divided by n - 2, so these never run on surfaces and have no aggregate
    assert "weyl-divergence" not in by_name
    assert "flatness-equivalence" not in by_name
    assert all(agg.points == 2 for agg in report.checks)


def test_selected_checks_that_cannot_apply_are_config_errors(monkeypatch):
    built = []
    monkeypatch.setattr(MetricFrame, "__init__", lambda *args: built.append(args))
    with pytest.raises(ConfigError) as info:
        identity_suite("randers", points=2,
                       checks=["euler-spray", "weyl-2d", "riemannian-berwald"])
    message = str(info.value)
    assert "weyl-2d" in message and "riemannian-berwald" in message
    assert "euler-spray" not in message
    assert built == []  # raised before any point was computed


def test_riemannian_only_check_skips_finsler():
    report = identity_suite("funk", points=1)
    by_name = {agg.check: agg for agg in report.checks}
    assert "riemannian-berwald" not in by_name
    riem = identity_suite("round-sphere", points=1)
    assert {a.check: a for a in riem.checks}["riemannian-berwald"].points == 1


# -- suite runs ----------------------------------------------------------------


def test_euclidean_coordinate_residuals_vanish():
    report = identity_suite("euclidean", points=5, seed=3)
    assert report.passed
    for result in report.results:
        assert result.residual <= 1e-11


def test_funk_bh_suite_passes():
    report = identity_suite("funk", VolumeForm("busemann-hausdorff"), points=5)
    assert report.passed
    assert report.volume == "busemann-hausdorff"


def test_randers_explicit_suite_passes():
    report = identity_suite("randers", VolumeForm("explicit", "exp(x1)"), points=5)
    assert report.passed


def test_perturbed_spray_suite_passes():
    spec = MetricSpec(
        "projective-perturbation",
        params={"base": "funk", "oneform": ["0.1*x1", "0.05*x2", "0.02*x3"]},
    )
    report = identity_suite(spec, points=3)
    assert report.passed


def test_suite_refuses_what_is_not_a_spray():
    with pytest.raises(ConfigError, match="expected a metric or spray, got int"):
        identity_suite(42)


def test_suite_refuses_a_degree_too_low_for_a_check():
    # degree 5 starves the deeper identities: that is a configuration error
    # naming the check and the degree, not a failed check
    with pytest.raises(ConfigError, match=r"^degree 5 is too low for check [a-z0-9-]+: "):
        identity_suite("randers", points=2, degree=5)


def _raise_at_second_point(fn, exc):
    calls = []

    def wrapped(ctx, *args):
        calls.append(ctx.point)
        if len(calls) == 2:
            raise exc
        return fn(ctx, *args)

    return wrapped


def _fail_check(monkeypatch, exc):
    check = replace(REGISTRY[0], fn=_raise_at_second_point(REGISTRY[0].fn, exc))
    monkeypatch.setattr(verify, "REGISTRY", (check, *REGISTRY[1:]))


def _fail_theorem(monkeypatch, exc):
    thm = verify._THEOREMS["thm12"]
    [fixture] = thm.fixtures
    fixture = fixture._replace(rows=_raise_at_second_point(fixture.rows, exc))
    monkeypatch.setitem(verify._THEOREMS, "thm12", thm._replace(fixtures=(fixture,)))


# runner -> (run, make its source raise at the second point, the source's label,
# the points every other row keeps)
RUNNERS = {
    "check": (lambda: identity_suite("randers", points=2), _fail_check, "euler-metric", 2),
    # a theorem's fixture is one source, so its rows skip the failing point
    "theorem": (lambda: theorem_check("thm12", points=2), _fail_theorem, "thm12", 1),
}
# the error a source raises -> the error the run raises (None: it completes)
ERROR_POLICY = [
    (JetDomainError("log requires a positive constant term"), None, None),
    (FloatingPointError("overflow encountered in multiply"), None, None),
    (ConfigError("a bad setting"), ConfigError, r"^a bad setting$"),
    (AdmissibilityError("a point outside the chart"), AdmissibilityError,
     r"^a point outside the chart$"),
    (DegreeBudgetError("no orders left"), ConfigError,
     r"^degree \d+ is too low for (check|theorem) [a-z0-9-]+: no orders left$"),
]


@pytest.mark.parametrize("exc, raised, match", ERROR_POLICY,
                         ids=[type(exc).__name__ for exc, _, _ in ERROR_POLICY])
@pytest.mark.parametrize("runner", RUNNERS)
def test_suite_never_aborts_on_a_failing_point(monkeypatch, runner, exc, raised, match):
    # a domain error at a point is one infinite residual under its source's
    # label, and the run completes; an error about the input ends it
    run, fail, label, others = RUNNERS[runner]
    clean = run()
    fail(monkeypatch, exc)
    if raised is not None:
        with pytest.raises(raised, match=match):
            run()
        return
    report = run()
    [errored] = [r for r in report.results if math.isinf(r.residual)]
    assert (errored.check, errored.point) == (label, clean.results[-1].point)
    assert [agg.check for agg in report.failures()] == [label]
    assert {agg.check: agg.points for agg in report.checks if agg.check != label} == {
        agg.check: others for agg in clean.checks if agg.check != label}


# every catalog family, with an expression matrix and a perturbed Randers spray
GEODESIC_SPECS = [
    *[MetricSpec(name) for name in catalog.family_names()
      if name not in ("riemannian", "projective-perturbation")],
    MetricSpec("riemannian", 3, {"matrix": [["exp(0.3*x1)", "0.1*x2", "0"],
                                            ["0.1*x2", "1", "0"], ["0", "0", "1"]]}),
    MetricSpec("projective-perturbation",
               params={"base": "randers", "oneform": ["0.1*x1", "0", "0.05*x2"]}),
]


@pytest.mark.parametrize("spec", GEODESIC_SPECS, ids=lambda spec: spec.family)
def test_geodesic_spray_holds_on_every_family(spec):
    report = identity_suite(spec, points=20, checks=["geodesic-spray"])
    assert report.passed and report.checks[0].points == 20


@pytest.mark.parametrize("family, dim", [("funk", 3), ("randers", 3), ("square-metric", 3),
                                         ("hyperbolic-ball", 2)])
def test_geodesic_spray_fails_a_scaled_spray(monkeypatch, family, dim):
    spray = MetricFrame.spray_coefficients.func
    monkeypatch.setattr(MetricFrame, "spray_coefficients",
                        property(lambda frame: 1.001 * spray(frame)))
    report = identity_suite(MetricSpec(family, dim), points=20, checks=["geodesic-spray"])
    [agg] = report.checks
    assert not agg.passed
    assert agg.residual == pytest.approx(1e-3 * agg.scale, rel=0.01)


def test_pass_flag_matches_threshold_rule():
    report = identity_suite("randers", VolumeForm("busemann-hausdorff"), points=3)
    for r in report.results:
        assert r.passed == (r.residual <= r.tolerance * r.scale + r.floor)


def test_tolerance_tiers_follow_volume():
    jet_only = identity_suite("randers", points=1)
    quad = identity_suite("randers", VolumeForm("busemann-hausdorff"), points=1)
    jet_by = {a.check: a for a in jet_only.checks}
    quad_by = {a.check: a for a in quad.checks}
    assert jet_by["wo-routes"].tolerance == 1e-7
    assert quad_by["wo-routes"].tolerance == 1e-4
    # curvature-only checks stay in the jet tier under quadrature volumes
    assert quad_by["rik-y-kill"].tolerance == 1e-7
    assert quad_by["chi-y-kill"].tolerance == 1e-7


@pytest.mark.parametrize("check", REGISTRY, ids=lambda c: c.name)
def test_uses_measure_flag_matches_what_a_check_reads(check):
    # a check computes the density exactly when it is flagged as reading the volume
    dim = 2 if check.name == "weyl-2d" else 3
    report = identity_suite(MetricSpec("hyperbolic-ball", dim), "bh", points=1,
                            checks=[check.name])
    assert (report.quadrature["bh_nodes"] is not None) == check.uses_measure


def test_suite_is_deterministic():
    a = identity_suite("randers", points=4, seed=11)
    b = identity_suite("randers", points=4, seed=11)
    assert a == b


def test_explicit_point_list():
    report = identity_suite("euclidean", points=[PT3, PT3], seed=99)
    assert report.seed is None
    by_name = {agg.check: agg for agg in report.checks}
    assert by_name["euler-spray"].points == 2


def test_point_of_wrong_dimension_is_a_config_error(monkeypatch):
    built = []
    monkeypatch.setattr(MetricFrame, "__init__", lambda self, *a, **k: built.append(a))
    with pytest.raises(ConfigError, match="dimension 2 but randers\\(3\\) has dimension 3"):
        identity_suite("randers", points=[TangentPoint((0.1, 0.2), (1.0, 0.5))])
    assert built == []


def test_point_counts_below_one_are_config_errors():
    for points in (0, -1, []):
        with pytest.raises(ConfigError):
            identity_suite("euclidean", points=points)


def test_non_finite_residual_ranks_worst():
    pts = [TangentPoint((0.1 * k, 0.0), (1.0, 0.5)) for k in range(3)]
    results = [verify.CheckResult("c", p, r, 1.0, 1e-7, 1e-9, r <= 1e-7 + 1e-9)
               for p, r in zip(pts, [1e-12, math.nan, 1e-11])]
    agg = verify._aggregate(results)
    assert not agg.passed
    assert math.isnan(agg.residual)
    assert agg.worst_point == pts[1]


def test_maxabs_propagates_nan():
    assert math.isnan(verify._maxabs(np.array([1.0, np.nan])))
    assert math.isnan(verify._maxabs(np.array([np.nan]), np.array([2.0])))
    assert verify._maxabs() == 0.0
    assert verify._maxabs(np.array([-3.0, 1.0]), np.array([])) == 3.0


def test_a_nan_in_compared_values_fails_ranks_worst_and_exits_one(monkeypatch, capsys):
    # a check whose two compared routes hold a NaN at the second point only
    seen = []

    def nan_at_second_point(ctx):
        seen.append(ctx.point)
        route = np.array([1.0, math.nan if len(seen) % 3 == 2 else 0.5])
        return verify._spread([route, np.array([1.0, 0.5])])

    check = replace(REGISTRY[2], fn=nan_at_second_point)
    monkeypatch.setattr(verify, "REGISTRY", (*REGISTRY[:2], check, *REGISTRY[3:]))
    report = identity_suite("randers", points=3)
    agg = next(a for a in report.checks if a.check == check.name)
    assert report.failures() == [agg]
    assert agg.points == 3 and math.isnan(agg.residual)
    assert agg.worst_point == seen[1]

    code = main(["verify", "--metric", "randers", "--points", "3"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    rec = next(r for r in records if r.get("check") == check.name)
    assert code == 1
    assert not rec["pass"] and rec["worst_x"] == list(seen[4].x)


def _noise_results(ratios):
    # one result per ratio of residual to the limit 1e-7 * 1 + 1e-9, in sample order
    limit = 1e-7 + 1e-9
    pts = [TangentPoint((0.01 * k, 0.0), (1.0, 0.5)) for k in range(len(ratios))]
    return [verify.CheckResult("c", p, r * limit, 1.0, 1e-7, 1e-9, r <= 1.0)
            for p, r in zip(pts, ratios)]


def test_points_below_the_rank_ratio_tie_and_the_first_is_reported():
    # a reordered sum moves a residual by rounding; the reported point stays
    rng = np.random.default_rng(7)
    ratios = rng.uniform(0.0, verify.RANK_RATIO, size=8)
    for order in [np.arange(8)] + [rng.permutation(8) for _ in range(20)]:
        results = _noise_results(ratios[order])
        jiggled = [replace(r, residual=r.residual * (1.0 + rng.choice([-1e-12, 1e-12])))
                   for r in results]
        for rs in (results, jiggled):
            agg = verify._aggregate(rs)
            assert agg.worst_point == rs[0].point
            assert (agg.residual, agg.scale) == (rs[0].residual, rs[0].scale)


@pytest.mark.parametrize("ratio", [0.5, math.inf, math.nan])
def test_a_point_above_the_rank_ratio_ranks_worst(ratio):
    ratios = [1e-3, 5e-3, 1e-4, 1e-5]
    for slot in range(len(ratios)):
        results = _noise_results([*ratios[:slot], ratio, *ratios[slot:]])
        agg = verify._aggregate(results)
        assert agg.worst_point == results[slot].point
        assert agg.residual is results[slot].residual  # the same float, NaN too


def test_points_above_the_rank_ratio_rank_by_ratio():
    results = _noise_results([1e-3, 0.02, 0.03, 0.025])
    assert verify._aggregate(results).worst_point == results[2].point


def test_check_subset_and_unknown_names():
    report = identity_suite("euclidean", points=2, checks=["euler-spray", "t-y-kill"])
    assert len(report.checks) == 2
    with pytest.raises(ConfigError):
        identity_suite("euclidean", points=1, checks=["no-such-check"])
    # an empty selection would pass with zero checks
    with pytest.raises(ConfigError, match=r"^no checks selected; available: euler-metric, "):
        identity_suite("euclidean", points=1, checks=[])


def test_worst_point_is_recorded():
    report = identity_suite("randers", points=3, seed=5)
    agg = {a.check: a for a in report.checks}["wo-routes"]
    assert agg.worst_point in {r.point for r in report.results}


def test_custom_tolerances_gate_pass():
    # the pinned thresholds fail a metric whose F^2 is not homogeneous: the
    # literal inner product of square-metric
    spec = MetricSpec("square-metric", None, {"literal_inner": True})
    report = identity_suite(spec, points=1)
    assert report.tolerances == Tolerances()
    assert not report.passed and "euler-metric" in {agg.check for agg in report.failures()}


# -- volume coercion -----------------------------------------------------------


def test_as_volume_variants():
    assert as_volume(None).kind == "coordinate"
    assert as_volume("coordinate").kind == "coordinate"
    assert as_volume("bh").kind == "busemann-hausdorff"
    vol = as_volume("explicit:exp(x1)")
    assert vol.kind == "explicit" and vol.sigma == "exp(x1)"
    assert as_volume(vol) is vol
    with pytest.raises(ConfigError):
        as_volume("lebesgue")
    with pytest.raises(ConfigError):
        as_volume(3.14)


# -- theorem fixtures -----------------------------------------------------------


def test_theorem_names_complete():
    assert set(theorem_names()) == {
        "thm12", "thm15", "cor14", "cor33", "prop32", "thm43", "ex17", "ex45",
    }
    with pytest.raises(ConfigError):
        theorem_check("thm99")


def test_ex17_holds_its_jet_identities_to_the_jet_tier():
    # B and R^i_k read no density; S and W^o read the BH one
    tiers = {agg.check: agg.tolerance for agg in theorem_check("ex17", points=1).checks}
    assert tiers["ex17:berwald-flat"] == tiers["ex17:ricci-flat"] == Tolerances().jet
    assert tiers["ex17:s-zero"] == tiers["ex17:wo-zero"] == Tolerances().quad


def test_scalar_curvature_conclusion():
    report = theorem_check("thm12", points=5)
    assert report.passed
    kinds = {agg.check.rsplit(":", 1)[1] for agg in report.checks}
    assert kinds == {"coordinate", "explicit", "busemann-hausdorff"}


def test_thm12_single_volume_override():
    report = theorem_check("thm12", points=3, volume="explicit:exp(x1)")
    assert report.passed
    assert len(report.checks) == 1


def test_einstein_constant_s_conclusion():
    report = theorem_check("thm15", points=3)
    assert report.passed
    labels = {agg.check for agg in report.checks}
    assert "thm15:funk:constant-s" in labels
    assert "thm15:hyperbolic:wo-zero" in labels


def test_surface_volume_independence():
    report = theorem_check("cor14", points=6)
    assert report.passed
    agg = report.checks[0]
    assert agg.check == "cor14:volume-independence"
    assert agg.scale > 1e-3  # the invariant value itself is not trivially zero


def test_constant_curvature_surfaces():
    report = theorem_check("cor33", points=4)
    assert report.passed
    assert len(report.checks) == 4


def test_einstein_surface_closed_form():
    report = theorem_check("prop32", points=4)
    assert report.passed
    conformal = [a for a in report.checks if a.check.endswith("conformal-flat-2d")]
    assert conformal and conformal[0].scale > 1e-3


def test_flatness_equivalence_theorem():
    report = theorem_check("thm43", points=3)
    assert report.passed
    assert {a.check for a in report.checks} == {
        "thm43:f=0.1*x1*x2", "thm43:f=0.05*x3", "thm43:f=0",
    }


def test_fourth_root_flatness():
    report = theorem_check("ex17", points=3)
    assert report.passed
    for result in report.results:
        assert result.residual <= 1e-10


def test_square_metric_gate_fails_conclusions_hold():
    # at its default points, two densities stop only at the 64-node rule
    report = theorem_check("ex45")
    assert report.quadrature["bh_change"] <= BH_AGREE
    assert not report.passed
    by_name = {agg.check: agg for agg in report.checks}
    gate = by_name.pop("ex45:projective-ricci-flat-gate")
    assert not gate.passed
    assert gate.residual > 1.0
    for agg in by_name.values():
        assert agg.passed, agg


def test_only_every_volume_theorems_take_a_volume():
    takes = ["thm12", "cor14", "thm43"]
    for name in theorem_names():
        if name in takes:
            assert theorem_check(name, points=1, volume="coordinate").passed
            continue
        with pytest.raises(ConfigError) as err:
            theorem_check(name, points=1, volume="coordinate")
        assert str(err.value) == (f"theorem {name} fixes its volume forms; only "
                                  "thm12, cor14, thm43 take a volume")


def test_theorem_reports_are_deterministic():
    a = theorem_check("thm43", points=2)
    b = theorem_check("thm43", points=2)
    assert a == b


# -- finite differences -----------------------------------------------------------


def test_fd_norm_gradient():
    norm = lambda p: math.sqrt(sum(v * v for v in p.y))
    for k in range(3):
        alpha = [0] * 6
        alpha[3 + k] = 1
        got = fd_oracle(norm, PT3, alpha)
        assert got == pytest.approx(PT3.y[k] / norm(PT3), abs=1e-8)


def test_fd_order_zero_returns_value():
    norm = lambda p: math.sqrt(sum(v * v for v in p.y))
    assert fd_oracle(norm, PT3, [0] * 6) == norm(PT3)


def test_fd_spray_first_partials():
    spray = catalog.build("funk")
    st = stack_for(spray, PT3, 6)
    for i in range(3):
        field = lambda p, i=i: spray.coefficients(p, 2)[i].value()
        for slot in range(6):
            alpha = [0] * 6
            alpha[slot] = 1
            got = fd_oracle(field, PT3, alpha)
            want = st.G[i].grad(slot).value()
            assert got == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_fd_mixed_second_partial():
    spray = catalog.build("funk")
    st = stack_for(spray, PT3, 6)
    field = lambda p: spray.coefficients(p, 2)[0].value()
    got = fd_oracle(field, PT3, [0, 1, 0, 0, 0, 1])
    want = st.G[0].grad(1).grad(5).value()
    assert got == pytest.approx(want, rel=1e-5)
    got = fd_oracle(field, PT3, [0, 0, 0, 0, 0, 2])
    want = st.G[0].grad(5).grad(5).value()
    assert got == pytest.approx(want, rel=1e-5)


def test_fd_bh_density_gradient():
    randers = catalog.build("randers")
    vol = VolumeForm("busemann-hausdorff")
    point = TangentPoint((0.12, -0.08, 0.1), (1.0, 0.3, -0.2))

    def lnsigma(p):
        return PointContext(randers, vol, p, 4).measure.lnsigma.value()

    jets = PointContext(randers, vol, point, 6).measure.lnsigma
    for k in range(3):
        alpha = [0] * 6
        alpha[k] = 1
        got = fd_oracle(lnsigma, point, alpha, step=2e-2)
        assert got == pytest.approx(jets.grad(k).value(), abs=1e-4)


def test_fd_rejects_bad_multi_indices():
    norm = lambda p: math.sqrt(sum(v * v for v in p.y))
    with pytest.raises(ConfigError):
        fd_oracle(norm, PT3, [3, 0, 0, 0, 0, 0])
    with pytest.raises(ConfigError):
        fd_oracle(norm, PT3, [1, 1, 1, 0, 0, 0])
    with pytest.raises(ConfigError):
        fd_oracle(norm, PT3, [1, 0, 0])
    with pytest.raises(ConfigError):
        fd_oracle(norm, PT3, [-1, 1, 0, 0, 0, 0])
