"""Identity suite, theorem fixtures, and the finite-difference oracle."""

import math

import numpy as np
import pytest

from spraylab import catalog, verify
from spraylab.catalog import MetricSpec
from spraylab.errors import ConfigError
from spraylab.geometry import MetricFrame, TangentPoint, stack_for
from spraylab.measures import MeasureStack, VolumeForm
from spraylab.verify import (REGISTRY, Tolerances, as_volume, fd_oracle,
                             identity_suite, theorem_check, theorem_names)

PT3 = TangentPoint((0.1, -0.2, 0.15), (0.9, -0.4, 0.7))


# -- registry ------------------------------------------------------------------


def test_registry_size_and_unique_names():
    names = verify.check_names()
    assert len(REGISTRY) == 43
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


def test_registry_dimension_gates():
    report = identity_suite("conformal-flat-2d", points=2)
    by_name = {agg.check: agg for agg in report.checks}
    assert by_name["weyl-2d"].points == 2
    # divided by n - 2, so these never run on surfaces
    assert by_name["weyl-divergence"].points == 0
    assert by_name["weyl-divergence"].passed
    assert by_name["flatness-equivalence"].points == 0


def test_riemannian_only_check_skips_finsler():
    report = identity_suite("funk", points=1)
    by_name = {agg.check: agg for agg in report.checks}
    assert by_name["riemannian-berwald"].points == 0
    riem = identity_suite("round-sphere", points=1)
    assert {a.check: a for a in riem.checks}["riemannian-berwald"].points == 1


# -- suite runs ----------------------------------------------------------------


def test_euclidean_coordinate_residuals_vanish():
    report = identity_suite("euclidean", points=5, seed=3)
    assert report.passed
    for result in report.results:
        assert result.residual <= 1e-11


def test_funk_bh_suite_passes():
    report = identity_suite("funk", VolumeForm.busemann_hausdorff(32), points=5)
    assert report.passed
    assert report.volume == "busemann-hausdorff(32)"


def test_randers_explicit_suite_passes():
    report = identity_suite("randers", VolumeForm.explicit("exp(x1)"), points=5)
    assert report.passed


def test_perturbed_spray_suite_passes():
    spec = MetricSpec(
        "projective-perturbation",
        params={"base": "funk", "oneform": ["0.1*x1", "0.05*x2", "0.02*x3"]},
    )
    report = identity_suite(spec, points=3)
    assert report.passed


def test_suite_never_aborts_on_budget_exhaustion():
    # degree 5 starves the deeper identities; they must fail with infinite
    # residuals while the rest of the suite still completes
    report = identity_suite("randers", points=2, degree=5)
    assert not report.passed
    assert len(report.checks) == len(REGISTRY)
    starved = [a for a in report.checks if a.points and math.isinf(a.max_residual)]
    survived = [a for a in report.checks if a.points and a.passed]
    assert starved and survived
    assert all(not a.passed for a in starved)


def test_pass_flag_matches_threshold_rule():
    report = identity_suite("randers", VolumeForm.busemann_hausdorff(24), points=3)
    for r in report.results:
        assert r.passed == (r.residual <= r.tolerance * r.scale + r.floor)


def test_tolerance_tiers_follow_volume():
    jet_only = identity_suite("randers", points=1)
    quad = identity_suite("randers", VolumeForm.busemann_hausdorff(16), points=1)
    jet_by = {a.check: a for a in jet_only.checks}
    quad_by = {a.check: a for a in quad.checks}
    assert jet_by["wo-routes"].tolerance == 1e-7
    assert quad_by["wo-routes"].tolerance == 1e-4
    # curvature-only checks stay in the jet tier under quadrature volumes
    assert quad_by["rik-y-kill"].tolerance == 1e-7
    assert quad_by["chi-y-kill"].tolerance == 1e-7


def test_suite_is_deterministic():
    a = identity_suite("randers", points=4, seed=11)
    b = identity_suite("randers", points=4, seed=11)
    assert a == b


def test_explicit_point_list():
    report = identity_suite("euclidean", points=[PT3, PT3], seed=99)
    assert report.seed is None
    by_name = {agg.check: agg for agg in report.checks}
    assert by_name["euler-spray"].points == 2


def test_point_counts_below_one_are_config_errors():
    for points in (0, -1, []):
        with pytest.raises(ConfigError):
            identity_suite("euclidean", points=points)


def test_non_finite_residual_ranks_worst():
    pts = [TangentPoint((0.1 * k, 0.0), (1.0, 0.5)) for k in range(3)]
    results = [verify.CheckResult("c", p, r, 1.0, 1e-7, 1e-9, r <= 1e-7 + 1e-9)
               for p, r in zip(pts, [1e-12, math.nan, 1e-11])]
    agg = verify._aggregate("c", results, 1e-7, 1e-9)
    assert not agg.passed
    assert math.isnan(agg.max_residual)
    assert agg.worst_point == pts[1]


def test_check_subset_and_unknown_names():
    report = identity_suite("euclidean", points=2, checks=["euler-spray", "t-y-kill"])
    assert len(report.checks) == 2
    with pytest.raises(ConfigError):
        identity_suite("euclidean", points=1, checks=["no-such-check"])


def test_worst_point_is_recorded():
    report = identity_suite("randers", points=3, seed=5)
    agg = {a.check: a for a in report.checks}["wo-routes"]
    assert agg.worst_point in {r.point for r in report.results}


def test_custom_tolerances_gate_pass():
    strict = Tolerances(jet=1e-30, quad=1e-30, floor=1e-30)
    report = identity_suite("randers", points=1, tolerances=strict)
    assert not report.passed


def test_tolerances_reject_negative_and_non_finite():
    for field in ("jet", "quad", "floor"):
        for bad in (-1e-7, math.nan, math.inf):
            with pytest.raises(ConfigError, match=field):
                Tolerances(**{field: bad})
    assert Tolerances(jet=0.0, quad=0.0, floor=0.0).pick(True) == 0.0


# -- volume coercion -----------------------------------------------------------


def test_as_volume_variants():
    assert as_volume(None).kind == "coordinate"
    assert as_volume("coordinate").kind == "coordinate"
    assert as_volume("bh", nodes=24).nodes == 24
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


def test_scalar_curvature_conclusion():
    report = theorem_check("thm12", points=5, nodes=16)
    assert report.passed
    kinds = {agg.check.rsplit(":", 1)[1] for agg in report.checks}
    assert kinds == {"coordinate", "explicit", "busemann-hausdorff"}


def test_thm12_single_volume_override():
    report = theorem_check("thm12", points=3, volume="explicit:exp(x1)")
    assert report.passed
    assert len(report.checks) == 1


def test_einstein_constant_s_conclusion():
    report = theorem_check("thm15", points=3, nodes=24)
    assert report.passed
    labels = {agg.check for agg in report.checks}
    assert "thm15:funk:constant-s" in labels
    assert "thm15:hyperbolic:wo-zero" in labels


def test_surface_volume_independence():
    report = theorem_check("cor14", points=6, nodes=16)
    assert report.passed
    agg = report.checks[0]
    assert agg.check == "cor14:volume-independence"
    assert agg.scale > 1e-3  # the invariant value itself is not trivially zero


def test_constant_curvature_surfaces():
    report = theorem_check("cor33", points=4, nodes=16)
    assert report.passed
    assert len(report.checks) == 4


def test_einstein_surface_closed_form():
    report = theorem_check("prop32", points=4, nodes=32)
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
    report = theorem_check("ex17", points=3, nodes=16)
    assert report.passed
    for agg in report.checks:
        assert agg.max_residual <= 1e-10


def test_square_metric_gate_fails_conclusions_hold():
    report = theorem_check("ex45", points=2, nodes=24)
    assert not report.passed
    by_name = {agg.check: agg for agg in report.checks}
    gate = by_name.pop("ex45:projective-ricci-flat-gate")
    assert not gate.passed
    assert gate.max_residual > 1.0
    for agg in by_name.values():
        assert agg.passed, agg


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
    spray = catalog.build("funk").spray()
    st = stack_for(spray, PT3, 6)
    for i in range(3):
        field = lambda p, i=i: spray.coefficients(p, 2)[i].value()
        for slot in range(6):
            alpha = [0] * 6
            alpha[slot] = 1
            got = fd_oracle(field, PT3, alpha)
            want = st.G[i].deriv(slot).value()
            assert got == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_fd_mixed_second_partial():
    spray = catalog.build("funk").spray()
    st = stack_for(spray, PT3, 6)
    field = lambda p: spray.coefficients(p, 2)[0].value()
    got = fd_oracle(field, PT3, [0, 1, 0, 0, 0, 1])
    want = st.G[0].deriv(1).deriv(5).value()
    assert got == pytest.approx(want, rel=1e-5)
    got = fd_oracle(field, PT3, [0, 0, 0, 0, 0, 2])
    want = st.G[0].deriv(5).deriv(5).value()
    assert got == pytest.approx(want, rel=1e-5)


def test_fd_bh_density_gradient():
    randers = catalog.build("randers")
    vol = VolumeForm.busemann_hausdorff(48)
    point = TangentPoint((0.12, -0.08, 0.1), (1.0, 0.3, -0.2))

    def lnsigma(p):
        return MeasureStack(stack_for(randers.spray(), p, 4), vol, randers).lnsigma.value()

    jets = MeasureStack(stack_for(randers.spray(), point, 6), vol, randers).lnsigma
    for k in range(3):
        alpha = [0] * 6
        alpha[k] = 1
        got = fd_oracle(lnsigma, point, alpha, step=2e-2)
        assert got == pytest.approx(jets.deriv(k).value(), abs=1e-4)


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
