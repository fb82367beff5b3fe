"""Fixture-family tests: closed forms, admissibility, sampling."""

import numpy as np
import pytest

from spraylab import catalog, jets
from spraylab.catalog import MetricSpec, build, sample
from spraylab.errors import AdmissibilityError, ConfigError
from spraylab.geometry import (
    MetricFrame,
    PerturbedSpray,
    TangentPoint,
    stack_for,
)

ALL_METRIC_SPECS = [
    MetricSpec("euclidean", 3),
    MetricSpec("round-sphere"),
    MetricSpec("hyperbolic-ball", 2),
    MetricSpec("hyperbolic-ball", 3),
    MetricSpec("conformal-flat-2d"),
    MetricSpec("randers"),
    MetricSpec("randers", 3, {"preset": "constant", "b": [0.3, 0.0, 0.0]}),
    MetricSpec("funk", 3),
    MetricSpec("fourth-root", 4, {"n1": 2, "n2": 2, "c": 0.5}),
    MetricSpec("square-metric", 3),
]


@pytest.mark.parametrize("spec", ALL_METRIC_SPECS, ids=lambda s: s.family + str(s.dim))
def test_every_family_is_admissible_finsler(spec):
    metric = build(spec)
    points = sample(metric, count=6, seed=11)
    assert len(points) == 6
    for point in points:
        frame = MetricFrame(metric, point, degree=3)
        assert frame.fsq.value() > 0.0
        frame.g_values  # raises if not positive definite
        # positive 1-homogeneity of F, hence 2-homogeneity of F^2
        doubled = TangentPoint(point.x, tuple(2.0 * v for v in point.y))
        scaled = MetricFrame(metric, doubled, degree=2)
        assert scaled.fsq.value() == pytest.approx(4.0 * frame.fsq.value(), rel=1e-11)


def test_unknown_family_and_missing_dim():
    with pytest.raises(ConfigError):
        build("nonesuch")
    with pytest.raises(ConfigError):
        build(MetricSpec("riemannian", None))
    with pytest.raises(ConfigError):
        build(MetricSpec("round-sphere", 3))
    with pytest.raises(ConfigError):
        build(MetricSpec("hyperbolic-ball", 4))
    with pytest.raises(ConfigError):
        build(MetricSpec("fourth-root", 5, {"n1": 2, "n2": 2}))


def test_randers_validation():
    with pytest.raises(ConfigError):
        build(MetricSpec("randers", 3, {"preset": "constant", "b": [1.2, 0.0, 0.0]}))
    with pytest.raises(ConfigError):
        build(MetricSpec("randers", 2))  # generic preset is 3-dimensional
    metric = build(MetricSpec("randers", 3, {"preset": "constant", "b": [0.3, 0.0, 0.0]}))
    point = TangentPoint((0.1, 0.2, -0.1), (0.6, -0.3, 0.2))
    norm = np.linalg.norm(point.y_array())
    frame = MetricFrame(metric, point, degree=2)
    want = (norm + 0.3 * point.y[0]) ** 2
    assert frame.fsq.value() == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_euclidean_fsq_skips_the_zero_entries(monkeypatch, n):
    # one product y^i y^i per diagonal entry; the n^2 - n float zeros cost none
    metric = build(MetricSpec("euclidean", n))
    point = sample(metric, count=1, seed=3)[0]
    mul = jets.PolyRing._mul_coeffs
    calls = []

    def counting(ring, *args):
        calls.append(ring)
        return mul(ring, *args)

    monkeypatch.setattr(jets.PolyRing, "_mul_coeffs", counting)
    MetricFrame(metric, point)
    assert len(calls) == n


def test_quad_float_zeros_match_zero_jets_bit_for_bit():
    ring = jets.ring(6, 4)
    x = [ring.seed(i, v) for i, v in enumerate((0.3, -0.2, 0.1))]
    y = [ring.seed(3 + i, v) for i, v in enumerate((0.7, -1.1, 0.4))]
    d, c = jets.exp(x[0] * x[1]), 0.2 * x[2] - 0.1 * x[0]
    zero = 0.0 * d
    with_floats = catalog._quad([[d, c, 0.0], [c, 2.0, 0.0], [0.0, 0.0, d]], y)
    with_jets = catalog._quad([[d, c, zero], [c, 2.0 + zero, zero], [zero, zero, d]], y)
    assert with_floats.coeffs.tobytes() == with_jets.coeffs.tobytes()


def test_fourth_root_coupling_validation():
    for c in (0.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            build(MetricSpec("fourth-root", 4, {"n1": 2, "n2": 2, "c": c}))


def test_fourth_root_riemannian_at_c_one():
    metric = build(MetricSpec("fourth-root", 4, {"n1": 2, "n2": 2, "c": 1.0}))
    point = TangentPoint((0.1, -0.2, 0.3, 0.0), (0.5, -0.2, 0.4, 0.8))
    frame = MetricFrame(metric, point, degree=2)
    y = point.y_array()
    assert frame.fsq.value() == pytest.approx(y @ y, rel=1e-12)


def test_fourth_root_is_berwald_and_ricci_flat():
    metric = build(MetricSpec("fourth-root", 4, {"c": 0.5}))
    for point in sample(metric, count=3, seed=5):
        st = stack_for(metric, point, degree=6)
        np.testing.assert_allclose(st.Rik.value(), 0.0, atol=1e-11)
        assert st.Ric.value() == pytest.approx(0.0, abs=1e-11)
        np.testing.assert_allclose(st.B_values, 0.0, atol=1e-11)


def test_funk_at_origin_is_euclidean_norm():
    metric = build(MetricSpec("funk", 3))
    point = TangentPoint((0.0, 0.0, 0.0), (0.4, -0.1, 0.2))
    frame = MetricFrame(metric, point, degree=2)
    assert frame.fsq.value() == pytest.approx(point.y_array() @ point.y_array(), rel=1e-12)


def test_funk_is_projectively_flat():
    metric = build(MetricSpec("funk", 3))
    for point in sample(metric, count=5, seed=3):
        G = MetricFrame(metric, point, degree=3).spray_coefficients
        g = np.array([gi.value() for gi in G])
        y = point.y_array()
        outer = np.outer(g, y) - np.outer(y, g)
        np.testing.assert_allclose(outer, 0.0, atol=1e-10 * max(1.0, np.abs(g).max()))


def test_curvature_signs_of_space_forms():
    sphere = build(MetricSpec("round-sphere"))
    point = TangentPoint((0.2, -0.3), (1.1, 0.4))
    frame = MetricFrame(sphere, point, degree=6)
    assert frame.stack.Rscalar.value() == pytest.approx(frame.fsq.value(), rel=1e-9)

    hyper = build(MetricSpec("hyperbolic-ball", 3))
    point = TangentPoint((0.2, -0.1, 0.15), (0.6, 0.3, -0.5))
    frame = MetricFrame(hyper, point, degree=6)
    assert frame.stack.Rscalar.value() == pytest.approx(-frame.fsq.value(), rel=1e-9)


def test_conformal_curvature_matches_analytic_laplacian():
    # K = -e^{-2 lam} (lam_11 + lam_22); for lam = x1^2 that is -2 e^{-2 x1^2}
    metric = build(MetricSpec("conformal-flat-2d"))
    point = TangentPoint((0.3, -0.2), (0.7, 0.4))
    frame = MetricFrame(metric, point, degree=6)
    k = -2.0 * np.exp(-2.0 * point.x[0] ** 2)
    assert frame.stack.Rscalar.value() == pytest.approx(k * frame.fsq.value(), rel=1e-9)


def test_square_metric_homogeneity_toggle():
    good = build(MetricSpec("square-metric", 3))
    bad = build(MetricSpec("square-metric", 3, {"literal_inner": True}))
    point = TangentPoint((0.1, -0.05, 0.08), (0.5, 0.3, -0.4))
    doubled = TangentPoint(point.x, tuple(2.0 * v for v in point.y))
    f_good = MetricFrame(good, point, degree=2).fsq.value()
    f_good2 = MetricFrame(good, doubled, degree=2).fsq.value()
    assert f_good2 == pytest.approx(4.0 * f_good, rel=1e-12)
    f_bad = MetricFrame(bad, point, degree=2).fsq.value()
    f_bad2 = MetricFrame(bad, doubled, degree=2).fsq.value()
    assert abs(f_bad2 - 4.0 * f_bad) > 1e-3 * abs(f_bad)


def test_projective_perturbation_family():
    spray = build(
        MetricSpec(
            "projective-perturbation",
            3,
            {"base": "funk", "oneform": ["0.1*x1", "0.2*x2", "0"]},
        )
    )
    assert isinstance(spray, PerturbedSpray)
    point = TangentPoint((0.1, 0.2, -0.1), (0.5, -0.2, 0.3))
    G = spray.coefficients(point, 4)
    base = MetricFrame(build("funk"), point, degree=4).spray_coefficients
    p = 0.1 * point.x[0] * point.y[0] + 0.2 * point.x[1] * point.y[1]
    for i in range(3):
        assert G[i].value() == pytest.approx(base[i].value() + p * point.y[i], rel=1e-12)


def test_sampler_determinism_and_annulus():
    spec = MetricSpec("funk", 3)
    a = sample(spec, count=20, seed=7)
    b = sample(spec, count=20, seed=7)
    c = sample(spec, count=20, seed=8)
    assert a == b
    assert a != c
    for point in a:
        r = np.linalg.norm(point.y_array())
        assert 0.5 <= r <= 2.0
        assert np.linalg.norm(point.x) < 1.0


def test_sampler_respects_box():
    points = sample(MetricSpec("funk", 3), count=40, seed=2, box=("ball", 0.9))
    for point in points:
        assert np.linalg.norm(point.x) < 0.9


def test_derived_sprays_keep_the_base_box():
    base = build(MetricSpec("square-metric", 3))
    pert = PerturbedSpray(base, [lambda xs: 0.1 + 0.0 * xs[0]] * 3)
    for point in sample(pert, count=20, seed=4):
        assert np.linalg.norm(point.x) <= 0.25
    assert pert.default_box == base.default_box == ("ball", 0.25)


def test_sampler_rejection_error():
    class Never(catalog.Riemannian):
        def admissible(self, point):
            return False

    with pytest.raises(AdmissibilityError):
        sample(Never(3, lambda x: np.eye(3).tolist()), count=5, seed=0)


def test_family_listing():
    names = catalog.family_names()
    assert "funk" in names and "square-metric" in names
    info = catalog.family_summary("randers")
    assert info["default_dim"] == 3


@pytest.mark.parametrize("family, dim, given, text", [
    ("riemannian", 2, {"matrix": [["1 + x1^2", 0], [0, 2.5]]},
     {"matrix": [["1 + x1^2", "0"], ["0", "2.5"]]}),
    ("conformal-flat-2d", 2, {"lam": 3}, {"lam": "3"}),
    ("projective-perturbation", 3, {"base": "funk", "oneform": [0.1, 0, "0.05*x2"]},
     {"base": "funk", "oneform": ["0.1", "0", "0.05*x2"]}),
])
def test_a_number_parameter_is_its_constant_expression(family, dim, given, text):
    point = TangentPoint((0.1, -0.2, 0.15)[:dim], (0.9, -0.4, 0.7)[:dim])
    a, b = (build(MetricSpec(family, dim, params)) for params in (given, text))
    np.testing.assert_array_equal(a.coefficients(point, 4).coeffs,
                                  b.coefficients(point, 4).coeffs)
    assert a.metric.fsq_at(point.x)(point.y) == b.metric.fsq_at(point.x)(point.y)


_RIEMANNIAN3 = MetricSpec("riemannian", 3, {"matrix": [["exp(0.3*x1)", "0.1*x2", "0"],
                                                      ["0.1*x2", "1+x3^2", "0"],
                                                      ["0", "0", "1"]]})


@pytest.mark.parametrize("spec", ALL_METRIC_SPECS + [_RIEMANNIAN3],
                         ids=lambda s: s.family + str(s.dim))
def test_fsq_from_x_ring_seeds_equals_fsq_from_xy_ring_seeds(spec):
    # the frame expands data of x alone in ring(n, 7) and lifts it where it
    # meets y; every output of x alone reads only pairs of x alone
    metric = build(spec)
    n = metric.dim
    for point in sample(metric, count=3, seed=5):
        frame = MetricFrame(metric, point)
        assert frame.x[0].ring is jets.ring(n, 7) is frame.ring.xring
        ring = jets.ring(2 * n, 7)
        xs = [ring.seed(i, v) for i, v in enumerate(point.x)]
        ys = [ring.seed(n + i, v) for i, v in enumerate(point.y)]
        want = metric.fsq_at(xs)(ys)
        got = frame.fsq
        assert (got.valid, got.xvalid) == (want.valid, want.xvalid)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_perturbation_from_x_ring_seeds_equals_xy_ring_seeds():
    spray = build(MetricSpec("projective-perturbation", 3,
                             {"base": "randers", "oneform": ["0.1*x1*x2", "exp(x3)", "0.05"]}))
    point = sample(spray, count=1, seed=2)[0]
    G = spray.base.coefficients(point, 7)
    ring = G.ring
    xs = [ring.seed(i, v) for i, v in enumerate(point.x)]
    ys = jets.stack([ring.seed(3 + i, v) for i, v in enumerate(point.y)])
    p = sum((spray.oneform[m](xs) * ys[m] for m in range(3)), ring.const(0.0))
    want = G + p.truncate(G.valid) * ys
    assert spray.perturb(G, point).coeffs.tobytes() == want.coeffs.tobytes()
