"""Fixture-family tests: closed forms, admissibility, sampling."""

import numpy as np
import pytest

from spraylab import catalog
from spraylab.catalog import MetricSpec, build, sample
from spraylab.errors import AdmissibilityError, ConfigError
from spraylab.measures import VolumeForm
from spraylab.projective import ProjectiveSpray
from spraylab.geometry import (
    MetricFrame,
    PerturbedSpray,
    TangentPoint,
    fundamental_tensor,
    geodesic_coefficients,
    riemann,
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
        cur = riemann(metric.spray(), point)
        np.testing.assert_allclose(cur.Rik, 0.0, atol=1e-11)
        assert cur.Ric == pytest.approx(0.0, abs=1e-11)
        con_b = stack_for(metric.spray(), point, degree=5).B_values
        np.testing.assert_allclose(con_b, 0.0, atol=1e-11)


def test_funk_at_origin_is_euclidean_norm():
    metric = build(MetricSpec("funk", 3))
    point = TangentPoint((0.0, 0.0, 0.0), (0.4, -0.1, 0.2))
    frame = MetricFrame(metric, point, degree=2)
    assert frame.fsq.value() == pytest.approx(point.y_array() @ point.y_array(), rel=1e-12)


def test_funk_is_projectively_flat():
    metric = build(MetricSpec("funk", 3))
    for point in sample(metric, count=5, seed=3):
        G = geodesic_coefficients(metric, point, degree=3)
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
    base = geodesic_coefficients(build("funk"), point, degree=4)
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
        assert np.linalg.norm(point.x_array()) < 1.0


def test_sampler_respects_box():
    points = sample(MetricSpec("funk", 3), count=40, seed=2, box=("ball", 0.9))
    for point in points:
        assert np.linalg.norm(point.x_array()) < 0.9


def test_derived_sprays_keep_the_base_box():
    base = ProjectiveSpray(build(MetricSpec("square-metric", 3)).spray(), VolumeForm.coordinate())
    pert = PerturbedSpray(base, [lambda xs: 0.1 + 0.0 * xs[0]] * 3)
    for point in sample(pert, count=20, seed=4):
        assert np.linalg.norm(point.x_array()) <= 0.25
    assert pert.default_box == base.default_box == ("ball", 0.25)


def test_sampler_rejection_error():
    class Never(catalog.Euclidean):
        def admissible(self, point):
            return False

    with pytest.raises(AdmissibilityError):
        sample(Never(3), count=5, seed=0)


def test_family_listing():
    names = catalog.family_names()
    assert "funk" in names and "square-metric" in names
    info = catalog.family_summary("randers")
    assert info["default_dim"] == 3
