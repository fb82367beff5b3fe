"""Volume forms, S-curvature, tau, chi against closed-form oracles.

Key oracles: Busemann-Hausdorff densities of Euclidean, Riemannian, and
Randers inputs have closed forms (1, sqrt(det a), and the (1 - |b|^2)
formula); Riemannian metrics have S = 0 under their own volume; the Funk
metric has S = (n+1) F / 2 and chi = 0.
"""

import math

import numpy as np
import pytest

from spraylab import jets, measures
from spraylab.catalog import MetricSpec, build, sample
from spraylab.errors import AdmissibilityError, ConfigError, JetDomainError
from spraylab.geometry import MetricFrame, TangentPoint, stack_for
from spraylab.measures import (
    VolumeForm,
    as_volume,
    bh_density,
    chi,
    measure_stack,
    s_curvature,
    sphere_nodes,
    tau,
    unit_ball_volume,
)

SPHERE_AREAS = {2: 2.0 * math.pi, 3: 4.0 * math.pi, 4: 2.0 * math.pi**2}


# -- quadrature ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_nodes_integrate_low_moments(n):
    theta, w = sphere_nodes(n, 24)
    area = SPHERE_AREAS[n]
    assert w.sum() == pytest.approx(area, rel=1e-12)
    second = np.einsum("q,qi,qj->ij", w, theta, theta)
    np.testing.assert_allclose(second, area / n * np.eye(n), atol=1e-12 * area)


def test_sphere_nodes_are_cached_and_read_only():
    theta, w = sphere_nodes(3, 24)
    assert sphere_nodes(3, 24)[0] is theta
    with pytest.raises(ValueError):
        theta[0, 0] = 1.0
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_sphere_nodes_dim_and_count_limits():
    with pytest.raises(ConfigError):
        sphere_nodes(5, 24)
    with pytest.raises(ConfigError):
        sphere_nodes(3, 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bh_density_euclidean_is_unity(n):
    # unit ball of |y| is the round ball: sigma_BH = 1 and x-independent
    density = bh_density(build(MetricSpec("euclidean", n)), (0.1,) * n, nodes=24, degree=3)
    np.testing.assert_allclose(density.coeffs, 0.0, atol=1e-10)


def test_bh_density_riemannian_matches_sqrt_det():
    spec = MetricSpec(
        "riemannian",
        2,
        {"matrix": [["exp(0.3*x1)", "0.1*x2"], ["0.1*x2", "1"]]},
    )
    metric = build(spec)
    x = (0.2, -0.3)
    got = bh_density(metric, x, nodes=64, degree=3)
    ring = jets.ring(2, 3)
    xs = [ring.seed(i, x[i]) for i in range(2)]
    a = metric.matrix(xs)
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    want = 0.5 * jets.log(det)
    np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-10)


def randers_lnsigma_closed_form(metric, x, degree):
    # ln sigma_BH = (n+1)/2 ln(1 - |b|_a^2) + ln sqrt(det a), here n = 3
    ring = jets.ring(3, degree)
    xs = [ring.seed(i, x[i]) for i in range(3)]
    a = [list(row) for row in metric.a(xs)]
    b = metric.b(xs)
    det = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    bv = jets.stack(b)
    bn2 = (bv * jets.solve(jets.stack(a), bv)).einsum("i->")
    return 2.0 * jets.log(1.0 - bn2) + 0.5 * jets.log(det)


def test_bh_density_randers_closed_form():
    metric = build(MetricSpec("randers", 3))
    for x in [(0.1, -0.2, 0.15), (0.0, 0.3, -0.1)]:
        got = bh_density(metric, x, nodes=64, degree=3)
        want = randers_lnsigma_closed_form(metric, x, degree=3)
        np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-8)


def test_bh_density_node_doubling_drift():
    metric = build(MetricSpec("randers", 3))
    a = bh_density(metric, (0.1, 0.2, -0.1), nodes=64, degree=2)
    b = bh_density(metric, (0.1, 0.2, -0.1), nodes=128, degree=2)
    assert abs(a.value() - b.value()) < 1e-8


@pytest.mark.parametrize("family, dim", [("randers", 3), ("funk", 4)])
def test_bh_density_does_not_depend_on_block_size(monkeypatch, family, dim):
    metric = build(MetricSpec(family, dim))
    x = sample(metric, count=1, seed=2)[0].x
    want = bh_density(metric, x, nodes=16, degree=5)
    ndirs = len(sphere_nodes(dim, 16)[1])
    per_dir = 8 * int(jets.ring(dim, 5)._pairs_upto[5])
    batches = []
    sum_batch = jets.Jet.sum_batch
    monkeypatch.setattr(jets.Jet, "sum_batch",
                        lambda a, w: batches.append(a.batch_shape) or sum_batch(a, w))
    for block in (1, ndirs):
        batches.clear()
        monkeypatch.setattr(measures, "_BLOCK_BYTES", block * per_dir)
        got = bh_density(metric, x, nodes=16, degree=5)
        assert batches == [(block,)] * (ndirs // block)
        # ln sigma is the difference of two logs of order one (for funk it
        # is exactly 0, its indicatrices being translates of the domain),
        # so rounding is measured against 1 where the jet itself is smaller
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-13,
                                   atol=1e-13 * max(1.0, np.abs(want.coeffs).max()))


def test_bh_density_rejects_bad_directions():
    class Half(build(MetricSpec("euclidean", 2)).__class__):
        def fsq(self, x, y):
            return y[0] * y[0] - 0.5 * (y[1] * y[1])

    with pytest.raises(AdmissibilityError):
        bh_density(Half(2), (0.0, 0.0), nodes=24, degree=2)


# -- volume forms -------------------------------------------------------------


def test_volume_form_validation():
    with pytest.raises(ConfigError):
        as_volume("nope")
    with pytest.raises(ConfigError):
        VolumeForm.explicit(None)
    with pytest.raises(ConfigError):
        VolumeForm.scaled(None, None)
    vol = VolumeForm.explicit("x1")
    with pytest.raises(JetDomainError):
        vol.lnsigma_jet(None, (-0.5, 0.1), 2)
    assert as_volume("busemann-hausdorff", nodes=32).describe() == "busemann-hausdorff(32)"


def test_bh_volume_without_metric():
    vol = VolumeForm.busemann_hausdorff()
    with pytest.raises(ConfigError):
        vol.lnsigma_jet(None, (0.0, 0.0), 2)


# -- S-curvature --------------------------------------------------------------


def test_s_vanishes_flat_coordinate():
    metric = build(MetricSpec("euclidean", 3))
    point = TangentPoint((0.1, 0.2, -0.3), (0.5, -0.4, 0.8))
    s = s_curvature(metric, VolumeForm.coordinate(), point, degree=4)
    np.testing.assert_allclose(s.coeffs, 0.0, atol=1e-13)


@pytest.mark.parametrize(
    "spec",
    [MetricSpec("round-sphere"), MetricSpec("hyperbolic-ball", 3)],
    ids=lambda s: s.family,
)
def test_riemannian_s_vanishes_under_own_volume(spec):
    metric = build(spec)
    vol = VolumeForm.busemann_hausdorff(nodes=32)
    for point in sample(metric, count=3, seed=1):
        ms = measure_stack(metric, vol, point, degree=6)
        assert abs(ms.S.value()) < 1e-8
        grad = ms.S.gradient()
        np.testing.assert_allclose(grad, 0.0, atol=1e-7)
        np.testing.assert_allclose(ms.chi_values("fromT"), 0.0, atol=1e-9)


def test_funk_s_curvature_closed_form():
    metric = build(MetricSpec("funk", 3))
    vol = VolumeForm.busemann_hausdorff(nodes=48)
    for point in sample(metric, count=3, seed=2):
        frame = MetricFrame(metric, point, degree=5)
        want = 2.0 * math.sqrt(frame.fsq.value())
        got = s_curvature(metric, vol, point, degree=5).value()
        assert got == pytest.approx(want, rel=1e-6)


def test_s_homogeneity():
    metric = build(MetricSpec("funk", 3))
    vol = VolumeForm.explicit("exp(x1)")
    point = TangentPoint((0.1, -0.2, 0.2), (0.4, 0.5, -0.3))
    doubled = TangentPoint(point.x, tuple(2.0 * v for v in point.y))
    s1 = s_curvature(metric, vol, point, degree=4).value()
    s2 = s_curvature(metric, vol, doubled, degree=4).value()
    assert s2 == pytest.approx(2.0 * s1, rel=1e-10)


def test_volume_change_is_affine_in_f():
    # dV = e^{(n+1) f} dV~  ==>  S = S~ - (n+1) f_{x^m} y^m, exactly
    metric = build(MetricSpec("randers", 3))
    point = TangentPoint((0.1, -0.15, 0.2), (0.6, 0.3, -0.5))
    base = VolumeForm.explicit("exp(x1)")
    scaled = VolumeForm.scaled(base, "0.1*x1*x2", sign=1)
    s_base = s_curvature(metric, base, point, degree=5)
    s_scaled = s_curvature(metric, scaled, point, degree=5)
    diff = s_scaled - s_base
    # -(n+1) f_0 for f = 0.1 x1 x2
    f0 = 0.1 * (point.x[1] * point.y[0] + point.x[0] * point.y[1])
    assert diff.value() == pytest.approx(-4.0 * f0, abs=1e-12)
    grad = diff.gradient()
    want_y = -0.4 * np.array([point.x[1], point.x[0], 0.0])
    np.testing.assert_allclose(grad[3:], want_y, atol=1e-12)


# -- tau ----------------------------------------------------------------------


def test_tau_zero_on_flat():
    metric = build(MetricSpec("euclidean", 3))
    point = TangentPoint((0.2, 0.1, -0.1), (0.3, -0.5, 0.4))
    assert tau(metric, VolumeForm.coordinate(), point, degree=5) == pytest.approx(0.0, abs=1e-13)


def test_tau_is_two_homogeneous():
    metric = build(MetricSpec("funk", 3))
    vol = VolumeForm.busemann_hausdorff(nodes=32)
    point = TangentPoint((0.1, 0.15, -0.2), (0.5, -0.3, 0.4))
    doubled = TangentPoint(point.x, tuple(2.0 * v for v in point.y))
    t1 = tau(metric, vol, point, degree=5)
    t2 = tau(metric, vol, doubled, degree=5)
    assert t2 == pytest.approx(4.0 * t1, rel=1e-9)


# -- chi ----------------------------------------------------------------------


def test_chi_routes_agree():
    metric = build(MetricSpec("randers", 3))
    vol = VolumeForm.explicit("exp(0.5*x1)")
    for point in sample(metric, count=4, seed=3):
        ms = measure_stack(metric, vol, point, degree=6)
        routes = {r: ms.chi_values(r) for r in ("fromS", "fromT", "fromR")}
        scale = max(np.abs(v).max() for v in routes.values()) + 1e-12
        for a in routes.values():
            for b in routes.values():
                np.testing.assert_allclose(a, b, atol=1e-7 * scale + 1e-9)


def test_chi_independent_of_volume():
    metric = build(MetricSpec("randers", 3))
    point = TangentPoint((0.05, -0.1, 0.2), (0.7, 0.2, -0.4))
    values = [
        chi(metric, vol, point, route="fromS", degree=6)
        for vol in (
            VolumeForm.coordinate(),
            VolumeForm.explicit("exp(x1*x2)"),
            VolumeForm.busemann_hausdorff(nodes=32),
        )
    ]
    scale = max(np.abs(v).max() for v in values) + 1e-12
    np.testing.assert_allclose(values[0], values[1], atol=1e-9 * scale + 1e-12)
    np.testing.assert_allclose(values[0], values[2], atol=1e-7 * scale + 1e-9)


def test_chi_kills_y_and_vanishes_on_funk():
    metric = build(MetricSpec("funk", 3))
    vol = VolumeForm.busemann_hausdorff(nodes=32)
    for point in sample(metric, count=3, seed=4):
        values = chi(metric, vol, point, route="fromS", degree=6)
        assert abs(values @ point.y_array()) < 1e-8
        np.testing.assert_allclose(values, 0.0, atol=1e-7)


def test_chi_route_validation():
    metric = build(MetricSpec("euclidean", 3))
    point = TangentPoint((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        chi(metric, VolumeForm.coordinate(), point, route="bogus", degree=6)


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)
