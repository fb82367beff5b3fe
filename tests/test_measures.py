"""Volume forms, S-curvature, tau, chi against closed-form oracles.

Key oracles: Busemann-Hausdorff densities of Euclidean, Riemannian, and
Randers inputs have closed forms (1, sqrt(det a), and the (1 - |b|^2)
formula); Riemannian metrics have S = 0 under their own volume; the Funk
metric has S = (n+1) F / 2 and chi = 0.
"""

import gc
import itertools
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import spraylab
from spraylab import catalog, jets, measures
from spraylab.catalog import MetricSpec, build, sample
from spraylab.errors import AdmissibilityError, ConfigError
from spraylab.geometry import FinslerMetric, MetricFrame, TangentPoint
from spraylab.measures import (
    VolumeForm,
    _bh_rule,
    as_volume,
    bh_density,
    sphere_nodes,
    unit_ball_volume,
)
from spraylab.projective import LNSIGMA_XDEGREE, PointContext

SPHERE_AREAS = {2: 2.0 * math.pi, 3: 4.0 * math.pi, 4: 2.0 * math.pi**2}


# -- quadrature ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_nodes_integrate_low_moments(n):
    theta, w = sphere_nodes(n, 24)
    area = SPHERE_AREAS[n]
    assert w.sum() == pytest.approx(area, rel=1e-12)
    second = np.einsum("q,qi,qj->ij", w, theta, theta)
    np.testing.assert_allclose(second, area / n * np.eye(n), atol=1e-12 * area)


def _sphere_moment(alpha):
    """Integral of y^alpha over S^{n-1}: 0 for an odd power, else 2 prod Gamma(b_i) / Gamma(sum b_i)."""
    if any(k % 2 for k in alpha):
        return 0.0
    beta = [(k + 1) / 2 for k in alpha]
    return 2.0 * math.prod(math.gamma(b) for b in beta) / math.gamma(sum(beta))


# 32 nodes in dim 4 would need a 3.9 GB monomial matrix
@pytest.mark.parametrize("n, nodes", [(3, 8), (3, 9), (3, 16), (3, 17), (3, 32),
                                      (4, 8), (4, 9), (4, 16), (4, 17)])
def test_sphere_rule_is_exact_to_degree_nodes_minus_one(n, nodes):
    # ceil(nodes / 2) Gauss nodes in each polar coordinate times nodes
    # trapezoid nodes in phi; an odd count needs the ceiling to reach
    # degree nodes - 1
    theta, w = sphere_nodes(n, nodes)
    assert len(w) == nodes * math.ceil(nodes / 2) ** (n - 2)
    alphas = np.array([a for a in itertools.product(range(nodes + 1), repeat=n)
                       if sum(a) <= nodes])
    powers = theta[:, :, None] ** np.arange(nodes + 1)
    monomials = powers[:, 0, alphas[:, 0]]
    for i in range(1, n):
        monomials *= powers[:, i, alphas[:, i]]
    error = np.abs(w @ monomials - [_sphere_moment(a) for a in alphas])
    degree = alphas.sum(axis=1)
    tol = 1e-13 * SPHERE_AREAS[n]
    assert error[degree <= nodes - 1].max() <= tol
    assert error[degree == nodes].max() > 100 * tol


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


@pytest.mark.parametrize("n, nodes", [(4, 1024), (4, 128), (3, 1025), (3, 4)])
def test_oversized_sphere_rule_is_refused_before_allocating(monkeypatch, n, nodes):
    def leggauss(count):
        raise AssertionError(f"leggauss({count}) reached")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
    with pytest.raises(ConfigError, match="nodes per angle"):
        sphere_nodes(n, nodes)
    metric = build(MetricSpec("euclidean", n))
    with pytest.raises(ConfigError, match="nodes per angle"):
        bh_density(metric, (0.0,) * n, nodes=nodes)


def test_sphere_rule_cap_keeps_the_documented_rules():
    # dim 4 at the default 64 nodes and dim 3 at 128 stay buildable
    for n, nodes in [(4, 64), (3, 128), (3, 1024), (2, 2**20)]:
        measures._check_rule(n, nodes)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bh_density_euclidean_is_unity(n):
    # unit ball of |y| is the round ball: sigma_BH = 1 and x-independent
    density = bh_density(build(MetricSpec("euclidean", n)), (0.1,) * n, nodes=24, degree=3)
    np.testing.assert_allclose(density.coeffs, 0.0, atol=1e-10)


def test_bh_density_of_an_f2_without_x_is_one_constant_jet():
    # the directions are arrays, so an F^2 that does not depend on x is one too
    density = bh_density(build("euclidean"), (0.1, -0.2, 0.3))
    assert (density.nzdeg, density.valid) == (0, 3)
    assert not density.coeffs[1:].any()
    assert abs(density.value()) <= 1e-14


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


def cofactor_det(a):
    """Determinant of a square nested list of jets, by cofactors of the first row."""
    if len(a) == 1:
        return a[0][0]
    det = 0.0
    for j, entry in enumerate(a[0]):
        term = entry * cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
        det = det + term if j % 2 == 0 else det - term
    return det


def randers_lnsigma_closed_form(metric, x, degree):
    # dV_BH = (1 - |b|_a^2)^{(n+1)/2} dV_a (Chern & Shen, Riemann-Finsler
    # Geometry, 2005), so ln sigma_BH = (n+1)/2 ln(1 - |b|_a^2) + ln sqrt(det a)
    n = metric.dim
    ring = jets.ring(n, degree)
    xs = [ring.seed(i, x[i]) for i in range(n)]

    def as_jet(entry):  # the constant preset hands back plain floats
        return entry if isinstance(entry, jets.Jet) else ring.const(entry)

    a = [[as_jet(entry) for entry in row] for row in metric.a(xs)]
    bv = jets.stack([as_jet(entry) for entry in metric.b(xs)])
    bn2 = (bv * jets.solve(jets.stack([jets.stack(row) for row in a]), bv)).einsum("i->")
    return 0.5 * (n + 1.0) * jets.log(1.0 - bn2) + 0.5 * jets.log(cofactor_det(a))


def test_bh_density_randers_closed_form():
    metric = build(MetricSpec("randers", 3))
    for x in [(0.1, -0.2, 0.15), (0.0, 0.3, -0.1)]:
        got = bh_density(metric, x, nodes=64, degree=3)
        want = randers_lnsigma_closed_form(metric, x, degree=3)
        np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-8)


@pytest.mark.parametrize("dim, params", [(3, {}), (2, {"preset": "constant"})],
                         ids=["generic-3", "constant-2"])
def test_bh_density_matches_the_randers_closed_form_to_rounding(dim, params):
    # the whole degree-5 jet of the adaptive density, not just its low orders
    metric = build(MetricSpec("randers", dim, params))
    for point in sample(metric, count=3, seed=7):
        got = bh_density(metric, point.x, degree=5)
        want = randers_lnsigma_closed_form(metric, point.x, degree=5)
        assert got.coeffs.shape == want.coeffs.shape
        bound = 1e-13 * max(1.0, np.abs(want.coeffs).max())
        assert np.abs(got.coeffs - want.coeffs).max() <= bound


def test_bh_density_node_doubling_drift():
    # the fixed rules: the adaptive density stops at the same rule under
    # either cap, so comparing it would measure nothing
    metric = build(MetricSpec("randers", 3))
    a = _bh_rule(metric, (0.1, 0.2, -0.1), 64, 2)
    b = _bh_rule(metric, (0.1, 0.2, -0.1), 128, 2)
    assert abs(a.value() - b.value()) < 1e-8


def test_adaptive_bh_density_matches_a_finer_fixed_rule():
    metric = build(MetricSpec("randers", 3))
    for point in sample(metric, count=30, seed=0):
        got = bh_density(metric, point.x, degree=5)
        want = _bh_rule(metric, point.x, 96, 5)
        bound = 1e-12 * max(1.0, np.abs(want.coeffs).max())
        assert np.abs(got.coeffs - want.coeffs).max() <= bound


# S^2 x S^2: a = diag(p, p, q, q), with p and q the stereographic factors
# of two unit spheres
_P, _Q = "4/(1+x1^2+x2^2)^2", "4/(1+x3^2+x4^2)^2"
_DIM4_BH_SPECS = [
    MetricSpec("riemannian", 4, {"matrix": [[_P, "0", "0", "0"], ["0", _P, "0", "0"],
                                            ["0", "0", _Q, "0"], ["0", "0", "0", _Q]]}),
    MetricSpec("riemannian", 4, {"matrix": [
        ["exp(0.3*x1)", "0.1*x2", "0", "0.05*x3"], ["0.1*x2", "1 + x4^2", "0.1*x1*x3", "0"],
        ["0", "0.1*x1*x3", "1 + 0.2*x2^2", "0.1*x4"], ["0.05*x3", "0", "0.1*x4", "1"]]}),
    MetricSpec("randers", 4, {"preset": "constant",
                              "a": [[2, 0.3, 0, 0.1], [0.3, 1.5, 0.2, 0], [0, 0.2, 1, 0.1],
                                    [0.1, 0, 0.1, 1.2]],
                              "b": [0.2, -0.1, 0.15, 0.05]}),
    MetricSpec("funk", 4),
    MetricSpec("fourth-root", 4),
]


def _dim4_bh_reference(metric, x):
    """ln sigma_BH at x from its closed form, or from a fine fixed rule where there is none."""
    ring = jets.ring(4, LNSIGMA_XDEGREE)
    family = metric.spec.family
    if family == "riemannian":
        return 0.5 * jets.log(cofactor_det(metric.matrix([ring.seed(i, x[i]) for i in range(4)])))
    if family == "randers":
        return randers_lnsigma_closed_form(metric, x, LNSIGMA_XDEGREE)
    if family == "funk":  # its indicatrices are translates of the domain
        return ring.const(0.0)
    return _bh_rule(metric, x, 96, LNSIGMA_XDEGREE)


@pytest.mark.parametrize("spec", _DIM4_BH_SPECS,
                         ids=["s2xs2", "riemannian-coupled", "randers-constant", "funk",
                              "fourth-root"])
def test_adaptive_bh_density_matches_closed_forms_in_dim_4(spec):
    metric = build(spec)
    for point in sample(metric, count=5, seed=3):
        rules = []
        got = bh_density(metric, point.x, degree=LNSIGMA_XDEGREE, rules=rules)
        want = _dim4_bh_reference(metric, point.x)
        (_, change), = rules
        assert got.coeffs.shape == want.coeffs.shape
        bound = max(change, 1e-13 * max(1.0, np.abs(want.coeffs).max()))
        assert np.abs(got.coeffs - want.coeffs).max() <= bound


def _bh_specs():
    """Every catalog family that builds a Finsler metric in dim 2 or 3, with
    parameters where its defaults build none in that dimension."""
    params = {
        ("riemannian", 2): {"matrix": [["exp(0.3*x1)", "0.1*x2"], ["0.1*x2", "1"]]},
        ("riemannian", 3): {"matrix": [["exp(0.3*x1)", "0.1*x2", "0"], ["0.1*x2", "1", "0"],
                                       ["0", "0", "1 + x3^2"]]},
        ("randers", 2): {"preset": "constant"},
        ("fourth-root", 2): {"n1": 1, "n2": 1},
        ("fourth-root", 3): {"n1": 1, "n2": 2},
    }
    specs = []
    for family in catalog.family_names():
        for dim in (2, 3):
            spec = MetricSpec(family, dim, params.get((family, dim), {}))
            try:
                metric = build(spec)
            except ConfigError:
                continue
            if isinstance(metric, FinslerMetric):
                specs.append(spec)
    return specs


@pytest.mark.parametrize("spec", _bh_specs(), ids=lambda spec: f"{spec.family}-{spec.dim}")
def test_adaptive_bh_density_is_within_its_reported_change(spec):
    metric = build(spec)
    for point in sample(metric, count=5, seed=3):
        rules = []
        got = bh_density(metric, point.x, degree=5, rules=rules)
        want = _bh_rule(metric, point.x, 96, 5)
        (_, change), = rules
        bound = max(change, 1e-13 * max(1.0, np.abs(want.coeffs).max()))
        assert np.abs(got.coeffs - want.coeffs).max() <= bound


@pytest.mark.parametrize("spec", _bh_specs(), ids=lambda spec: f"{spec.family}-{spec.dim}")
def test_adaptive_bh_density_at_the_read_x_degree_is_within_its_reported_change(spec):
    # the degree the pipeline asks for, held to the bound of the degree-5 test
    metric = build(spec)
    for point in sample(metric, count=5, seed=3):
        rules = []
        got = bh_density(metric, point.x, degree=LNSIGMA_XDEGREE, rules=rules)
        want = _bh_rule(metric, point.x, 96, LNSIGMA_XDEGREE)
        (_, change), = rules
        bound = max(change, 1e-13 * max(1.0, np.abs(want.coeffs).max()))
        assert np.abs(got.coeffs - want.coeffs).max() <= bound


def test_bh_node_count_depends_on_the_point():
    metric = build(MetricSpec("square-metric", 3))
    points = sample(metric, count=3, seed=0)
    rules = []
    for point in (points[0], points[2]):
        bh_density(metric, point.x, degree=5, rules=rules)
    (easy, easy_change), (hard, hard_change) = rules
    assert (easy, hard) == (32, 64)
    assert easy_change is not None and hard_change is not None


def test_bh_density_at_sixteen_nodes_is_one_fixed_rule():
    metric = build(MetricSpec("randers", 3))
    x = sample(metric, count=1, seed=5)[0].x
    rules = []
    got = bh_density(metric, x, nodes=16, degree=5, rules=rules)
    assert rules == [(16, None)]
    assert np.array_equal(got.coeffs, _bh_rule(metric, x, 16, 5).coeffs)


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


def _randers_bh_point():
    metric = build(MetricSpec("randers", 3))
    return metric, sample(metric, count=1, seed=2)[0].x


def test_bh_density_sums_directions_in_wide_blocks(monkeypatch):
    # the 8 * 16 + 16 * 32 directions of this point fill 2 + 8 blocks of
    # at most 70; blocks of 35 (128 KB) would need 4 + 15
    metric, x = _randers_bh_point()
    blocks = []
    sum_batch = jets.Jet.sum_batch
    monkeypatch.setattr(jets.Jet, "sum_batch",
                        lambda a, w: blocks.append(len(w)) or sum_batch(a, w))
    rules = []
    bh_density(metric, x, degree=5, rules=rules)
    assert rules[0][0] == 32 and sum(blocks) == 8 * 16 + 16 * 32
    assert len(blocks) <= 10


def test_bh_rule_binds_the_metric_data_once(monkeypatch):
    # a(x) is an exp recurrence per diagonal entry; it was rebuilt per block
    metric, x = _randers_bh_point()
    calls = []
    a = metric.a
    monkeypatch.setattr(metric, "a", lambda xs: calls.append("a") or a(xs))
    rules = []
    bh_rule = measures._bh_rule
    monkeypatch.setattr(measures, "_bh_rule",
                        lambda *args: rules.append(args[2]) or bh_rule(*args))
    bh_density(metric, x, degree=5)
    assert rules == [16, 32] and len(calls) == 2


_FAULT_PROBE = """
import resource
from spraylab.catalog import MetricSpec, build, sample
from spraylab.measures import bh_density
from spraylab.verify import identity_suite
identity_suite("randers", "bh", points=1, seed=1)
metric = build(MetricSpec("randers", 3))
x = sample(metric, count=1, seed=2)[0].x
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
bh_density(metric, x, degree=5)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_warm_bh_density_faults_in_no_fresh_pages():
    # blocks whose multiply temporaries outgrow what the allocator keeps
    # are faulted in afresh: about 1,780 minor faults per density at a
    # 512 KB block budget, though some heap layouts (the install path alone
    # changes it) show none.  glibc's mmap and trim thresholds follow the
    # process's own history, so the probe runs in a fresh interpreter
    # warmed by one verify point, as a CLI run is.
    env = dict(os.environ, PYTHONPATH=str(Path(spraylab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) <= 500


def test_bh_density_rejects_bad_directions():
    class Half(FinslerMetric):
        dim = 2

        def fsq_at(self, x):
            def fsq(y):
                return y[0] * y[0] - 0.5 * (y[1] * y[1])

            return fsq

    with pytest.raises(AdmissibilityError):
        bh_density(Half(), (0.0, 0.0), nodes=24, degree=2)


# -- volume forms -------------------------------------------------------------


def test_volume_form_validation():
    with pytest.raises(ConfigError):
        as_volume("nope")
    with pytest.raises(ConfigError):
        VolumeForm("explicit")
    vol = VolumeForm("explicit", "x1")
    with pytest.raises(AdmissibilityError,
                       match=r"^volume explicit:x1 is not positive at x = \(-0\.5, 0\.1\): "
                             r"sigma = -0\.5$"):
        vol.lnsigma_jet(None, (-0.5, 0.1), 2)
    # a form's description is its spec, so a run record's volume reads back
    for spec in ("coordinate", "bh", "explicit:exp(x1)"):
        vol = as_volume(spec)
        assert as_volume(vol.describe()) == vol
    assert as_volume("bh").describe() == "busemann-hausdorff"


def test_volume_form_is_a_plain_value():
    assert vars(as_volume("bh")) == {"kind": "busemann-hausdorff", "sigma": None}
    # a constant density is a constant jet, not a float
    lnsigma = VolumeForm("explicit", "2").lnsigma_jet(None, (0.1, 0.2), 2)
    assert lnsigma.value() == math.log(2.0)
    np.testing.assert_array_equal(lnsigma.gradient(), 0.0)


def test_point_context_owns_the_density():
    metric = build(MetricSpec("randers", 3))
    point = sample(metric, count=1, seed=1)[0]
    assert PointContext(metric, None, point).volume.kind == "coordinate"
    ctx = PointContext(metric, "bh", point, degree=5)
    assert ctx.volume.describe() == "busemann-hausdorff"
    # chi depends on the spray alone and needs no density
    ctx.stack.chi.value()
    assert ctx.rules == []
    ctx.proj.hat_measure.S
    ctx.measure.rescaled("0.1*x1").S
    ctx.proj_for("explicit:exp(x1)").measure.S
    assert [nodes for nodes, _ in ctx.rules] == [32]
    # the context's own form, asked for again, runs no second rule
    ctx.proj_for(VolumeForm("busemann-hausdorff")).measure.S
    assert len(ctx.rules) == 1


def test_point_context_is_freed_by_reference_counting():
    # a reference cycle would keep every point's jets until the cyclic
    # collector runs, so peak memory would grow with the points of a run
    metric = build(MetricSpec("randers", 3))
    point = sample(metric, count=1, seed=1)[0]
    gc.disable()
    try:
        ctx = PointContext(metric, "bh", point, degree=5)
        ctx.proj.hat_measure.S
        ctx.measure.rescaled("0.1*x1").S
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_bh_volume_without_metric():
    vol = VolumeForm("busemann-hausdorff")
    with pytest.raises(ConfigError):
        vol.lnsigma_jet(None, (0.0, 0.0), 2)


# -- S-curvature --------------------------------------------------------------


def test_s_vanishes_flat_coordinate():
    metric = build(MetricSpec("euclidean", 3))
    point = TangentPoint((0.1, 0.2, -0.3), (0.5, -0.4, 0.8))
    s = PointContext(metric, VolumeForm("coordinate"), point, degree=4).measure.S
    np.testing.assert_allclose(s.coeffs, 0.0, atol=1e-13)


@pytest.mark.parametrize(
    "spec",
    [MetricSpec("round-sphere"), MetricSpec("hyperbolic-ball", 3)],
    ids=lambda s: s.family,
)
def test_riemannian_s_vanishes_under_own_volume(spec):
    metric = build(spec)
    vol = VolumeForm("busemann-hausdorff")
    for point in sample(metric, count=3, seed=1):
        ms = PointContext(metric, vol, point, degree=6).measure
        assert abs(ms.S.value()) < 1e-8
        grad = ms.S.gradient()
        np.testing.assert_allclose(grad, 0.0, atol=1e-7)
        np.testing.assert_allclose(ms.stack.chi_from_T, 0.0, atol=1e-9)


def test_funk_s_curvature_closed_form():
    metric = build(MetricSpec("funk", 3))
    vol = VolumeForm("busemann-hausdorff")
    for point in sample(metric, count=3, seed=2):
        frame = MetricFrame(metric, point, degree=5)
        want = 2.0 * math.sqrt(frame.fsq.value())
        got = PointContext(metric, vol, point, degree=5).measure.S.value()
        assert got == pytest.approx(want, rel=1e-6)


def test_s_homogeneity():
    metric = build(MetricSpec("funk", 3))
    vol = VolumeForm("explicit", "exp(x1)")
    point = TangentPoint((0.1, -0.2, 0.2), (0.4, 0.5, -0.3))
    doubled = TangentPoint(point.x, tuple(2.0 * v for v in point.y))
    s1 = PointContext(metric, vol, point, degree=4).measure.S.value()
    s2 = PointContext(metric, vol, doubled, degree=4).measure.S.value()
    assert s2 == pytest.approx(2.0 * s1, rel=1e-10)


def test_volume_change_is_affine_in_f():
    # dV = e^{(n+1) f} dV~  ==>  S = S~ - (n+1) f_{x^m} y^m, exactly
    metric = build(MetricSpec("randers", 3))
    point = TangentPoint((0.1, -0.15, 0.2), (0.6, 0.3, -0.5))
    ms = PointContext(metric, VolumeForm("explicit", "exp(x1)"), point, degree=5).measure
    diff = ms.S - ms.rescaled("0.1*x1*x2").S
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
    tau = PointContext(metric, VolumeForm("coordinate"), point, degree=5).measure.tau
    assert tau.value() == pytest.approx(0.0, abs=1e-13)


def test_tau_is_two_homogeneous():
    metric = build(MetricSpec("funk", 3))
    vol = VolumeForm("busemann-hausdorff")
    point = TangentPoint((0.1, 0.15, -0.2), (0.5, -0.3, 0.4))
    doubled = TangentPoint(point.x, tuple(2.0 * v for v in point.y))
    t1 = PointContext(metric, vol, point, degree=5).measure.tau.value()
    t2 = PointContext(metric, vol, doubled, degree=5).measure.tau.value()
    assert t2 == pytest.approx(4.0 * t1, rel=1e-9)


# -- chi ----------------------------------------------------------------------


def test_chi_routes_agree():
    metric = build(MetricSpec("randers", 3))
    vol = VolumeForm("explicit", "exp(0.5*x1)")
    for point in sample(metric, count=4, seed=3):
        ms = PointContext(metric, vol, point, degree=6).measure
        routes = {"fromS": ms.chi_from_S, "fromT": ms.stack.chi_from_T,
                  "fromR": ms.stack.chi.value()}
        scale = max(np.abs(v).max() for v in routes.values()) + 1e-12
        for a in routes.values():
            for b in routes.values():
                np.testing.assert_allclose(a, b, atol=1e-7 * scale + 1e-9)


@pytest.mark.parametrize("spec", [MetricSpec("randers", 3), MetricSpec("funk", 4)],
                         ids=lambda spec: f"{spec.family}-{spec.dim}")
def test_s_one_form_derivative_along_y(spec):
    # S_{.k|m} y^m = ((S_{.k})_{x^m} - N^l_m (S_{.k})_{.l}) y^m - S_{.l} N^l_k,
    # the partials taken entry by entry
    metric = build(spec)
    vol = VolumeForm("explicit", "exp(0.5*x1)")
    for point in sample(metric, count=3, seed=5):
        ms = PointContext(metric, vol, point).measure
        st, n, y = ms.stack, spec.dim, point.y_array()
        N = st.N.value()
        sv = ms.S.grad(st.ys)
        grads = [sv[k].gradient() for k in range(n)]
        partials = np.array([(g[:n] - g[n:] @ N) @ y for g in grads])
        connection = ms.S_v @ N
        got = st.hcov_values(sv) @ y
        scale = max(np.abs(partials).max(), np.abs(connection).max())
        assert scale > 1e-3  # the connection term is not vacuous
        np.testing.assert_allclose(got, partials - connection, rtol=0.0, atol=1e-12 * scale)


def test_chi_independent_of_volume():
    metric = build(MetricSpec("randers", 3))
    point = TangentPoint((0.05, -0.1, 0.2), (0.7, 0.2, -0.4))
    values = [
        PointContext(metric, vol, point, degree=6).measure.chi_from_S
        for vol in (
            VolumeForm("coordinate"),
            VolumeForm("explicit", "exp(x1*x2)"),
            VolumeForm("busemann-hausdorff"),
        )
    ]
    scale = max(np.abs(v).max() for v in values) + 1e-12
    np.testing.assert_allclose(values[0], values[1], atol=1e-9 * scale + 1e-12)
    np.testing.assert_allclose(values[0], values[2], atol=1e-7 * scale + 1e-9)


def test_chi_kills_y_and_vanishes_on_funk():
    metric = build(MetricSpec("funk", 3))
    vol = VolumeForm("busemann-hausdorff")
    for point in sample(metric, count=3, seed=4):
        values = PointContext(metric, vol, point, degree=6).measure.chi_from_S
        assert abs(values @ point.y_array()) < 1e-8
        np.testing.assert_allclose(values, 0.0, atol=1e-7)


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)
