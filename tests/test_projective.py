"""Projective spray, Weyl tensor, and the four Berwald-Weyl routes.

The routes act as each other's oracles: `definition` runs entirely on the
hat connection, `viaBase` entirely on the base connection, and the two
divergence forms mix jets and connection values differently, so agreement
is a strong end-to-end check.  Closed-form anchors: scalar-curvature
metrics (Funk, square metric) must give W = 0 and W^o = 0 for any volume,
constant-curvature surfaces give W^o = 0, and the Einstein-surface
formula is compared against an analytic Gauss-curvature oracle.
"""

import itertools

import numpy as np
import pytest

from spraylab import jets
from spraylab.catalog import Randers, build
from spraylab.errors import AdmissibilityError, ConfigError, DegreeBudgetError
from spraylab.geometry import (
    MetricFrame,
    PerturbedSpray,
    TangentPoint,
    stack_for,
)
from spraylab.measures import VolumeForm
from spraylab.projective import (
    PointContext,
    ProjectiveStack,
    einstein_wo,
    volume_change,
)

PT3 = TangentPoint((0.11, -0.07, 0.15), (0.9, -0.4, 0.7))
PT2 = TangentPoint((0.2, -0.3), (1.1, 0.4))
PT_FUNK = TangentPoint((0.12, -0.2, 0.05), (0.7, 0.3, -0.5))


def volumes3():
    return [
        VolumeForm("coordinate"),
        VolumeForm("explicit", "exp(0.1*x2)"),
        VolumeForm("busemann-hausdorff"),
    ]


def randers_stack(volume):
    return PointContext(build("randers"), volume, PT3).proj


def rik_array(stack):
    """R^i_k rebuilt entry by entry."""
    n = stack.n
    return jets.stack([jets.stack([stack.Rik[i][k] for k in range(n)]) for i in range(n)])


def s_vderivs(measure):
    n = measure.n
    return np.array([measure.S.grad(n + m).value() for m in range(n)])


# -- hat spray ------------------------------------------------------------------


def test_euclidean_hat_spray_vanishes():
    ps = PointContext(build("euclidean"), VolumeForm("coordinate"), PT3).proj
    for jet in ps.Ghat:
        np.testing.assert_allclose(jet.coeffs, 0.0, atol=1e-15)


@pytest.mark.parametrize("volume", volumes3(), ids=lambda v: v.kind)
def test_hat_s_curvature_and_chi_vanish(volume):
    ps = randers_stack(volume)
    scale = abs(ps.measure.S.value()) + 1.0
    assert abs(ps.hat_measure.S.value()) <= 1e-12 * scale
    np.testing.assert_allclose(ps.hat.chi.value(), 0.0, atol=1e-12)


def test_hat_nonlinear_connection_formula():
    ps = randers_stack(VolumeForm("explicit", "exp(0.1*x2)"))
    n, y = ps.n, ps.point.y_array()
    sm = s_vderivs(ps.measure)
    frac = 1.0 / (n + 1.0)
    expected = (
        ps.base.N.value()
        - frac * ps.measure.S.value() * np.eye(n)
        - frac * np.outer(y, sm)
    )
    np.testing.assert_allclose(ps.hat.N.value(), expected, atol=1e-9)


def test_hat_berwald_connection_formula():
    ps = randers_stack(VolumeForm("explicit", "exp(0.1*x2)"))
    n, y = ps.n, ps.point.y_array()
    sm = s_vderivs(ps.measure)
    svv = np.array(
        [[ps.measure.S.grad(n + k).grad(n + j).value() for k in range(n)] for j in range(n)]
    )
    frac = 1.0 / (n + 1.0)
    expected = np.array(ps.base.Gamma.value())
    for i, j, k in itertools.product(range(n), repeat=3):
        expected[i, j, k] -= frac * (
            sm[k] * (i == j) + sm[j] * (i == k) + svv[j, k] * y[i]
        )
    np.testing.assert_allclose(ps.hat.Gamma.value(), expected, atol=1e-9)


def test_hat_horizontal_derivative_transfer():
    # f_{||k} = f_{|k} + Y(f) S_{.k}/(n+1) + S f_{.k}/(n+1), here f = Ric
    ps = randers_stack(VolumeForm("explicit", "exp(0.1*x2)"))
    n = ps.n
    f = ps.base.Ric
    sm = s_vderivs(ps.measure)
    sval = ps.measure.S.value()
    fv = np.array([f.grad(n + k).value() for k in range(n)])
    yf = float(fv @ ps.point.y_array())
    frac = 1.0 / (n + 1.0)
    want = ps.base.hcov_values(f) + frac * yf * sm + frac * sval * fv
    np.testing.assert_allclose(ps.hat.hcov_values(f), want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("volume", volumes3(), ids=lambda v: v.kind)
def test_hat_ricci_scalar_is_r_plus_tau(volume):
    ps = randers_stack(volume)
    want = ps.base.Rscalar.value() + ps.measure.tau.value()
    scale = abs(want) + abs(ps.measure.tau.value()) + 1e-12
    assert abs(ps.hat.Rscalar.value() - want) <= 1e-9 * scale


def test_hat_curvature_tensor_decomposition():
    # Rhat^i_k = R^i_k + tau d^i_k - (1/2) tau_{.k} y^i + 3 chi_k y^i/(n+1);
    # the y^i factor on the tau_{.k} term is forced by the trace, which
    # must reproduce (n-1)(R + tau) through Euler's relation tau_{.k}y^k = 2tau
    ps = randers_stack(VolumeForm("explicit", "exp(0.1*x2)"))
    n, y = ps.n, ps.point.y_array()
    tau = ps.measure.tau
    tau_v = np.array([tau.grad(n + k).value() for k in range(n)])
    chi = ps.base.chi.value()
    expected = (
        ps.base.Rik.value()
        + tau.value() * np.eye(n)
        - 0.5 * np.outer(y, tau_v)
        + (3.0 / (n + 1.0)) * np.outer(y, chi)
    )
    np.testing.assert_allclose(ps.hat.Rik.value(), expected, atol=1e-9)
    trace = np.trace(ps.hat.Rik.value())
    want = (n - 1.0) * (ps.base.Rscalar.value() + tau.value())
    assert trace == pytest.approx(want, abs=1e-9)


# -- Weyl tensor ----------------------------------------------------------------


def test_weyl_routes_and_volume_independence():
    values = []
    for volume in volumes3():
        ps = randers_stack(volume)
        via_hat = ps.hat.T.value()
        via_chi = ps.base.weyl.value()
        scale = np.abs(via_hat).max() + 1e-12
        assert np.abs(via_hat - via_chi).max() <= 1e-7 * scale
        values.append(via_hat)
    assert np.abs(values[0]).max() > 1e-4  # the anchor is not degenerate
    for other in values[1:]:
        np.testing.assert_allclose(other, values[0], atol=1e-7 * np.abs(values[0]).max())


def test_weyl_trace_and_y_contraction():
    ps = randers_stack(VolumeForm("coordinate"))
    w = ps.hat.T.value()
    scale = np.abs(w).max()
    assert abs(np.trace(w)) <= 1e-12 * scale
    np.testing.assert_allclose(w @ ps.point.y_array(), 0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("family", ["conformal-flat-2d", "round-sphere"])
def test_weyl_vanishes_in_dimension_two(family):
    w = PointContext(build(family), VolumeForm("coordinate"), PT2).proj.hat.T.value()
    np.testing.assert_allclose(w, 0.0, atol=1e-10)


def test_weyl_vanishes_for_funk():
    w = PointContext(build("funk"), VolumeForm("coordinate"), PT_FUNK).proj.hat.T.value()
    np.testing.assert_allclose(w, 0.0, atol=1e-10)


# -- Berwald-Weyl routes ---------------------------------------------------------


@pytest.mark.parametrize("volume", volumes3(), ids=lambda v: v.kind)
def test_wo_routes_agree(volume):
    ps = randers_stack(volume)
    byroute = {route: ps.wo_values(route) for route in ("definition", "viaBase", "divW", "divR")}
    scale = np.abs(byroute["definition"]).max() + 1e-12
    assert scale > 1e-5  # nonzero anchor
    for a, b in itertools.combinations(byroute.values(), 2):
        assert np.abs(a - b).max() <= 1e-6 * scale


@pytest.mark.parametrize("volume", volumes3(), ids=lambda v: v.kind)
def test_wo_y_contraction_vanishes(volume):
    ps = randers_stack(volume)
    wo = ps.wo_values()
    scale = np.abs(wo).max() + 1e-12
    assert abs(wo @ ps.point.y_array()) <= 1e-10 * scale


def test_wo_vanishes_for_scalar_curvature():
    # W = 0 in n >= 3 forces W^o = 0 for every volume form
    funk = build("funk")
    for volume in volumes3():
        wo = PointContext(funk, volume, PT_FUNK).proj.wo_values()
        np.testing.assert_allclose(wo, 0.0, atol=1e-10)


def test_wo_vanishes_fourth_root():
    metric = build("fourth-root")
    pt = TangentPoint((0.1, -0.2, 0.15, 0.05), (0.8, 0.5, -0.6, 0.9))
    wo = PointContext(metric, VolumeForm("busemann-hausdorff"), pt).proj.wo_values()
    np.testing.assert_allclose(wo, 0.0, atol=1e-12)


@pytest.mark.parametrize("family", ["round-sphere", "hyperbolic-ball"])
def test_wo_vanishes_constant_curvature_surfaces(family):
    metric = build(family)
    pt = TangentPoint((0.25, -0.15), (0.7, 1.1))
    for volume in (VolumeForm("coordinate"), VolumeForm("busemann-hausdorff")):
        scale = abs(stack_for(metric, pt).Rscalar.value())
        wo = PointContext(metric, volume, pt).proj.wo_values()
        np.testing.assert_allclose(wo, 0.0, atol=1e-10 * scale)


def test_wo_volume_independent_in_dimension_two():
    metric = build("conformal-flat-2d")
    base = PointContext(metric, VolumeForm("coordinate"), PT2).proj.wo_values()
    assert np.abs(base).max() > 1e-3  # nontrivial surface
    for volume in (
        VolumeForm("explicit", "exp(x1-0.5*x2)"),
        VolumeForm("busemann-hausdorff"),
    ):
        other = PointContext(metric, volume, PT2).proj.wo_values()
        np.testing.assert_allclose(other, base, atol=1e-8 * np.abs(base).max())


def test_projective_invariance():
    spray = build("randers")
    pert = PerturbedSpray(
        spray,
        [lambda xs: 0.2 * xs[0], lambda xs: xs[1] * xs[2], lambda xs: 0.1 + 0.0 * xs[0]],
    )
    volume = VolumeForm("explicit", "exp(0.1*x2)")
    p0, p1 = PointContext(spray, volume, PT3).proj, PointContext(pert, volume, PT3).proj
    w0, w1 = p0.hat.T.value(), p1.hat.T.value()
    wo0, wo1 = p0.wo_values(), p1.wo_values()
    assert np.abs(w0 - w1).max() <= 1e-10 * (np.abs(w0).max() + 1e-12)
    assert np.abs(wo0 - wo1).max() <= 1e-10 * (np.abs(wo0).max() + 1e-12)


# -- divergence identities --------------------------------------------------------


def base_wo_pieces(ps):
    """R_{|k}, R_{.k|m} y^m, chi_{k|m} y^m on the base connection."""
    st = ps.base
    n, y = ps.n, ps.point.y_array()
    first = st.hcov_values(st.Rscalar)
    rv = jets.stack([st.Rscalar.grad(n + k) for k in range(n)])
    second = st.hcov_values(rv, contra=0) @ y
    third = st.hcov_values(jets.stack(ps.base.chi), contra=0) @ y
    return first, second, third


def test_identity_new1():
    for volume in (VolumeForm("coordinate"), VolumeForm("explicit", "exp(0.1*x2)")):
        ps = randers_stack(volume)
        st = ps.base
        first, second, third = base_wo_pieces(ps)
        ric_div = np.einsum("mkm->k", st.hcov_values(rik_array(st), contra=1))
        residual = first - 0.5 * second - (third + ric_div) / (ps.n - 1.0)
        scale = max(np.abs(first).max(), np.abs(ric_div).max()) + 1e-12
        assert np.abs(residual).max() <= 1e-9 * scale


def test_identity_divergence_wmkm():
    ps = randers_stack(VolumeForm("explicit", "exp(0.1*x2)"))
    n = ps.n
    first, second, third = base_wo_pieces(ps)
    lhs = np.einsum("mkm->k", ps.base.hcov_values(ps.hat.T, contra=1))
    rhs = (n - 2.0) * (first - 0.5 * second - third / (n + 1.0))
    scale = max(np.abs(lhs).max(), np.abs(first).max()) + 1e-12
    assert np.abs(lhs - rhs).max() <= 1e-9 * scale


def test_identity_bianchi_contracted():
    # R^i_{k|p} - R^i_{p|k} + R^i_{pk|l} y^l = 0
    st = randers_stack(VolumeForm("coordinate")).base
    n, y = st.n, st.point.y_array()
    rik_cov = st.hcov_values(rik_array(st), contra=1)
    r3_cov = st.hcov_values(st.R3, contra=1)
    residual = rik_cov - rik_cov.transpose(0, 2, 1) + np.einsum("ipkl,l->ikp", r3_cov, y)
    scale = np.abs(rik_cov).max() + 1e-12
    assert np.abs(residual).max() <= 1e-9 * scale


# -- volume change and flatness conditions ----------------------------------------


def wo_transfer(metric, volume, f, point):
    """W^o under e^{-(n+1) f} dV and its distance from the law W^o - W^m_k f_m."""
    ps = PointContext(metric, volume, point).proj
    wo_tilde = ProjectiveStack(ps.measure if f is None else ps.measure.rescaled(f)).wo_values()
    predicted = ps.wo_values() - ps.hat.T.value().T @ volume_change(f, ps.point)
    return wo_tilde, float(np.max(np.abs(wo_tilde - predicted)))


def bweyl_gaps(metric, f, point):
    """Max |b| and |c| of the two flatness conditions under the coordinate volume."""
    ctx = PointContext(metric, VolumeForm("coordinate"), point)
    (b, c), _ = ctx.proj.flatness_gaps(volume_change(f, ctx.point))
    return np.abs(b).max(), np.abs(c).max()


def test_volume_change_transfer():
    metric = build("randers")
    volume = VolumeForm("explicit", "exp(0.1*x2)")
    wo = PointContext(metric, volume, PT3).proj.wo_values()
    wo_tilde, residual = wo_transfer(metric, volume, "0.1*x1*x2", PT3)
    scale = np.abs(wo_tilde).max() + 1e-12
    assert residual <= 1e-9 * scale
    assert np.abs(wo_tilde - wo).max() > 1e-7  # the rescale actually moves W^o


def test_volume_change_constant_and_absent_f():
    metric = build("randers")
    volume = VolumeForm("coordinate")
    wo = PointContext(metric, volume, PT3).proj.wo_values()
    for f in ("0.25", None):
        wo_tilde, residual = wo_transfer(metric, volume, f, PT3)
        np.testing.assert_allclose(wo_tilde, wo, atol=1e-12)
        assert residual <= 1e-12


def test_volume_change_scalar_curvature_fixed_point():
    # W = 0: any rescale leaves W^o untouched (and zero for Funk)
    wo_tilde, residual = wo_transfer(
        build("funk"), VolumeForm("coordinate"), "0.3*x1-0.2*x3", PT_FUNK
    )
    np.testing.assert_allclose(wo_tilde, 0.0, atol=1e-10)
    assert residual <= 1e-10


def test_bweyl_residual_equivalence():
    # by the divergence identity the two condition gaps are proportional:
    # c-gap = (n-2) * b-gap, so one vanishes exactly when the other does
    b, c = bweyl_gaps(build("randers"), "0.1*x1*x2", PT3)
    n = 3
    assert b > 1e-6  # generic f is not a witness
    assert c == pytest.approx((n - 2.0) * b, rel=1e-6)
    b, c = bweyl_gaps(build("funk"), None, PT_FUNK)
    assert b <= 1e-10 and c <= 1e-10


def test_bweyl_dimension_guards():
    surface = build("conformal-flat-2d")
    with pytest.raises(ConfigError):
        PointContext(surface, VolumeForm("coordinate"), PT2).proj.wo_values("divW")


# -- Einstein surfaces -------------------------------------------------------------


def conformal_gauss_oracle(pt):
    """K, dK/dx, F, and dF/dy for e^{2 lam} delta with lam = x1^2."""
    x1, _ = pt.x
    lam = x1 * x1
    K = -2.0 * np.exp(-2.0 * lam)  # K = -e^{-2 lam} (lam_11 + lam_22)
    dK = np.array([8.0 * x1 * np.exp(-2.0 * lam), 0.0])
    y = pt.y_array()
    F = np.exp(lam) * np.hypot(*y)
    dF = np.exp(lam) * y / np.hypot(*y)
    return K, dK, F, dF


def einstein_sides(metric, pt):
    """W^o under the BH volume and its Einstein-surface closed form at ``pt``."""
    ctx = PointContext(metric, VolumeForm("busemann-hausdorff"), pt)
    predicted = einstein_wo(ctx)
    return ctx.proj.wo_values(), predicted


def test_einstein_surface_matches_gauss_oracle():
    metric = build("conformal-flat-2d")
    for pt in (PT2, TangentPoint((0.4, 0.1), (-0.3, 0.9))):
        wo, predicted = einstein_sides(metric, pt)
        _, dK, F, dF = conformal_gauss_oracle(pt)
        y = pt.y_array()
        theta = dK @ y
        # F^3 (theta/F)_{.k} = F^2 theta_{.k} - F theta F_{.k}
        want = F * F * dK - F * theta * dF
        np.testing.assert_allclose(predicted, want, atol=1e-8 * (np.abs(want).max() + 1e-12))
        scale = np.abs(predicted).max() + 1e-12
        assert np.abs(predicted).max() > 1e-3
        assert np.abs(wo - predicted).max() <= 1e-6 * scale


def test_einstein_round_sphere_both_sides_vanish():
    wo, predicted = einstein_sides(build("round-sphere"), TangentPoint((0.3, -0.1), (0.8, 0.5)))
    np.testing.assert_allclose(wo, 0.0, atol=1e-10)
    np.testing.assert_allclose(predicted, 0.0, atol=1e-10)


def test_einstein_check_guards():
    with pytest.raises(ConfigError):
        einstein_wo(PointContext(build("randers"), None, PT3))
    bumpy = Randers(
        2,
        lambda xs: [[1.0 + 0.0 * xs[0], 0.0 * xs[0]], [0.0 * xs[0], 1.0 + 0.3 * xs[0] * xs[0]]],
        lambda xs: [0.3 + 0.1 * xs[1], 0.2 * xs[0]],
    )
    with pytest.raises(AdmissibilityError):
        einstein_wo(PointContext(bumpy, None, TangentPoint((0.1, 0.2), (1.0, 0.3))))


# -- tensors, validation, degrees ----------------------------------------------------


def test_weyl_tensor_is_one_jet():
    ps = randers_stack(VolumeForm("coordinate"))
    assert isinstance(ps.hat.T, jets.Jet) and ps.hat.T.batch_shape == (3, 3)
    assert isinstance(ps.base.weyl, jets.Jet) and ps.base.weyl.batch_shape == (3, 3)
    assert ps.Ghat.batch_shape == (3,) and ps.base.chi.batch_shape == (3,)


def test_point_context_hat_quantities():
    ps = PointContext(build("randers"), VolumeForm("coordinate"), PT3).proj
    hat = ps.hat
    assert ps.Ghat.batch_shape == (3,) and hat.N.value().shape == (3, 3)
    assert hat.Gamma.value().shape == (3, 3, 3) and hat.Rik.value().shape == (3, 3)
    assert abs(ps.hat_measure.S.value()) <= 1e-12
    np.testing.assert_allclose(ps.hat.chi.value(), 0.0, atol=1e-12)
    assert ps.wo_values().shape == (3,)
    assert hat.Rscalar.value() == pytest.approx(np.trace(hat.Rik.value()) / 2.0, rel=1e-12)


def test_own_volume_reuses_the_context_stacks():
    ctx = PointContext(build("randers"), "bh", PT3)
    assert ctx.proj_for(VolumeForm("busemann-hausdorff")).measure is ctx.measure
    assert ctx.proj_for("bh") is ctx.proj
    other = ctx.proj_for(VolumeForm("explicit", "exp(0.1*x2)"))
    assert other is not ctx.proj and other.base is ctx.stack


def test_a_metric_is_its_own_spray():
    metric = build("randers")
    ctx = PointContext(metric, "coordinate", PT3)
    assert ctx.spray is ctx.metric is metric
    assert ctx.stack is ctx.frame.stack
    pert = PerturbedSpray(metric, [lambda xs: 0.1 + 0.0 * xs[0]] * 3)
    assert pert.metric is metric
    assert PointContext(pert, "coordinate", PT3).metric is metric


def test_point_context_refuses_what_is_not_a_spray():
    with pytest.raises(ConfigError, match="expected a metric or spray, got int"):
        PointContext(42, None, PT3)


def test_route_validation():
    metric = build("euclidean")
    volume = VolumeForm("coordinate")
    with pytest.raises(ConfigError):
        PointContext(metric, volume, PT3).proj.wo_values("sideways")


def test_definition_route_needs_full_budget():
    metric = build("randers")
    volume = VolumeForm("coordinate")
    with pytest.raises(DegreeBudgetError):
        PointContext(metric, volume, PT3, degree=6).proj.wo_values("definition")
    divr = PointContext(metric, volume, PT3, degree=6).proj.wo_values("divR")
    full = PointContext(metric, volume, PT3, degree=7).proj.wo_values("divR")
    np.testing.assert_allclose(divr, full, atol=1e-12)


def test_square_metric_is_scalar_curvature():
    # squared-inner reading: Ricci-flat with W = 0, so W^o = 0 for any
    # volume; S/F is not constant in y (not isotropic)
    metric = build("square-metric")
    pt = TangentPoint((0.05, -0.08, 0.06), (0.9, -0.4, 0.7))
    st = stack_for(metric, pt)
    f2 = MetricFrame(metric, pt, 3).fsq.value()
    assert abs(st.Rscalar.value()) <= 1e-10 * f2
    for volume in (VolumeForm("coordinate"), VolumeForm("busemann-hausdorff")):
        ps = PointContext(metric, volume, pt).proj
        assert np.abs(ps.hat.T.value()).max() <= 1e-10 * f2
        assert np.abs(ps.wo_values()).max() <= 1e-8 * f2
    ratios = []
    bh = VolumeForm("busemann-hausdorff")
    for yy in ((1.0, 0.2, -0.3), (0.1, 1.0, 0.4), (-0.5, 0.3, 1.0)):
        q = TangentPoint(pt.x, yy)
        ms = PointContext(metric, bh, q).measure
        ratios.append(ms.S.value() / MetricFrame(metric, q, 3).F.value())
    assert max(ratios) - min(ratios) > 1e-2
