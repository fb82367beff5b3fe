"""Spray, connection, and curvature tests against independent oracles.

Oracles used here: pure finite differences of float evaluations of F^2
(no jets anywhere in the oracle path), closed-form fundamental tensors
for constant-coefficient Randers data, the geodesic spray of the Funk
metric, and the round 2-sphere where the curvature scalar equals F^2.
"""

import itertools

import numpy as np
import pytest

from helpers import fd_partial, stencil

from spraylab import jets
from spraylab.errors import AdmissibilityError, DegreeBudgetError
from spraylab.geometry import (
    FinslerMetric,
    MetricFrame,
    PerturbedSpray,
    SprayStack,
    TangentPoint,
    stack_for,
)


# -- metrics local to this test module ---------------------------------------


class Euclidean(FinslerMetric):
    def __init__(self, dim):
        self.dim = dim
        self.name = f"euclidean({dim})"

    def fsq(self, x, y):
        acc = y[0] * y[0]
        for i in range(1, self.dim):
            acc = acc + y[i] * y[i]
        return acc


class MatrixRiemannian(FinslerMetric):
    """F^2 = g_ij(x) y^i y^j for a callable symmetric matrix g(x)."""

    def __init__(self, dim, matrix, name="riemannian"):
        self.dim = dim
        self.matrix = matrix
        self.name = name

    def fsq(self, x, y):
        m = self.matrix(x)
        acc = 0.0
        for i in range(self.dim):
            for j in range(self.dim):
                acc = m[i][j] * y[i] * y[j] + acc
        return acc


def sphere_matrix(x):
    # stereographic chart of the unit 2-sphere, Gauss curvature 1
    s = 1.0 + x[0] * x[0] + x[1] * x[1]
    f = 4.0 * jets.reciprocal(s * s)
    return [[f, 0.0 * f], [0.0 * f, f]]


def skew_matrix(x):
    d0 = jets.exp(0.2 * x[0])
    d1 = jets.exp(-0.15 * x[2])
    c = 0.1 * x[1]
    one = 1.0 + 0.0 * x[0]
    return [[d0, c, 0.0 * c], [c, d1, 0.0 * c], [0.0 * c, 0.0 * c, one]]


class RandersConst(FinslerMetric):
    """F = sqrt(a_ij y^i y^j) + b_i y^i with constant a, b."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.dim = self.b.size
        self.name = f"randers-const({self.dim})"

    def fsq(self, x, y):
        a2 = 0.0
        beta = 0.0
        for i in range(self.dim):
            beta = self.b[i] * y[i] + beta
            for j in range(self.dim):
                a2 = self.a[i, j] * y[i] * y[j] + a2
        f = jets.sqrt(a2) + beta
        return f * f


class RandersVar(FinslerMetric):
    """Randers data with x-dependent a and b, norm of b well below 1."""

    dim = 3
    name = "randers-var"

    def fsq(self, x, y):
        d0 = jets.exp(0.2 * x[0])
        d1 = jets.exp(-0.15 * x[2])
        c = 0.1 * x[1]
        a2 = d0 * y[0] * y[0] + d1 * y[1] * y[1] + y[2] * y[2] + 2.0 * c * y[0] * y[1]
        beta = (0.2 + 0.1 * x[1]) * y[0] + 0.05 * x[0] * y[1] - 0.1 * y[2]
        f = jets.sqrt(a2) + beta
        return f * f

    def admissible(self, point):
        return max(abs(v) for v in point.x) < 1.0


class Funk(FinslerMetric):
    """Funk metric of the unit ball."""

    def __init__(self, dim):
        self.dim = dim
        self.name = f"funk({dim})"

    def fsq(self, x, y):
        x2 = 0.0
        y2 = 0.0
        xy = 0.0
        for i in range(self.dim):
            x2 = x[i] * x[i] + x2
            y2 = y[i] * y[i] + y2
            xy = x[i] * y[i] + xy
        om = 1.0 - x2
        f = (jets.sqrt(om * y2 + xy * xy) + xy) * jets.reciprocal(om)
        return f * f

    def admissible(self, point):
        return sum(v * v for v in point.x) < 1.0


POINT2 = TangentPoint((0.15, -0.1), (0.8, 0.6))
POINT3 = TangentPoint((0.12, -0.08, 0.2), (0.7, -0.4, 0.5))


def assert_jets_close(a, b, tol):
    upto = a.ring.size_upto[min(a.valid, b.valid)]
    np.testing.assert_allclose(a.coeffs[..., :upto], b.coeffs[..., :upto], atol=tol)


# -- basic validation ---------------------------------------------------------


def test_tangent_point_validation():
    with pytest.raises(ValueError):
        TangentPoint((0.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        TangentPoint((0.1, 0.2), (0.0, 0.0))
    p = TangentPoint((0, 1), (2, 3))
    assert p.x == (0.0, 1.0) and p.dim == 2


def test_dimension_mismatch_rejected():
    with pytest.raises(AdmissibilityError):
        MetricFrame(Euclidean(2), POINT3, degree=3)


def test_chart_boundary_rejected():
    outside = TangentPoint((1.2, 0.0), (1.0, 0.0))
    with pytest.raises(AdmissibilityError):
        MetricFrame(Funk(2), outside, degree=3)


def test_indefinite_metric_rejected():
    class Lorentz(FinslerMetric):
        dim = 2
        name = "lorentz"

        def fsq(self, x, y):
            return y[0] * y[0] - y[1] * y[1]

    point = TangentPoint((0.0, 0.0), (1.0, 0.5))
    with pytest.raises(AdmissibilityError):
        MetricFrame(Lorentz(), point, degree=3).g_values


def test_degree_budget_error_surfaces():
    st = stack_for(RandersVar().spray(), POINT3, degree=2)
    with pytest.raises(DegreeBudgetError):
        st.N


# -- fundamental tensor -------------------------------------------------------


def test_euclidean_is_flat():
    metric = Euclidean(3)
    frame = MetricFrame(metric, POINT3, degree=6)
    np.testing.assert_allclose(frame.g_values, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(frame.ylow, POINT3.y_array(), atol=1e-14)
    st = frame.stack
    for field in (st.Rik_values, st.R3.value(), st.R4_values, st.T_values):
        np.testing.assert_allclose(field, 0.0, atol=1e-13)
    assert st.Ric.value() == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(st.N_values, 0.0, atol=1e-13)
    np.testing.assert_allclose(st.B_values, 0.0, atol=1e-13)


def test_randers_fundamental_tensor_closed_form():
    a = np.array([[1.3, 0.2, 0.0], [0.2, 1.0, -0.1], [0.0, -0.1, 0.8]])
    b = np.array([0.25, -0.1, 0.15])
    metric = RandersConst(a, b)
    y = POINT3.y_array()
    alpha = float(np.sqrt(y @ a @ y))
    ell = a @ y / alpha
    F = alpha + float(b @ y)
    expect = (F / alpha) * (a - np.outer(ell, ell)) + np.outer(ell + b, ell + b)
    frame = MetricFrame(metric, POINT3, degree=3)
    np.testing.assert_allclose(frame.g_values, expect, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.inv(frame.g_values), np.linalg.inv(expect), rtol=1e-11)
    np.testing.assert_allclose(frame.ylow, expect @ y, rtol=1e-12)


def test_ylow_is_g_contracted_with_y():
    frame = MetricFrame(RandersVar(), POINT3, degree=3)
    np.testing.assert_allclose(frame.ylow, frame.g_values @ POINT3.y_array(), rtol=1e-12)


# -- geodesic coefficients ----------------------------------------------------


def fd_spray(metric, point, h=0.01):
    """Assemble G^i from finite differences of float evaluations of F^2."""
    n = point.dim
    z0 = np.concatenate([point.x_array(), point.y_array()])

    def fsq(z):
        return metric.fsq(list(z[:n]), list(z[n:]))

    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            alpha = [0] * (2 * n)
            alpha[n + i] += 1
            alpha[n + j] += 1
            g[i, j] = g[j, i] = 0.5 * fd_partial(fsq, z0, alpha, h)
    rhs = np.zeros(n)
    for l in range(n):
        alpha = [0] * (2 * n)
        alpha[l] = 1
        rhs[l] = -fd_partial(fsq, z0, alpha, h)
        for k in range(n):
            alpha = [0] * (2 * n)
            alpha[k] = 1
            alpha[n + l] = 1
            rhs[l] += fd_partial(fsq, z0, alpha, h) * point.y[k]
    return 0.25 * np.linalg.solve(g, rhs)


@pytest.mark.parametrize(
    "metric,point",
    [
        (MatrixRiemannian(2, sphere_matrix, "sphere2"), POINT2),
        (RandersVar(), POINT3),
        (Funk(2), POINT2),
    ],
)
def test_geodesic_coefficients_match_finite_differences(metric, point):
    got = MetricFrame(metric, point, degree=3).spray_coefficients.value()
    want = fd_spray(metric, point)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


def test_funk_spray_is_half_f_times_y():
    frame = MetricFrame(Funk(3), POINT3, degree=5)
    F = jets.sqrt(frame.fsq)  # frame.F keeps only first order
    for i in range(3):
        expect = 0.5 * F * frame.y[i]
        assert_jets_close(frame.spray_coefficients[i], expect, 1e-9)


def test_frame_keeps_f_to_first_order():
    frame = MetricFrame(Funk(3), POINT3, degree=5)
    assert frame.F.valid == 1
    full = jets.sqrt(frame.fsq)
    np.testing.assert_array_equal(frame.F.coeffs, full.coeffs[: 1 + frame.ring.nvars])


def test_funk_spray_at_origin():
    point = TangentPoint((0.0, 0.0, 0.0), (0.3, -0.2, 0.6))
    G = MetricFrame(Funk(3), point, degree=3).spray_coefficients
    norm = np.linalg.norm(point.y_array())
    np.testing.assert_allclose(G.value(), 0.5 * norm * point.y_array(), rtol=1e-12)


# -- connection ---------------------------------------------------------------


def fd_christoffel(matrix, x, h=0.01):
    n = len(x)
    x = np.asarray(x, dtype=float)
    g = np.array(matrix(list(x)), dtype=float)
    ginv = np.linalg.inv(g)
    dg = np.zeros((n, n, n))
    offs, weights = stencil(1, h)
    for k in range(n):
        for off, w in zip(offs, weights):
            shifted = x.copy()
            shifted[k] += off
            dg[k] += w * np.array(matrix(list(shifted)), dtype=float)
    out = np.zeros((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        out[i, j, k] = 0.5 * sum(
            ginv[i, l] * (dg[j, l, k] + dg[k, l, j] - dg[l, j, k]) for l in range(n)
        )
    return out


@pytest.mark.parametrize(
    "matrix,point",
    [(sphere_matrix, POINT2), (skew_matrix, POINT3)],
)
def test_riemannian_connection_is_christoffel(matrix, point):
    metric = MatrixRiemannian(point.dim, matrix)
    st = stack_for(metric.spray(), point, degree=5)
    want = fd_christoffel(matrix, point.x)
    np.testing.assert_allclose(st.Gamma_values, want, rtol=1e-6, atol=1e-9)
    # quadratic sprays have no Berwald curvature
    np.testing.assert_allclose(st.B_values, 0.0, atol=1e-9)
    np.testing.assert_allclose(
        st.N_values, np.einsum("ijk,k->ij", st.Gamma_values, point.y_array()), rtol=1e-10
    )


def test_connection_symmetry():
    st = stack_for(RandersVar().spray(), POINT3, degree=6)
    np.testing.assert_allclose(st.Gamma_values, st.Gamma_values.transpose(0, 2, 1), atol=1e-12)
    for perm in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)):
        np.testing.assert_allclose(st.B_values, st.B_values.transpose(perm), atol=1e-12)


# -- curvature ----------------------------------------------------------------


def test_sphere_curvature_scalar_is_fsq():
    metric = MatrixRiemannian(2, sphere_matrix, "sphere2")
    for point in (POINT2, TangentPoint((0.3, 0.4), (-0.2, 1.1))):
        frame = MetricFrame(metric, point, degree=6)
        cur = frame.stack
        fsq = frame.fsq.value()
        assert cur.Rscalar.value() == pytest.approx(fsq, rel=1e-9)
        assert cur.Ric.value() == pytest.approx(fsq, rel=1e-9)
        # constant curvature 1: R^i_k = F^2 d^i_k - y^i y_k
        ylow = frame.ylow
        want = fsq * np.eye(2) - np.outer(point.y_array(), ylow)
        np.testing.assert_allclose(cur.Rik_values, want, rtol=1e-8, atol=1e-10)


def test_curvature_traces_and_y_kill():
    st = stack_for(RandersVar().spray(), POINT3, degree=6)
    y = POINT3.y_array()
    np.testing.assert_allclose(st.Rik_values @ y, 0.0, atol=1e-10)
    t = st.T_values
    assert np.trace(t) == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(t @ y, 0.0, atol=1e-10)


def test_r3_antisymmetry_and_contraction():
    st = stack_for(RandersVar().spray(), POINT3, degree=6)
    r3 = st.R3.value()
    np.testing.assert_allclose(r3, -r3.transpose(0, 2, 1), atol=1e-12)
    got = np.einsum("ikl,l->ik", r3, POINT3.y_array())
    np.testing.assert_allclose(got, st.Rik_values, rtol=1e-9, atol=1e-10)


def test_homogeneity_degrees():
    metric = Funk(3)
    lam = 1.7
    scaled = TangentPoint(POINT3.x, tuple(lam * v for v in POINT3.y))
    a = stack_for(metric.spray(), POINT3, degree=5)
    b = stack_for(metric.spray(), scaled, degree=5)
    g_a = np.array([gi.value() for gi in a.G])
    g_b = np.array([gi.value() for gi in b.G])
    np.testing.assert_allclose(g_b, lam**2 * g_a, rtol=1e-11)
    np.testing.assert_allclose(b.N_values, lam * a.N_values, rtol=1e-11)
    np.testing.assert_allclose(b.Gamma_values, a.Gamma_values, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(b.B_values, a.B_values / lam, rtol=1e-9, atol=1e-13)
    np.testing.assert_allclose(b.Rik_values, lam**2 * a.Rik_values, rtol=1e-10)


# -- covariant derivatives ----------------------------------------------------


def test_y_is_horizontally_parallel():
    st = stack_for(RandersVar().spray(), POINT3, degree=5)
    ytensor = np.array(st.y_jets, dtype=object)
    np.testing.assert_allclose(st.hcov_values(ytensor, contra=1), 0.0, atol=1e-11)


def test_hcov_scalar_values_match_jet_route():
    st = stack_for(RandersVar().spray(), POINT3, degree=6)
    np.testing.assert_allclose(st.hgrad(st.Ric).value(), st.hcov_scalar_values(st.Ric),
                               rtol=1e-12, atol=1e-12)


def test_hcov_values_does_not_call_hcov_scalar_values(monkeypatch):
    # a wrapper on both public derivatives counts each derivative once
    st = stack_for(RandersVar().spray(), POINT3, degree=6)
    calls = []
    monkeypatch.setattr(SprayStack, "hcov_scalar_values", lambda self, f: calls.append(f))
    st.hcov_values(st.Rik, contra=1)
    st.hcov_values(st.T, contra=0)
    assert calls == []


@pytest.mark.parametrize(
    "metric,point",
    [
        (MatrixRiemannian(2, sphere_matrix, "sphere2"), POINT2),
        (RandersVar(), POINT3),
    ],
)
def test_exchange_identity_for_scalars(metric, point):
    # f_{|k|0} - f_{|0|k} = f_{.l} R^l_k with f the Ricci trace
    st = stack_for(metric.spray(), point, degree=7)
    n = point.dim
    y = point.y_array()
    f = st.Ric
    fk = st.hgrad(f)
    lhs1 = st.hcov_values(fk, contra=0) @ y
    f0 = st.ring.zero()
    for m in range(n):
        f0 = f0 + fk[m] * st.y_jets[m]
    lhs2 = st.hcov_scalar_values(f0)
    grad_y = f.gradient()[n:]
    rhs = grad_y @ st.Rik_values
    scale = max(np.abs(lhs1).max(), np.abs(lhs2).max(), np.abs(rhs).max(), 1e-12)
    np.testing.assert_allclose(lhs1 - lhs2, rhs, atol=1e-7 * scale + 1e-9)


# -- sprays beyond metrics ----------------------------------------------------


def test_perturbed_spray_coefficients():
    base = RandersVar().spray()
    oneform = [
        lambda xs: 0.1 * xs[0] * xs[1],
        lambda xs: 0.05 + 0.0 * xs[0],
        lambda xs: -0.2 * xs[2],
    ]
    pert = PerturbedSpray(base, oneform)
    G0 = base.coefficients(POINT3, 5)
    G1 = pert.coefficients(POINT3, 5)
    ring = G0[0].ring
    xs = [ring.seed(i, POINT3.x[i]) for i in range(3)]
    ys = [ring.seed(3 + i, POINT3.y[i]) for i in range(3)]
    p = oneform[0](xs) * ys[0] + oneform[1](xs) * ys[1] + oneform[2](xs) * ys[2]
    for i in range(3):
        assert_jets_close(G1[i], G0[i] + p * ys[i], 1e-13)


# -- tensor jets ----------------------------------------------------------------


def test_stack_tensors_are_jets_with_index_batch_axes():
    st = stack_for(RandersVar().spray(), POINT3, degree=6)
    for name, rank in (("G", 1), ("N", 2), ("Gamma", 3), ("Rik", 2), ("R3", 3), ("T", 2)):
        tensor = getattr(st, name)
        assert isinstance(tensor, jets.Jet), name
        assert tensor.batch_shape == (3,) * rank, name
    assert st.B_values.shape == (3,) * 4 and st.R4_values.shape == (3,) * 4


def test_hcov_values_matches_reference_loop():
    st = stack_for(RandersVar().spray(), POINT3, degree=6)
    n = st.n
    Nv, Gv = st.N_values, st.Gamma_values
    for tensor, contra in ((st.Rik, 1), (st.T, 0), (st.Rik, 2)):
        vals = tensor.value()
        want = np.zeros((n, n, n))
        for i, k in itertools.product(range(n), repeat=2):
            grad = tensor[i, k].gradient()
            for m in range(n):
                val = grad[m] - Nv[:, m] @ grad[n:]
                for l in range(n):
                    val += (vals[l, k] * Gv[i, l, m] if contra > 0
                            else -vals[l, k] * Gv[l, i, m])
                    val += (vals[i, l] * Gv[k, l, m] if contra > 1
                            else -vals[i, l] * Gv[l, k, m])
                want[i, k, m] = val
        got = st.hcov_values(tensor, contra=contra)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())
        nested = [[tensor[i, k] for k in range(n)] for i in range(n)]
        np.testing.assert_array_equal(st.hcov_values(nested, contra=contra), got)
