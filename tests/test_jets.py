"""Jet kernel tests: seeded coefficients, arithmetic, composition, partials.

Oracles: exact hand-expanded series, brute-force polynomial calculus, and
high-order central finite differences of independently coded closed forms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spraylab import jets
from spraylab.errors import DegreeBudgetError, JetDomainError


def _stencil(order: int, h: float):
    # 9-point central stencil: exact on polynomials of degree <= 8
    offsets = np.arange(-4, 5, dtype=float)
    vander = np.vander(offsets, increasing=True).T
    rhs = np.zeros(9)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(vander, rhs) / h**order, offsets * h


def fd_partial(fn, point, alpha, h=0.05):
    """Mixed partial of ``fn`` at ``point`` by tensor-product central stencils."""
    axes = [i for i, a in enumerate(alpha) if a > 0]
    if not axes:
        return fn(np.asarray(point, dtype=float))
    weights, offsets = [], []
    for i in axes:
        w, o = _stencil(alpha[i], h)
        weights.append(w)
        offsets.append(o)
    total = 0.0
    for combo in itertools.product(range(9), repeat=len(axes)):
        x = np.array(point, dtype=float)
        wprod = 1.0
        for pos, idx in enumerate(combo):
            x[axes[pos]] += offsets[pos][idx]
            wprod *= weights[pos][idx]
        total += wprod * fn(x)
    return total


def test_seed_coefficients_match_definition():
    r = jets.ring(2, 2)
    a = r.seed(0, 2.0)
    assert a.coeff((0, 0)) == 2.0
    assert a.coeff((1, 0)) == 1.0
    assert a.coeff((0, 1)) == 0.0
    assert a.coeff((2, 0)) == 0.0

    r3 = jets.ring(2, 3)
    b = r3.seed(1, 0.0)
    assert b.coeff((0, 0)) == 0.0
    assert b.coeff((0, 1)) == 1.0

    assert jets.ring(2, 2).seed(0, 5.0).partial((1, 0)) == 1.0


def test_seed_slot_out_of_range():
    with pytest.raises(ValueError):
        jets.ring(2, 2).seed(2, 0.0)


def test_product_one_plus_u_times_one_minus_u():
    r = jets.ring(1, 2)
    u = r.seed(0, 0.0)
    p = (1 + u) * (1 - u)
    assert p.coeff((0,)) == 1.0
    assert p.coeff((1,)) == 0.0
    assert p.coeff((2,)) == -1.0


def test_division_identity():
    r = jets.ring(1, 4)
    u = r.seed(0, 0.0)
    q = (1 + u) / (1 + u)
    assert q.coeff((0,)) == pytest.approx(1.0, abs=1e-15)
    for k in range(1, 5):
        assert q.coeff((k,)) == pytest.approx(0.0, abs=1e-15)


def _poly_p(x):
    u, v = x
    return (1 + 2 * u - v) ** 2 + 0.5 * u * v


def _poly_q(x):
    u, v = x
    return 3 - u + v + u * v**2


def test_product_coefficients_against_finite_differences():
    r = jets.ring(2, 4)
    u, v = r.seed(0, 0.3), r.seed(1, -0.2)
    point = (0.3, -0.2)
    p = (1 + 2 * u - v) ** 2 + 0.5 * u * v
    q = 3 - u + v + u * v**2
    prod = p * q

    def fn(x):
        return _poly_p(x) * _poly_q(x)

    # first-order coefficients at the h of a plain second-order stencil
    h = 1e-5
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (fn(np.array(point) + e) - fn(np.array(point) - e)) / (2 * h)
        assert prod.partial(tuple(int(i == k) for i in range(2))) == pytest.approx(
            fd, rel=1e-6
        )
    # all orders up to 4 against a stencil that is exact on this polynomial
    for alpha in itertools.product(range(5), repeat=2):
        if not 0 < sum(alpha) <= 4:
            continue
        fd = fd_partial(fn, point, alpha)
        assert prod.partial(alpha) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_sqrt_binomial_series():
    r = jets.ring(1, 2)
    u = r.seed(0, 0.0)
    s = jets.sqrt(1 + 2 * u)
    assert s.coeff((0,)) == pytest.approx(1.0)
    assert s.coeff((1,)) == pytest.approx(1.0)
    assert s.coeff((2,)) == pytest.approx(-0.5)


def test_exp_log_round_trip():
    rng = np.random.default_rng(3)
    r = jets.ring(2, 4)
    coeffs = rng.normal(size=r.size)
    coeffs[0] = 3.0
    a = jets.Jet(r, coeffs, valid=4, nzdeg=4)
    back = jets.exp(jets.log(a))
    np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=1e-12, atol=1e-12)


def test_pow_quarter_round_trip():
    rng = np.random.default_rng(7)
    r = jets.ring(3, 5)
    coeffs = 0.3 * rng.normal(size=r.size)
    coeffs[0] = 2.0
    a = jets.Jet(r, coeffs, valid=5, nzdeg=5)
    back = jets.powr(a**4, 0.25)
    np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("r", [-2.5, -1.5, 0.25, 0.5, 3.7])
def test_powr_matches_exp_log(r):
    rng = np.random.default_rng(5)
    ring = jets.ring(3, 5)
    coeffs = 0.3 * rng.normal(size=(4, ring.size))
    coeffs[:, 0] = [0.6, 1.0, 2.0, 3.5]
    a = jets.Jet(ring, coeffs, valid=5, nzdeg=5)
    for jet in (a, a.deriv(1) + 2.0):
        got = jets.powr(jet, r)
        want = jets.exp(r * jets.log(jet))
        assert got.valid == jet.valid
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12,
                                   atol=1e-12 * np.abs(want.coeffs).max())
    with pytest.raises(JetDomainError, match="pow"):
        jets.powr(a - 1.0, r)
    with pytest.raises(JetDomainError, match="sqrt"):
        jets.sqrt(a - 1.0)


def test_partial_examples():
    r = jets.ring(1, 3)
    u = r.seed(0, 1.0)
    sq = u * u
    assert sq.partial((2,)) == pytest.approx(2.0)

    r2 = jets.ring(2, 3)
    uv = r2.seed(0, 0.0) * r2.seed(1, 0.0)
    assert uv.partial((1, 1)) == pytest.approx(1.0)

    r5 = jets.ring(1, 5)
    p = (1 + r5.seed(0, 0.0)) ** 5
    fd = fd_partial(lambda x: (1 + x[0]) ** 5, (0.0,), (3,))
    assert fd == pytest.approx(60.0, rel=1e-9)
    assert p.partial((3,)) == pytest.approx(fd, rel=1e-9)


def _jet_f(r):
    u, v, w = r.seed(0, 0.1), r.seed(1, -0.3), r.seed(2, 0.2)
    return jets.exp(0.4 * u - 0.2 * v * w) * jets.sqrt(2.5 + w + 0.5 * u) / (
        2 + jets.sin(u + 0.3 * v)
    )


def _np_f(x):
    u, v, w = x
    return (
        np.exp(0.4 * u - 0.2 * v * w)
        * np.sqrt(2.5 + w + 0.5 * u)
        / (2 + np.sin(u + 0.3 * v))
    )


def test_smooth_function_partials_match_finite_differences():
    r = jets.ring(3, 4)
    f = _jet_f(r)
    point = (0.1, -0.3, 0.2)
    for alpha in itertools.product(range(5), repeat=3):
        if not 0 < sum(alpha) <= 4:
            continue
        fd = fd_partial(_np_f, point, alpha)
        got = f.partial(alpha)
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-8), alpha


def test_sin_cos_pythagoras():
    r = jets.ring(2, 5)
    a = r.seed(0, 0.7) + 0.3 * r.seed(1, -0.2)
    one = jets.sin(a) * jets.sin(a) + jets.cos(a) * jets.cos(a)
    expect = np.zeros(r.size)
    expect[0] = 1.0
    np.testing.assert_allclose(one.coeffs, expect, atol=1e-14)


def _random_jet(r, rng, scale=1.0):
    coeffs = scale * rng.normal(size=r.size)
    return jets.Jet(r, coeffs, valid=r.degree, nzdeg=r.degree)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_laws(seed):
    rng = np.random.default_rng(seed)
    r = jets.ring(2, 3)
    a, b, c = (_random_jet(r, rng) for _ in range(3))
    lhs = (a + b) + c
    rhs = a + (b + c)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)
    lhs = a * (b + c)
    rhs = a * b + a * c
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)
    lhs = (a * b) * c
    rhs = a * (b * c)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_leibniz_rule_first_order(seed):
    rng = np.random.default_rng(seed)
    r = jets.ring(3, 3)
    a, b = _random_jet(r, rng), _random_jet(r, rng)
    prod = a * b
    for k in range(3):
        e = tuple(int(i == k) for i in range(3))
        expect = a.partial(e) * b.value() + a.value() * b.partial(e)
        assert prod.partial(e) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_truncation_closure():
    r = jets.ring(2, 3)
    rng = np.random.default_rng(0)
    a, b = _random_jet(r, rng), _random_jet(r, rng)
    assert (a * b).coeffs.shape == (r.size,)
    d = a.deriv(0)
    assert d.valid == 2
    top = int(r.size_upto[2])
    assert np.all(d.coeffs[r.size :] == 0.0) if top == r.size else True
    assert np.all((a.deriv(0) + b).coeffs[top:] == 0.0)
    assert np.all((a.deriv(0) * b).coeffs[top:] == 0.0)


def test_valid_budget_tracking_and_errors():
    r = jets.ring(2, 3)
    a = r.seed(0, 1.5)
    d3 = a.deriv(0).deriv(0).deriv(0)
    assert d3.valid == 0
    with pytest.raises(DegreeBudgetError):
        d3.deriv(0)
    with pytest.raises(DegreeBudgetError):
        (a.deriv(0)).partial((3, 0))
    with pytest.raises(DegreeBudgetError):
        a.partial((4, 0))


def test_domain_errors():
    r = jets.ring(1, 3)
    u = r.seed(0, 0.0)
    with pytest.raises(JetDomainError):
        (1 + u) / u
    with pytest.raises(JetDomainError):
        jets.sqrt(u - 1)
    with pytest.raises(JetDomainError):
        jets.log(u)
    with pytest.raises(JetDomainError):
        jets.powr(u - 2.0, 0.5)


def test_mixed_ring_operations_rejected():
    a = jets.ring(2, 3).seed(0, 0.0)
    b = jets.ring(2, 4).seed(0, 0.0)
    with pytest.raises(ValueError):
        a + b


def test_batched_jets_match_scalar_loop():
    values = np.array([0.2, -0.4, 1.1])
    r = jets.ring(2, 4)
    u = r.seed(0, values)
    v = r.seed(1, 0.5)

    batched = jets.exp(0.3 * u) * jets.sqrt(2.0 + v + u * v) / (1.5 + u * u)
    for i, x in enumerate(values):
        ui = r.seed(0, float(x))
        single = jets.exp(0.3 * ui) * jets.sqrt(2.0 + v + ui * v) / (1.5 + ui * ui)
        np.testing.assert_allclose(batched.coeffs[i], single.coeffs, rtol=1e-13, atol=1e-14)


def test_sum_batch_is_weighted_sum():
    r = jets.ring(1, 3)
    u = r.seed(0, np.array([1.0, 2.0, 3.0]))
    w = np.array([0.5, 0.25, 0.25])
    combined = (u * u).sum_batch(w)
    manual = sum(wi * (r.seed(0, x) * r.seed(0, x)) for wi, x in zip(w, [1.0, 2.0, 3.0]))
    np.testing.assert_allclose(combined.coeffs, manual.coeffs, rtol=1e-14, atol=1e-15)


def test_lift_places_coefficients_at_offset():
    small = jets.ring(2, 3)
    a = small.seed(0, 1.0) * small.seed(1, 2.0)
    big = jets.ring(4, 5)
    lifted = jets.lift(a, big, var_offset=1)
    assert lifted.coeff((0, 1, 1, 0)) == a.coeff((1, 1))
    assert lifted.coeff((0, 1, 0, 0)) == a.coeff((1, 0))
    assert lifted.value() == a.value()
    # variables outside the embedded block carry nothing
    assert lifted.coeff((1, 0, 0, 0)) == 0.0
    assert lifted.valid == 3


def test_lift_tracks_validity():
    small = jets.ring(2, 4)
    a = (small.seed(0, 1.0) * small.seed(1, 2.0)).deriv(0)
    lifted = jets.lift(a, jets.ring(3, 6))
    assert lifted.valid == 3


def test_deterministic_coefficients():
    def build():
        r = jets.ring(3, 4)
        u, v, w = r.seed(0, 0.1), r.seed(1, 0.2), r.seed(2, 0.3)
        return (jets.exp(u * v) / jets.sqrt(1 + w * w) + jets.sin(v)).coeffs

    first = build()
    second = build()
    assert first.tobytes() == second.tobytes()


# -- tensor jets ------------------------------------------------------------------


def _tensor_jet():
    """A (2, 3) tensor of distinct jets in ring(3, 4), one order spent."""
    ring = jets.ring(3, 4)
    x = [ring.seed(v, 0.3 * v - 0.2) for v in range(3)]
    entries = [[jets.exp(x[0] * (i + 1)) * x[1] + x[2] ** (k + 2) for k in range(3)]
               for i in range(2)]
    return jets.stack(entries).deriv(2)


def test_grad_matches_stacked_derivs_bitwise():
    t = _tensor_jet()
    slots = [2, 0, 1]
    g = t.grad(slots)
    assert g.batch_shape == t.batch_shape + (3,)
    want = np.stack([t.deriv(s).coeffs for s in slots], axis=-2)
    np.testing.assert_array_equal(g.coeffs, want)
    assert (g.valid, g.nzdeg) == (t.valid - 1, max(t.nzdeg - 1, 0))


def test_grad_keeps_the_valid_invariant_and_budget():
    ring = jets.ring(2, 3)
    f = ring.seed(0, 0.5) * ring.seed(1, -0.25) ** 2
    g = f.grad([0, 1]).grad([0, 1]).grad([1])
    assert g.valid == 0 and g.nzdeg == 0
    np.testing.assert_array_equal(g.coeffs[..., 1:], 0.0)
    with pytest.raises(DegreeBudgetError):
        g.grad([0])
    with pytest.raises(DegreeBudgetError):
        g.deriv(0)
    with pytest.raises(ValueError):
        f.grad([2])


def test_indexing_reaches_batch_axes_only():
    t = _tensor_jet()
    size = t.ring.size
    assert t[1].batch_shape == (3,) and t[1, 2].batch_shape == ()
    assert t[:, 0].coeffs.shape == (2, size)
    assert t[:, None].coeffs.shape == (2, 1, 3, size)
    np.testing.assert_array_equal(t[1][2].coeffs, t.coeffs[1, 2])
    assert (t[0, 1].valid, t[0, 1].nzdeg) == (t.valid, t.nzdeg)
    with pytest.raises(IndexError):
        t[0, 1, 0]
    assert len(t) == 2 and [e.batch_shape for e in t] == [(3,), (3,)]
    scalar = t[0, 0]
    with pytest.raises(TypeError):
        scalar[0]
    with pytest.raises(TypeError):
        len(scalar)
    with pytest.raises(TypeError):
        iter(scalar)


def test_einsum_maps_batch_axes():
    ring = jets.ring(2, 3)
    x = ring.seed(0, 0.4)
    m = jets.stack([[x, 2.0 * x], [x * x, jets.sin(x)]])
    np.testing.assert_allclose(m.einsum("mm->").coeffs, (x + jets.sin(x)).coeffs, atol=1e-15)
    np.testing.assert_array_equal(m.einsum("ik->ki").coeffs, m.coeffs.transpose(1, 0, 2))
    np.testing.assert_array_equal(m.einsum("ik->i")[1].coeffs, (x * x + jets.sin(x)).coeffs)


def test_stack_takes_fewest_orders_and_one_ring():
    ring = jets.ring(2, 4)
    a = ring.seed(0, 0.3) ** 3
    b = a.deriv(0).deriv(0)
    s = jets.stack([a, b, ring.const(2.0)])
    assert s.batch_shape == (3,) and s.valid == b.valid == 2
    assert s.nzdeg == 2  # the largest nonzero degree, capped by the budget
    assert jets.stack([ring.const(1.0), ring.seed(1, 0.0)]).nzdeg == 1
    # coefficients above the shared budget are dropped
    np.testing.assert_array_equal(s[0].coeffs[int(ring.size_upto[2]):], 0.0)
    np.testing.assert_array_equal(s[1].coeffs, b.coeffs)
    assert jets.stack(s) is s
    with pytest.raises(ValueError):
        jets.stack([a, jets.ring(2, 3).seed(0, 0.3)])


@pytest.mark.parametrize("left", [np.float64(2.0), np.array(2.0), np.array([2.0, 3.0])],
                         ids=["numpy-scalar", "0-d", "1-d"])
def test_numpy_operand_on_the_left_gives_a_jet(left):
    ring = jets.ring(2, 3)
    vec = jets.stack([ring.seed(0, 0.1), ring.seed(1, 0.2)])
    for right in (vec, vec[0]):
        for out in (left * right, left + right, left - right):
            assert isinstance(out, jets.Jet)
            assert out.batch_shape == np.broadcast_shapes(np.shape(left), right.batch_shape)
    np.testing.assert_allclose((left * vec).value(), np.asarray(left) * vec.value())


def test_truncate_keeps_low_orders_only():
    ring = jets.ring(2, 5)
    f = (ring.seed(0, 0.3) + 2.0 * ring.seed(1, -0.1)) ** 3 + 1.0
    t = f.truncate(2)
    keep = int(ring.size_upto[2])
    assert (t.valid, t.nzdeg) == (2, 2) and (f.valid, f.nzdeg) == (5, 3)
    np.testing.assert_array_equal(t.coeffs[:keep], f.coeffs[:keep])
    assert not t.coeffs[keep:].any() and f.coeffs[keep:].any()
    assert f.truncate(7).valid == 5 and ring.const(2.0).truncate(1).nzdeg == 0


def _matmul(a, z):
    return (a * z[None, :]).einsum("il->i")


def test_solve_roundtrip():
    rng = np.random.default_rng(7)
    r = jets.ring(3, 4)
    seeds = [r.seed(v, 0.0) for v in range(3)]

    def entry(c):
        out = r.const(c)
        for v in range(3):
            out = out + 0.2 * rng.standard_normal() * seeds[v]
        return out + 0.1 * rng.standard_normal() * seeds[0] * seeds[1] * seeds[2]

    a = jets.stack([[entry(3.0 if i == j else 0.3 * rng.standard_normal()) for j in range(3)]
                    for i in range(3)])
    b = jets.stack([entry(rng.standard_normal()) ** 2 for _ in range(3)]).truncate(3)
    z = jets.solve(a, b)
    assert z.batch_shape == (3,) and z.valid == b.valid
    np.testing.assert_allclose(_matmul(a, z).coeffs, b.coeffs, rtol=0.0, atol=1e-12)


def test_solve_zero_diagonal_constant_term():
    # a(0) = [[0, 1], [1, 0]] has no usable diagonal pivot; a^{-1} = [[0, 1], [1, -u]]
    r = jets.ring(2, 3)
    u = r.seed(0, 0.0)
    one, zero = r.const(1.0), r.const(0.0)
    a = jets.stack([[u, one], [one, zero]])
    want = [[zero, one], [one, -u]]
    for j, e in enumerate(([1.0, 0.0], [0.0, 1.0])):
        z = jets.solve(a, r.const(np.array(e)))
        for i in range(2):
            np.testing.assert_allclose(z[i].coeffs, want[i][j].coeffs, rtol=0.0, atol=1e-13)


def test_solve_singular_constant_term_raises():
    r = jets.ring(2, 3)
    u = r.seed(0, 1.0)
    a = jets.stack([[r.const(1.0), u], [r.const(1.0), u]])
    with pytest.raises(JetDomainError):
        jets.solve(a, r.const(np.ones(2)))
