"""Jet kernel tests: seeded coefficients, arithmetic, composition, partials.

Oracles: exact hand-expanded series, brute-force polynomial calculus, and
high-order central finite differences of independently coded closed forms.
"""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spraylab import cli, jets
from spraylab.catalog import MetricSpec
from spraylab.errors import ConfigError, DegreeBudgetError, JetDomainError
from spraylab.verify import identity_suite

from helpers import coeff, partial, reference_lift_table, reference_ring_tables


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
    assert coeff(a, (0, 0)) == 2.0
    assert coeff(a, (1, 0)) == 1.0
    assert coeff(a, (0, 1)) == 0.0
    assert coeff(a, (2, 0)) == 0.0

    r3 = jets.ring(2, 3)
    b = r3.seed(1, 0.0)
    assert coeff(b, (0, 0)) == 0.0
    assert coeff(b, (0, 1)) == 1.0

    assert partial(jets.ring(2, 2).seed(0, 5.0), (1, 0)) == 1.0


def test_seed_slot_out_of_range():
    with pytest.raises(ValueError):
        jets.ring(2, 2).seed(2, 0.0)


def test_product_one_plus_u_times_one_minus_u():
    r = jets.ring(1, 2)
    u = r.seed(0, 0.0)
    p = (1 + u) * (1 - u)
    assert coeff(p, (0,)) == 1.0
    assert coeff(p, (1,)) == 0.0
    assert coeff(p, (2,)) == -1.0


def test_division_identity():
    r = jets.ring(1, 4)
    u = r.seed(0, 0.0)
    q = (1 + u) / (1 + u)
    assert coeff(q, (0,)) == pytest.approx(1.0, abs=1e-15)
    for k in range(1, 5):
        assert coeff(q, (k,)) == pytest.approx(0.0, abs=1e-15)


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
        assert partial(prod, tuple(int(i == k) for i in range(2))) == pytest.approx(
            fd, rel=1e-6
        )
    # all orders up to 4 against a stencil that is exact on this polynomial
    for alpha in itertools.product(range(5), repeat=2):
        if not 0 < sum(alpha) <= 4:
            continue
        fd = fd_partial(fn, point, alpha)
        assert partial(prod, alpha) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_sqrt_binomial_series():
    r = jets.ring(1, 2)
    u = r.seed(0, 0.0)
    s = jets.sqrt(1 + 2 * u)
    assert coeff(s, (0,)) == pytest.approx(1.0)
    assert coeff(s, (1,)) == pytest.approx(1.0)
    assert coeff(s, (2,)) == pytest.approx(-0.5)


def test_exp_log_round_trip():
    rng = np.random.default_rng(3)
    r = jets.ring(2, 4)
    coeffs = rng.normal(size=r.size)
    coeffs[0] = 3.0
    a = jets.Jet(r, coeffs, nzdeg=4)
    back = jets.exp(jets.log(a))
    np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=1e-12, atol=1e-12)


def test_pow_quarter_round_trip():
    rng = np.random.default_rng(7)
    r = jets.ring(3, 5)
    coeffs = 0.3 * rng.normal(size=r.size)
    coeffs[0] = 2.0
    a = jets.Jet(r, coeffs, nzdeg=5)
    back = jets.powr(a**4, 0.25)
    np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("r", [-2.5, -1.5, 0.25, 0.5, 3.7])
def test_powr_matches_exp_log(r):
    rng = np.random.default_rng(5)
    ring = jets.ring(3, 5)
    coeffs = 0.3 * rng.normal(size=(4, ring.size))
    coeffs[:, 0] = [0.6, 1.0, 2.0, 3.5]
    a = jets.Jet(ring, coeffs, nzdeg=5)
    for jet in (a, a.grad(1) + 2.0):
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
    assert partial(sq, (2,)) == pytest.approx(2.0)

    r2 = jets.ring(2, 3)
    uv = r2.seed(0, 0.0) * r2.seed(1, 0.0)
    assert partial(uv, (1, 1)) == pytest.approx(1.0)

    r5 = jets.ring(1, 5)
    p = (1 + r5.seed(0, 0.0)) ** 5
    fd = fd_partial(lambda x: (1 + x[0]) ** 5, (0.0,), (3,))
    assert fd == pytest.approx(60.0, rel=1e-9)
    assert partial(p, (3,)) == pytest.approx(fd, rel=1e-9)


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
        got = partial(f, alpha)
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
    return jets.Jet(r, coeffs, nzdeg=r.degree)


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
        expect = partial(a, e) * b.value() + a.value() * partial(b, e)
        assert partial(prod, e) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_truncation_closure():
    r = jets.ring(2, 3)
    rng = np.random.default_rng(0)
    a, b = _random_jet(r, rng), _random_jet(r, rng)
    assert (a * b).coeffs.shape == (r.size,)
    d = a.grad(0)
    assert d.valid == 2
    top = int(r.size_upto[2])
    for jet in (d, a.grad(0) + b, a.grad(0) * b):
        assert (jet.valid, jet.coeffs.shape) == (2, (top,))


def test_valid_budget_tracking_and_errors():
    r = jets.ring(2, 3)
    a = r.seed(0, 1.5)
    d3 = a.grad(0).grad(0).grad(0)
    assert d3.valid == 0
    # a fourth derivative of a degree-3 jet
    with pytest.raises(DegreeBudgetError, match="truncation budget"):
        d3.grad(0)
    with pytest.raises(DegreeBudgetError, match="first-order"):
        d3.gradient()


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


def test_width_must_be_an_order_of_the_ring():
    r = jets.ring(2, 3)
    assert [jets.Jet(r, np.zeros((2, w)), 0).valid for w in (1, 3, 6, 10)] == [0, 1, 2, 3]
    for width in (0, 4, 11):
        with pytest.raises(ValueError, match=rf"width {width} .*ring\(2, 3\)"):
            jets.Jet(r, np.zeros((2, width)), 0)


@pytest.mark.parametrize("nvars, degree, limit", [
    (2, 0, "degree"), (2, 11, "degree"), (0, 3, "variables"), (13, 1, "variables"),
])
def test_ring_outside_its_limits_is_refused(nvars, degree, limit):
    message = {"degree": f"jet degree must be in 1..{jets.MAX_DEGREE}, got {degree}",
               "variables": f"jet ring needs 1..{jets.MAX_VARS} variables"}[limit]
    with pytest.raises(ConfigError, match=re.escape(message)):
        jets.PolyRing(nvars, degree)


def test_ring_size_is_refused_before_allocating(monkeypatch):
    # ring(3, 5) multiplies C(2*3 + 5, 5) = 462 pairs; refused rings at the
    # real budget, such as ring(12, 10) with 131 M pairs, are never built here
    assert [len(jets.ring(*shape)._mul_i) for shape in [(3, 5), (4, 4), (8, 7)]] == [
        math.comb(2 * n + d, d) for n, d in [(3, 5), (4, 4), (8, 7)]]

    graded = jets._graded_exponents

    def no_tables(*args):
        raise AssertionError("the ring's tables were built before the size check")

    monkeypatch.setattr(jets, "MAX_MUL_PAIRS", 461)
    monkeypatch.setattr(jets, "_graded_exponents", no_tables)
    with pytest.raises(ConfigError, match=r"ring\(3, 5\) needs 462 multiply pairs, "
                                          r"more than the budget of 461"):
        jets.PolyRing(3, 5)
    monkeypatch.setattr(jets, "MAX_MUL_PAIRS", 462)
    monkeypatch.setattr(jets, "_graded_exponents", graded)
    assert len(jets.PolyRing(3, 5)._mul_i) == 462


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (3, 5), (4, 4), (5, 6), (6, 7), (8, 7),
                                   (4, 10)])
def test_ring_tables_equal_the_reference_construction(shape):
    r = jets.PolyRing(*shape)
    for name, want in reference_ring_tables(*shape).items():
        got = getattr(r, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert np.array_equal(got, want), name


def test_ring_tables_are_c_contiguous():
    # each derivative reads rows of _dsrc and _dmul, which Fortran order would stride
    r = jets.PolyRing(3, 5)
    for name in ("exponents", "_dsrc", "_dmul", "_mul_i", "_mul_j", "_mul_starts"):
        assert getattr(r, name).flags.c_contiguous, name


@pytest.mark.parametrize("shapes", [((3, 3), (6, 7)), ((4, 3), (8, 7)), ((3, 5), (6, 7)),
                                    ((2, 7), (4, 3)), ((3, 2), (6, 7))])
def test_lift_table_equals_one_lookup_per_row(shapes):
    got = jets._lift_table(*shapes[0], *shapes[1])
    want = reference_lift_table(*shapes[0], *shapes[1])
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)


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
    lifted = jets.lift(a, big, 5)
    assert coeff(lifted, (1, 1, 0, 0)) == coeff(a, (1, 1))
    assert coeff(lifted, (1, 0, 0, 0)) == coeff(a, (1, 0))
    assert lifted.value() == a.value()
    # variables outside the embedded block carry nothing
    assert coeff(lifted, (0, 0, 1, 0)) == 0.0
    assert (lifted.valid, lifted.xvalid) == (5, 3)


def test_lift_tracks_validity():
    small = jets.ring(2, 4)
    a = (small.seed(0, 1.0) * small.seed(1, 2.0)).grad(0)
    lifted = jets.lift(a, jets.ring(4, 6), 6)
    assert (lifted.valid, lifted.xvalid) == (6, 3)


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
    return jets.stack([jets.stack(row) for row in entries]).grad(2)


def test_grad_matches_stacked_derivs_bitwise():
    t = _tensor_jet()
    slots = [2, 0, 1]
    g = t.grad(slots)
    assert g.batch_shape == t.batch_shape + (3,)
    want = np.stack([t.grad(s).coeffs for s in slots], axis=-2)
    np.testing.assert_array_equal(g.coeffs, want)
    assert (g.valid, g.nzdeg) == (t.valid - 1, max(t.nzdeg - 1, 0))


def test_grad_keeps_the_valid_invariant_and_budget():
    ring = jets.ring(2, 3)
    f = ring.seed(0, 0.5) * ring.seed(1, -0.25) ** 2
    g = f.grad([0, 1]).grad([0, 1]).grad([1])
    assert g.valid == 0 and g.nzdeg == 0
    assert g.coeffs.shape == (2, 2, 1, 1)
    with pytest.raises(DegreeBudgetError):
        g.grad([0])
    with pytest.raises(DegreeBudgetError):
        g.grad(0)
    with pytest.raises(ValueError):
        f.grad([2])


def test_indexing_reaches_batch_axes_only():
    t = _tensor_jet()
    size = int(t.ring.size_upto[t.valid])
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
    m = jets.stack([jets.stack([x, 2.0 * x]), jets.stack([x * x, jets.sin(x)])])
    np.testing.assert_allclose(m.einsum("mm->").coeffs, (x + jets.sin(x)).coeffs, atol=1e-15)
    np.testing.assert_array_equal(m.einsum("ik->ki").coeffs, m.coeffs.transpose(1, 0, 2))
    np.testing.assert_array_equal(m.einsum("ik->i")[1].coeffs, (x * x + jets.sin(x)).coeffs)


def test_stack_takes_fewest_orders_and_one_ring():
    ring = jets.ring(2, 4)
    a = ring.seed(0, 0.3) ** 3
    b = a.grad(0).grad(0)
    s = jets.stack([a, b, ring.const(2.0)])
    assert s.batch_shape == (3,) and s.valid == b.valid == 2
    assert s.nzdeg == 2  # the largest nonzero degree, capped by the budget
    assert jets.stack([ring.const(1.0), ring.seed(1, 0.0)]).nzdeg == 1
    # coefficients above the shared budget are dropped
    assert s.coeffs.shape == (3, int(ring.size_upto[2]))
    np.testing.assert_array_equal(s[1].coeffs, b.coeffs)
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


def test_constant_operands_take_the_jet_width():
    # built at the full ring width, they held 5.2 MB of zeros per funk dim-4 point
    r = jets.ring(3, 5)
    a = r.seed(0, np.array([1.0, 2.0])).truncate(2)
    for const in (a._coerce(2.0), a._coerce(np.array([1.0, 3.0])), a**0):
        assert (const.valid, const.nzdeg) == (a.valid, 0)
        np.testing.assert_array_equal(const.coeffs[..., 1:], 0.0)


@pytest.mark.parametrize("x", [2.5, 3, np.array(-1.5), np.array([0.5, -2.0, 0.0])],
                         ids=["float", "int", "0-d", "batched"])
def test_a_number_scales_as_its_constant_jet(x):
    # a number or array scales the coefficients, without building the constant jet
    _, f = _x_jet(np.random.default_rng(8))
    r = f.ring
    for jet in (f, f.truncate(4), r.seed(2, np.array([1.0, -2.0, 3.0])), r.const(-2.0, 5)):
        for got, want in ((jet * x, jet * r.const(x)), (x * jet, r.const(x) * jet)):
            assert np.array_equal(got.coeffs, want.coeffs)
            assert (got.valid, got.nzdeg, got.xvalid) == (want.valid, want.nzdeg, want.xvalid)


def test_truncate_keeps_low_orders_only():
    ring = jets.ring(2, 5)
    f = (ring.seed(0, 0.3) + 2.0 * ring.seed(1, -0.1)) ** 3 + 1.0
    t = f.truncate(2)
    keep = int(ring.size_upto[2])
    assert (t.valid, t.nzdeg) == (2, 2) and (f.valid, f.nzdeg) == (5, 3)
    np.testing.assert_array_equal(t.coeffs, f.coeffs[:keep])
    assert t.coeffs.shape == (keep,) and f.coeffs[keep:].any()
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

    a = jets.stack([jets.stack([entry(3.0 if i == j else 0.3 * rng.standard_normal())
                                for j in range(3)]) for i in range(3)])
    b = jets.stack([entry(rng.standard_normal()) ** 2 for _ in range(3)]).truncate(3)
    z = jets.solve(a, b)
    assert z.batch_shape == (3,) and z.valid == b.valid
    np.testing.assert_allclose(_matmul(a, z).coeffs, b.coeffs, rtol=0.0, atol=1e-12)


def test_solve_zero_diagonal_constant_term():
    # a(0) = [[0, 1], [1, 0]] has no usable diagonal pivot; a^{-1} = [[0, 1], [1, -u]]
    r = jets.ring(2, 3)
    u = r.seed(0, 0.0)
    one, zero = r.const(1.0), r.const(0.0)
    a = jets.stack([jets.stack([u, one]), jets.stack([one, zero])])
    want = [[zero, one], [one, -u]]
    for j, e in enumerate(([1.0, 0.0], [0.0, 1.0])):
        z = jets.solve(a, r.const(np.array(e)))
        for i in range(2):
            np.testing.assert_allclose(z[i].coeffs, want[i][j].coeffs, rtol=0.0, atol=1e-13)


def test_solve_singular_constant_term_raises():
    r = jets.ring(2, 3)
    u = r.seed(0, 1.0)
    a = jets.stack([jets.stack([r.const(1.0), u]), jets.stack([r.const(1.0), u])])
    with pytest.raises(JetDomainError):
        jets.solve(a, r.const(np.ones(2)))


# -- degree-cut kernel -----------------------------------------------------------


def _poly_jet(r, rng, batch=()):
    """A random jet whose coefficients stop at a random nzdeg <= valid."""
    valid = int(rng.integers(0, r.degree + 1))
    nzdeg = int(rng.integers(0, valid + 1))
    coeffs = rng.normal(size=batch + (int(r.size_upto[valid]),))
    coeffs[..., int(r.size_upto[nzdeg]):] = 0.0
    return jets.Jet(r, coeffs, nzdeg)


def _solve_all_orders(a, b):
    # reference: step k computes every order <= k of a z and reads order k
    r = a.ring
    a0inv = np.linalg.inv(a.coeffs[..., 0])
    valid = min(a.valid, b.valid)
    z = np.zeros(b.coeffs.shape)
    z[..., :1] = a0inv @ b.coeffs[..., :1]
    for k in range(1, valid + 1):
        lo, hi = int(r.size_upto[k - 1]), int(r.size_upto[k])
        az = r._mul_coeffs(a.coeffs, z[..., None, :, :], k).sum(axis=-2)
        z[..., lo:hi] = a0inv @ (b.coeffs[..., lo:hi] - az[..., lo:hi])
    return z


RINGS = [(3, 5), (4, 4)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RINGS), st.integers(0, 2**32 - 1))
def test_cut_product_equals_dense_product(shape, seed):
    r = jets.ring(*shape)
    rng = np.random.default_rng(seed)
    a, b = _poly_jet(r, rng, (2,)), _poly_jet(r, rng)
    dense = r._mul_coeffs(a.coeffs, b.coeffs, min(a.valid, b.valid))
    assert np.array_equal((a * b).coeffs, dense)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RINGS), st.integers(0, 2**32 - 1))
def test_order_slice_equals_full_product(shape, seed):
    r = jets.ring(*shape)
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, r.size)), rng.normal(size=r.size)
    hi = int(rng.integers(0, r.degree + 1))
    lo = int(rng.integers(0, hi + 1))
    c0 = int(r.size_upto[lo - 1]) if lo else 0
    c1 = int(r.size_upto[hi])
    full = r._mul_coeffs(a, b, hi)
    part = r._mul_coeffs(a, b, hi, lo)
    assert full.shape == (2, c1) and part.shape == (2, c1 - c0)
    assert np.array_equal(part, full[..., c0:c1])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(RINGS), st.integers(0, 2**32 - 1))
def test_single_order_solve_equals_all_orders_solve(shape, seed):
    r = jets.ring(*shape)
    rng = np.random.default_rng(seed)
    n = 3
    a = rng.normal(size=(n, n, r.size)) * 0.3
    a[..., 0] += np.eye(n)
    a = jets.Jet(r, a, r.degree)
    b = jets.Jet(r, rng.normal(size=(n, r.size)), r.degree)
    want = _solve_all_orders(a, b)
    np.testing.assert_allclose(jets.solve(a, b).coeffs, want, rtol=0.0,
                               atol=1e-14 * np.abs(want).max())


FUNK4 = MetricSpec("funk", 4, {})


def test_nzdeg_bounds_every_stored_coefficient(monkeypatch, capsys):
    # the kernel drops every order above nzdeg_a + nzdeg_b, so a bound set
    # too low would silently lose terms
    init = jets.Jet.__init__
    bad, built = [], []

    def checked_init(self, ring, coeffs, nzdeg, xvalid=None):
        init(self, ring, coeffs, nzdeg, xvalid)
        built.append(1)
        if coeffs[..., ring.total_degree[: coeffs.shape[-1]] > self.nzdeg].any():
            bad.append((self.valid, self.nzdeg))

    monkeypatch.setattr(jets.Jet, "__init__", checked_init)
    identity_suite(FUNK4, points=1)
    assert cli.main(["eval", "--metric", "randers", "--dim", "3", "--volume", "bh",
                     "--points", "1"]) == 0
    capsys.readouterr()
    assert built and bad == []


def test_funk4_point_multiplies_within_the_cut_budget(monkeypatch):
    # dense pairs up to each call's output degree, as perfbench's jets.mul_terms
    # counts them: 10.86 M per point without the degree cut
    mul = jets.PolyRing._mul_coeffs
    terms = []

    def counting(ring, a, b, out_deg, *args):
        batch = math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        terms.append(int(ring._pairs_upto[out_deg]) * batch)
        return mul(ring, a, b, out_deg, *args)

    monkeypatch.setattr(jets.PolyRing, "_mul_coeffs", counting)
    identity_suite(FUNK4, points=1)
    assert sum(terms) <= 6.0e6


def _positive_jet(r, rng, batch, valid, nzdeg):
    coeffs = rng.normal(size=batch + (int(r.size_upto[valid]),))
    coeffs[..., int(r.size_upto[nzdeg]):] = 0.0
    coeffs[..., 0] = rng.uniform(0.5, 2.0, size=batch)
    return jets.Jet(r, coeffs, nzdeg)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RINGS), st.integers(0, 2**32 - 1))
def test_operations_never_write_into_operands(shape, seed):
    # truncate returns a view, so a write into any operand would reach
    # every jet that shares its memory
    r = jets.ring(*shape)
    rng = np.random.default_rng(seed)
    full = _positive_jet(r, rng, (3,), r.degree, r.degree)
    a = full.truncate(int(rng.integers(0, r.degree + 1)))
    assert np.shares_memory(a.coeffs, full.coeffs)
    valid = int(rng.integers(0, r.degree + 1))
    b = _positive_jet(r, rng, (3,), valid, int(rng.integers(0, valid + 1)))
    m = _positive_jet(r, rng, (3, 3), r.degree, r.degree)
    m.coeffs[..., 0] += 3.0 * np.eye(3)
    const = r.const(rng.uniform(0.5, 2.0, size=3))
    operands = (full, a, b, m, const)
    before = [x.coeffs.copy() for x in operands]

    results = [a + b, a - b, 2.0 - a, a * b, a * const, const * b, a / b, 1.0 / a, a ** 3,
               m.einsum("ik->ki"), m.einsum("ii->"), jets.stack([a, b, const]),
               jets.lift(a, jets.ring(2 * r.nvars, r.degree), r.degree), jets.solve(m, b),
               jets.powr(a, -1.5), jets.log(b), jets.exp(a), jets.sin(a), jets.cos(b)]
    if a.valid:
        results.append(a.grad([0, r.nvars - 1]))
    assert all(np.isfinite(out.coeffs).all() for out in results)
    for x, snap in zip(operands, before):
        assert x.coeffs.tobytes() == snap.tobytes()


@pytest.mark.parametrize("spec, volume, limit", [(FUNK4, None, 10e6), ("randers", "bh", 2e6),
                                                 (MetricSpec("funk", 5), None, 10e6)],
                         ids=["funk4", "randers-bh", "funk5"])
def test_one_point_peak_memory(spec, volume, limit):
    # 30.6 MiB (funk4) and 4.3 MiB (randers under BH) when every jet was
    # stored at the full ring width
    identity_suite(spec, volume, points=1, seed=1)  # builds the rings and tables
    tracemalloc.start()
    try:
        identity_suite(spec, volume, points=1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


# -- elementary functions against a Horner reference ------------------------------


def _horner(a, series):
    """sum_k c_k (a - a0)^k by Horner's rule, with c_k = series(k, a0)."""
    a0 = np.asarray(a.coeffs[..., 0])
    nil_coeffs = a.coeffs.copy()
    nil_coeffs[..., 0] = 0.0
    nil = jets.Jet(a.ring, nil_coeffs, a.nzdeg)
    c_top = np.broadcast_to(np.asarray(series(a.valid, a0), dtype=np.float64), a.batch_shape)
    result = a.ring.const(np.array(c_top))
    for k in range(a.valid - 1, -1, -1):
        result = result * nil
        result.coeffs[..., 0] += series(k, a0)
    return result.truncate(a.valid)


def _binom(r, k):
    out = 1.0
    for i in range(k):
        out *= (r - i) / (i + 1)
    return out


def _log_series(k, x):
    if k == 0:
        return np.log(x)
    return (-1.0) ** (k + 1) / (k * x**k)


def _power_case(r):
    return (lambda a: jets.powr(a, r), lambda x: x**r,
            lambda k, x: _binom(r, k) * x ** (r - k))


# name -> (jet function, numpy function, k-th Taylor coefficient of the map at x)
ELEMENTARY = {
    **{f"powr({r:.3g})": _power_case(r) for r in (-1.5, -1.0, -0.5, 1.0 / 3.0, 0.5, 2.5)},
    "reciprocal": (jets.reciprocal, lambda x: 1.0 / x,
                   lambda k, x: (1.0 / x) * (-1.0 / x) ** k),
    "log": (jets.log, np.log, _log_series),
    "exp": (jets.exp, np.exp, lambda k, x: np.exp(x) / math.factorial(k)),
    "sin": (jets.sin, np.sin, lambda k, x: np.sin(x + k * np.pi / 2) / math.factorial(k)),
    "cos": (jets.cos, np.cos, lambda k, x: np.cos(x + k * np.pi / 2) / math.factorial(k)),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(RINGS), st.sampled_from(sorted(ELEMENTARY)),
       st.sampled_from([(), (3,), (2, 2)]), st.integers(0, 2**32 - 1))
def test_recurrences_match_horner(shape, name, batch, seed):
    r = jets.ring(*shape)
    rng = np.random.default_rng(seed)
    valid = int(rng.integers(0, r.degree + 1))
    a = _positive_jet(r, rng, batch, valid, int(rng.integers(0, valid + 1)))
    if name == "reciprocal" and rng.integers(2):
        a = -a  # the reciprocal keeps negative constant terms legal
    fn, _, series = ELEMENTARY[name]
    got, want = fn(a), _horner(a, series)
    assert (got.valid, got.nzdeg, got.coeffs.shape) == (want.valid, want.nzdeg,
                                                        want.coeffs.shape)
    err = np.abs(got.coeffs - want.coeffs)
    assert np.all(err <= 1e-14 * np.abs(want.coeffs).max(axis=-1, keepdims=True))
    # orders 0 and 1 are the series' own values, so a first-order F keeps its bits
    first = int(r.size_upto[min(valid, 1)])
    assert np.array_equal(got.coeffs[..., :first], want.coeffs[..., :first])


@pytest.mark.parametrize("name", sorted(ELEMENTARY))
def test_constant_input_gives_the_numpy_value(name):
    fn, numpy_fn, _ = ELEMENTARY[name]
    values = np.array([0.3, 1.7, 2.9])
    got = fn(jets.ring(3, 5).const(values, 4))
    assert (got.valid, got.nzdeg) == (4, 0)
    assert np.array_equal(got.coeffs[..., 0], numpy_fn(values))
    assert not got.coeffs[..., 1:].any()


@pytest.mark.parametrize("fn, bad, message", [
    (jets.sqrt, 0.0, "sqrt requires a positive"),
    (jets.log, -1.0, "log requires a positive"),
    (lambda a: jets.powr(a, 1.5), 0.0, "pow requires a positive"),
    (jets.reciprocal, 0.0, "zero constant term"),
])
def test_domain_errors_reach_every_batch_entry(fn, bad, message):
    r = jets.ring(2, 3)
    a = r.seed(0, np.array([1.0, 2.0, bad]))
    with pytest.raises(JetDomainError, match=message):
        fn(a)


def test_bh_point_reads_within_the_pair_budget(monkeypatch):
    # pairs read from _mul_starts[c0] on, so an order-k slice counts order k
    # only: 6.37 M per point when powr and log composed by Horner's rule
    mul = jets.PolyRing._mul_coeffs
    pairs = []

    def counting(ring, a, b, out_deg, lo_deg=0):
        batch = math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        c0 = int(ring.size_upto[lo_deg - 1]) if lo_deg else 0
        pairs.append((int(ring._pairs_upto[out_deg]) - int(ring._mul_starts[c0])) * batch)
        return mul(ring, a, b, out_deg, lo_deg)

    monkeypatch.setattr(jets.PolyRing, "_mul_coeffs", counting)
    identity_suite("randers", "bh", points=1)
    assert sum(pairs) <= 3.0e6


# -- the multiply kernel against its fancy-index gather ---------------------------


def _mul_coeffs_fancy(r, a, b, out_deg, lo_deg=0):
    """The kernel as it gathered its operand pairs by fancy indexing."""
    c0 = int(r.size_upto[lo_deg - 1]) if lo_deg else 0
    c1 = int(r.size_upto[out_deg])
    p0, p1 = int(r._mul_starts[c0]), int(r._pairs_upto[out_deg])
    prod = a[..., r._mul_i[p0:p1]] * b[..., r._mul_j[p0:p1]]
    return np.add.reduceat(prod, r._mul_starts[c0:c1] - p0, axis=-1)


# operand batch shapes; the last pair is the (n, n, W) x (1, n, W) product of solve
BATCHES = [((), ()), ((3,), (3,)), ((2, 2), (2, 2)), ((3, 3), (1, 3))]


# (direct, block) bytes of the kernel: as shipped, or small enough that
# every call runs blocked, across several blocks and past one segment a block
@pytest.mark.parametrize("sizes", [None, (64, 256)], ids=["shipped", "tiny-blocks"])
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RINGS), st.sampled_from(BATCHES),
       st.sampled_from(["copy", "prefix", "transposed"]), st.integers(0, 2**32 - 1))
def test_take_kernel_equals_fancy_index_kernel(sizes, shape, batches, layout, seed):
    with pytest.MonkeyPatch.context() as mp:
        if sizes is not None:
            mp.setattr(jets, "_DIRECT_BYTES", sizes[0])
            mp.setattr(jets, "_BLOCK_BYTES", sizes[1])
        _check_take_kernel(shape, batches, layout, seed)


def _check_take_kernel(shape, batches, layout, seed):
    r = jets.ring(*shape)
    rng = np.random.default_rng(seed)
    hi = int(rng.integers(0, r.degree + 1))
    lo = int(rng.integers(0, hi + 1))
    operands = []
    for batch in batches:
        # a prefix view of a batched jet, as truncate returns it, is not contiguous
        full = rng.normal(size=batch + (r.size,))
        x = full[..., : int(r.size_upto[int(rng.integers(hi, r.degree + 1))])]
        if layout == "transposed" and len(batch) == 2 and batch[0] == batch[1]:
            x = x.swapaxes(0, 1)  # as einsum("ik->ki") leaves a tensor jet
        operands.append(np.ascontiguousarray(x) if layout == "copy" else x)
    got = r._mul_coeffs(*operands, hi, lo)
    want = _mul_coeffs_fancy(r, *operands, hi, lo)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()
    # downstream einsum and @ round by layout, so the layout is part of the result
    assert got.flags.c_contiguous


# -- exact orders in x ----------------------------------------------------------------


def _x_jet(rng, degree=3):
    """A random jet of x alone in ring(2, degree), lifted onto the x of ring(4, 6)."""
    small = _random_jet(jets.ring(2, degree), rng)
    return small, jets.lift(small, jets.ring(4, 6), 6)


def _counts(jet):
    return jet.valid, jet.xvalid


def test_lift_of_an_x_jet_is_exact_in_y_and_keeps_its_x_orders():
    small, f = _x_jet(np.random.default_rng(1))
    assert _counts(f) == (6, 3)
    assert coeff(f, (2, 1, 0, 0)) == coeff(small, (2, 1))
    assert coeff(f, (0, 0, 4, 2)) == 0.0 and coeff(f, (3, 0, 3, 0)) == 0.0
    # a fourth x-derivative, with y-derivatives to spare
    d3 = f.grad(0).grad(1).grad(0)
    assert _counts(d3) == (3, 0)
    with pytest.raises(DegreeBudgetError, match="x-derivative would exceed the exact x-orders"):
        d3.grad(1)
    # more variables than the target's x half cannot be padded in y
    with pytest.raises(ValueError):
        jets.lift(_random_jet(jets.ring(3, 3), np.random.default_rng(2)), jets.ring(4, 6), 6)


def test_sums_and_products_keep_the_fewer_orders_of_each_count():
    rng = np.random.default_rng(3)
    _, f = _x_jet(rng)
    g = _random_jet(jets.ring(4, 6), rng)
    short = g.truncate(2)
    for jet in (f + g, g - f, f * g, g * f, f * 2.0, f + 1.0, 3.0 - f, -f):
        assert _counts(jet) == (6, 3)
    for jet in (f + short, f * short):
        assert _counts(jet) == (2, 2)
    assert _counts(f * g.truncate(0)) == (0, 0)


def test_x_derivative_lowers_both_counts_and_y_derivative_only_valid():
    _, f = _x_jet(np.random.default_rng(4))
    assert _counts(f.grad(0)) == (5, 2)
    assert _counts(f.grad(3)) == (5, 3)
    assert _counts(f.grad(range(4))) == (5, 2)
    assert _counts(f.grad([2, 3])) == (5, 3)
    flat = f.grad(0).grad(1).grad(0)
    assert _counts(flat) == (3, 0)
    with pytest.raises(DegreeBudgetError, match="x-derivative"):
        flat.grad(1)
    assert _counts(flat.grad(2)) == (2, 0)
    # first partials: the y ones are still exact, the x ones are not
    assert flat.gradient(range(2, 4)).shape == (2,)
    with pytest.raises(DegreeBudgetError, match="first-order x"):
        flat.gradient()


def test_truncate_caps_both_counts():
    _, f = _x_jet(np.random.default_rng(5))
    assert _counts(f.truncate(5)) == (5, 3)
    assert _counts(f.truncate(2)) == (2, 2)


def test_solve_powr_log_stack_and_batch_maps_carry_both_counts():
    rng = np.random.default_rng(6)
    _, f = _x_jet(rng)
    r = f.ring
    two, zero = r.const(2.0), r.const(0.0)
    eye = jets.stack([jets.stack([two, zero]), jets.stack([zero, two])])
    a = eye + 0.1 * jets.stack([jets.stack([f, r.seed(2, 0.3)]), jets.stack([r.seed(3, 0.1), f])])
    b = jets.stack([r.seed(2, 1.0), f])
    assert _counts(a) == (6, 3)
    assert _counts(jets.solve(a, b)) == (6, 3)
    positive = 2.0 + 0.1 * f
    for jet in (jets.powr(positive, -1.5), jets.log(positive), jets.exp(f), jets.sin(f),
                jets.reciprocal(positive), positive ** 2, positive / r.seed(2, 1.0)):
        assert _counts(jet) == (6, 3)
    pair = jets.stack([f, r.seed(2, 1.0)])
    assert _counts(pair) == (6, 3)
    assert _counts(pair[1]) == (6, 3)
    assert _counts(pair.einsum("i->")) == (6, 3)
    assert _counts(pair.sum_batch(np.array([0.5, 0.5]))) == (6, 3)
    constant = jets.Jet(r, r.const(2.0).coeffs, 0, 3)
    assert _counts(jets.log(constant)) == (6, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_coefficients_the_counts_call_exact_equal_those_from_all_x_orders(seed):
    # ln sigma known to x-order 3, and to x-order 6: every coefficient the
    # counts call exact is the same, through every kind of operation
    rng = np.random.default_rng(seed)
    full, f_full = _x_jet(rng, degree=6)
    small = jets.ring(2, 3)
    f_short = jets.lift(jets.Jet(small, full.coeffs[: small.size], small.degree),
                        f_full.ring, 6)
    g = _random_jet(f_full.ring, rng, scale=0.2)
    r = g.ring
    ys = range(2, 4)

    def chain(f):
        s = (jets.stack([r.seed(2, 0.4), r.seed(3, -0.7)]) * f.grad(range(2))).einsum("m->")
        h = jets.log(3.0 + s * g) + jets.powr(2.0 + 0.1 * f, 0.5) * g.grad(ys)[0]
        return h.grad(0) * g.grad(ys)[1] - h.grad(ys)[0]

    got, want = chain(f_short), chain(f_full)
    assert _counts(got) == (4, 1) and _counts(want) == (4, 4)
    exps = r.exponents[: got.coeffs.shape[-1]]
    exact = exps[:, :2].sum(axis=1) <= got.xvalid
    assert not exact.all()
    np.testing.assert_array_equal(got.coeffs[exact], want.coeffs[exact])
    assert np.abs(got.coeffs[~exact] - want.coeffs[~exact]).max() > 0.0


def test_a_jet_exact_in_x_to_its_valid_behaves_as_before():
    # with xvalid == valid an x- and a y-derivative lower the same count, and
    # every coefficient up to valid can be read
    rng = np.random.default_rng(7)
    r = jets.ring(4, 5)
    a, b = _random_jet(r, rng), _random_jet(r, rng, scale=0.1)
    for jet in (a, a * b, a.grad(0), a.grad(3), jets.exp(b), jets.lift(_random_jet(
            jets.ring(2, 4), rng), r, 4), a.truncate(3), jets.stack([a, b.grad(1)])):
        assert jet.xvalid == jet.valid
        assert _counts(jet.grad(0)) == _counts(jet.grad(3)) == (jet.valid - 1, jet.valid - 1)
        top = jet
        for _ in range(jet.valid):
            top = top.grad(0)
        assert np.shape(top.value()) == jet.batch_shape
        assert jet.gradient().shape == jet.batch_shape + (4,)


# -- rings with an x-degree cap ---------------------------------------------------------

CAPPED = [(4, 4, 2), (4, 5, 1), (6, 7, 3), (6, 5, 2)]


def _kept_rows(capped):
    """The full ring's rows of the capped ring's monomials, in the capped ring's order."""
    full = jets.ring(capped.nvars, capped.degree)
    xdeg = full.exponents[:, : full.nvars // 2].sum(axis=1)
    rows = np.flatnonzero(xdeg <= capped.xcap)
    assert np.array_equal(full.exponents[rows], capped.exponents)
    return full, rows


def _jet_pair(capped, rng, batch, valid=None, nzdeg=None, positive=False):
    """One random jet of the full ring and its projection onto the capped ring."""
    full, rows = _kept_rows(capped)
    valid = int(rng.integers(1, full.degree + 1)) if valid is None else valid
    nzdeg = int(rng.integers(1, valid + 1)) if nzdeg is None else nzdeg
    coeffs = rng.normal(size=batch + (int(full.size_upto[valid]),))
    coeffs[..., int(full.size_upto[nzdeg]):] = 0.0
    if positive:
        coeffs[..., 0] = rng.uniform(1.0, 2.0, size=batch)
    width = int(capped.size_upto[valid])
    return jets.Jet(full, coeffs, nzdeg), jets.Jet(capped, coeffs[..., rows[:width]], nzdeg)


def _assert_kept_equal(got, want):
    """Every coefficient of ``got`` its counts call exact has the bits of ``want``'s."""
    _, rows = _kept_rows(got.ring)
    width = got.coeffs.shape[-1]
    assert got.valid == want.valid and got.nzdeg <= want.nzdeg
    assert not got.coeffs[..., got.ring.total_degree[:width] > got.nzdeg].any()
    # an x-derivative of a coefficient at the cap reads no row, so it can cost one more
    assert 0 <= min(want.xvalid, got.ring.xcap) - got.xvalid <= 1
    exact = got.ring.exponents[:width, : got.ring.nvars // 2].sum(axis=1) <= got.xvalid
    assert exact.any()
    assert got.coeffs[..., exact].tobytes() == want.coeffs[..., rows[:width][exact]].tobytes()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(CAPPED), st.sampled_from([(), (2,), (3, 1)]), st.integers(0, 2**32 - 1))
def test_capped_ring_keeps_the_full_rings_bits(shape, batch, seed):
    # every kept output reads the full ring's pairs in the same order, and a
    # derivative reads no coefficient above the cap that its counts call exact
    capped = jets.ring(*shape)
    rng = np.random.default_rng(seed)
    (fa, ca), (fb, cb) = _jet_pair(capped, rng, batch), _jet_pair(capped, rng, batch[:1])
    _assert_kept_equal(ca * cb, fa * fb)
    _assert_kept_equal(cb - ca, fb - fa)
    slots = rng.choice(capped.nvars, size=2, replace=False)
    _assert_kept_equal(ca.grad(slots), fa.grad(slots))
    (fp, cp) = _jet_pair(capped, rng, batch, positive=True)
    for fn in (lambda j: jets.powr(j, -1.5), jets.log, jets.exp):
        _assert_kept_equal(fn(cp), fn(fp))
    n = 3
    fm, cm = _jet_pair(capped, rng, (n, n), valid=capped.degree)
    eye = 4.0 * np.eye(n)[..., None] * (np.arange(fm.coeffs.shape[-1]) == 0)
    fm = jets.Jet(fm.ring, fm.coeffs + eye, fm.nzdeg)
    cm = jets.Jet(cm.ring, cm.coeffs + eye[..., : cm.coeffs.shape[-1]], cm.nzdeg)
    fr, cr = _jet_pair(capped, rng, (n,))
    _assert_kept_equal(jets.solve(cm, cr), jets.solve(fm, fr))
    x = _random_jet(jets.ring(capped.nvars // 2, capped.degree), rng)
    _assert_kept_equal(jets.lift(x, capped, capped.degree), jets.lift(x, fa.ring, capped.degree))


def test_capped_ring_tables_equal_the_reference_construction():
    for shape in CAPPED + [(8, 7, 4)]:
        r = jets.ring(*shape)
        for name, want in reference_ring_tables(*shape).items():
            got = getattr(r, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (shape, name)
            assert np.array_equal(got, want), (shape, name)


def test_the_cap_bounds_the_exact_x_orders_and_a_reader_past_it_raises():
    r = jets.ring(6, 7, 3)
    assert (r.size, len(r._mul_i)) == (1716 - 658, 50388 - 21666)
    assert jets.ring(6, 7, 7) is jets.ring(6, 7, None) is jets.ring(6, 7)
    x = r.seed(0, 0.3)
    assert (x.valid, x.xvalid) == (7, 3)
    assert (x.grad(3).valid, x.grad(3).xvalid) == (6, 3)
    third = x.grad(0).grad(1).grad(2)
    assert (third.valid, third.xvalid) == (4, 0)
    with pytest.raises(DegreeBudgetError, match="x-derivative would exceed the exact x-orders"):
        third.grad(0)
    with pytest.raises(ValueError, match="x-degree cap"):
        jets.PolyRing(5, 7, 3)


def test_an_x_jet_is_lifted_on_contact_and_other_rings_raise():
    rng = np.random.default_rng(11)
    for big in (jets.ring(6, 7), jets.ring(6, 7, 3)):
        small = big.xring
        assert (small.nvars, small.degree) == (3, big.xcap)
        a, g = _random_jet(small, rng), _random_jet(big, rng)
        lifted = jets.lift(a, big, big.degree)
        for got, want in ((a * g, lifted * g), (g * a, g * lifted), (a + g, lifted + g),
                          (g - a, g - lifted), (a - g, lifted - g), (g / (2.0 + a * a),
                                                                     g / (2.0 + lifted * lifted))):
            assert got.ring is big
            assert (got.valid, got.xvalid, got.nzdeg) == (want.valid, want.xvalid, want.nzdeg)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
    for u, v in ((jets.ring(3, 3), jets.ring(6, 7)), (jets.ring(3, 7), jets.ring(6, 7, 3)),
                 (jets.ring(2, 3), jets.ring(6, 7)), (jets.ring(6, 7), jets.ring(6, 7, 3))):
        with pytest.raises(ValueError, match="jets belong to different rings"):
            u.seed(0, 0.1) * v.seed(0, 0.2)
        with pytest.raises(ValueError, match="jets belong to different rings"):
            v.seed(0, 0.2) + u.seed(0, 0.1)


# -- products with seeds ------------------------------------------------------------------


def _batch_jet(r, rng, batch):
    return jets.Jet(r, rng.normal(size=batch + (r.size,)), nzdeg=r.degree)


def _seed_cases(r, rng):
    """(operand, stack of seeds) pairs: single, stacked and batched, with table-sized work."""
    n = r.nvars // 2
    ys = jets.stack([r.seed(n + i, rng.uniform(0.5, 2.0)) for i in range(n)])
    xs = jets.stack([r.seed(i, rng.uniform(-0.5, 0.5)) for i in range(n)])
    mixed = jets.stack([r.seed(0, 0.3), r.seed(n + 1, -0.7), 0.4 * r.seed(n, 1.2), r.const(0.9)])
    tensor = _batch_jet(r, rng, (1, n))
    return [
        (_random_jet(r, rng), r.seed(n, -1.3)),
        (_random_jet(r, rng), r.seed(0, 0.4) * -2.5),
        (_batch_jet(r, rng, (n,)), ys),
        (_batch_jet(r, rng, (n,)), xs),
        (tensor, ys[:, None]),
        (ys[:, None], tensor),
        (_batch_jet(r, rng, (4,)), mixed),
        (_batch_jet(r, rng, (2, n)), r.seed(n + 1, np.array([0.5, -1.5]))[:, None]),
    ]


@pytest.mark.parametrize("shape", [(4, 5), (6, 7), (6, 7, 3)])
def test_seed_shift_equals_the_pair_table(shape, monkeypatch):
    # each output of a product with a stack of seeds sums s0 a_k and c a_{k - e_v}:
    # the two terms of its segment that do not multiply an exact zero
    r = jets.ring(*shape)
    rng = np.random.default_rng(sum(shape))
    for a, s in _seed_cases(r, rng):
        seed, other = (s, a) if s.nzdeg == 1 else (a, s)
        out_deg = min(a.nzdeg + s.nzdeg, a.valid, s.valid)
        got = r._shift_coeffs(other.coeffs, seed.coeffs, out_deg)
        want = r._mul_coeffs(a.coeffs, s.coeffs, out_deg)
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert np.array_equal(got, want)
    # and Jet.__mul__ takes the shift, or the table, as the call's size says
    shifts = []
    shift = jets.PolyRing._shift_coeffs
    monkeypatch.setattr(jets.PolyRing, "_shift_coeffs",
                        lambda self, *args: shifts.append(1) or shift(self, *args))
    for limit in (0, 10**12):
        monkeypatch.setattr(jets, "_SHIFT_PAIRS", limit)
        before = len(shifts)
        for a, s in _seed_cases(r, np.random.default_rng(sum(shape))):
            table = r._mul_coeffs(a.coeffs, s.coeffs, min(a.nzdeg + s.nzdeg, a.valid, s.valid))
            assert np.array_equal((a * s).coeffs[..., : table.shape[-1]], table)
        assert (len(shifts) > before) == (limit == 0)
    # a jet of nzdeg 1 with two first-order terms in one row is no stack of seeds
    two = r.seed(0, 0.1) + r.seed(1, 0.2)
    assert jets._seed_moves(two) == math.inf
