"""Acceptance gate: the twelve headline guarantees, one pass/fail line each.

Every test computes its residuals at the advertised tolerance, prints a
single ``criterion NN: PASS|FAIL`` line (run with ``pytest -s`` to see the
lines for passing tests; failures show them in the captured output), then
asserts.  Tolerances are pinned to the published numbers, never loosened.
"""

import math

import numpy as np

from helpers import fd_oracle

from spraylab import cli, jets
from spraylab.catalog import MetricSpec, build, family_names, sample
from spraylab.expressions import as_field
from spraylab.geometry import MetricFrame, PerturbedSpray, TangentPoint
from spraylab.measures import VolumeForm, _bh_rule, bh_density
from spraylab.projective import PointContext, ProjectiveStack, einstein_wo, volume_change
from spraylab.verify import identity_suite, theorem_check


def report_line(number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def three_volumes():
    return (
        VolumeForm("coordinate"),
        VolumeForm("explicit", "exp(0.1*x2)"),
        VolumeForm("busemann-hausdorff"),
    )


# -- 1. finite-difference oracle agreement ------------------------------------------


def _fd_cases(metric):
    """(name, field, jet_value_fn) triples for G^i, N^i_j, R, S."""
    n = metric.dim

    def g_field(i):
        return lambda p: MetricFrame(metric, p, 3).stack.G[i].value()

    def n_field(i, j):
        return lambda p: float(MetricFrame(metric, p, 4).stack.N.value()[i][j])

    def r_field(p):
        return MetricFrame(metric, p, 6).stack.Rscalar.value()

    def s_field(p):
        return PointContext(metric, VolumeForm("coordinate"), p, 4).measure.S.value()

    cases = []
    for i in range(n):
        cases.append((f"G^{i}", g_field(i), lambda st, ms, k, i=i: st.G[i].grad(k).value()))
    cases.append(("N^0_1", n_field(0, 1), lambda st, ms, k: st.N[0][1].grad(k).value()))
    cases.append(("R", r_field, lambda st, ms, k: st.Rscalar.grad(k).value()))
    cases.append(("S", s_field, lambda st, ms, k: ms.S.grad(k).value()))
    return cases


def test_criterion_01_finite_difference_oracles():
    tol, floor = 1e-5, 1e-8
    worst, worst_label = 0.0, ""
    for name in ("euclidean", "funk", "randers", "conformal-flat-2d"):
        metric = build(name)
        n = metric.dim
        point = sample(metric, count=1, seed=3)[0]
        ctx = PointContext(metric, VolumeForm("coordinate"), point, degree=7)
        st, ms = ctx.stack, ctx.measure
        for label, field, jet_value in _fd_cases(metric):
            for slot in (0, 1, n, n + 1):
                alpha = [0] * (2 * n)
                alpha[slot] = 1
                want = jet_value(st, ms, slot)
                got = fd_oracle(field, point, alpha)
                ratio = abs(got - want) / (tol * abs(want) + floor)
                if ratio > worst:
                    worst, worst_label = ratio, f"{name}:{label}:slot{slot}"
        # one mixed second derivative of the spray coefficients
        alpha = [0] * (2 * n)
        alpha[0] = alpha[n] = 1
        want = st.G[0].grad(0).grad(n).value()
        got = fd_oracle(lambda p: MetricFrame(metric, p, 3).stack.G[0].value(), point, alpha)
        ratio = abs(got - want) / (tol * abs(want) + floor)
        if ratio > worst:
            worst, worst_label = ratio, f"{name}:G^0:mixed"
    ok = worst <= 1.0
    report_line(1, ok, f"jet vs central differences, worst ratio {worst:.3e} at {worst_label}")


# -- 2. four-route Berwald-Weyl agreement --------------------------------------------


def test_criterion_02_wo_route_agreement():
    metric = build("randers")
    worst = 0.0
    for point in sample(metric, count=4, seed=2):
        for volume in three_volumes():
            ps = PointContext(metric, volume, point).proj
            routes = np.array([ps.wo_values(r) for r in ("definition", "viaBase", "divW", "divR")])
            budget = 1e-6 * np.abs(routes).max() + 1e-9
            for i in range(len(routes)):
                for j in range(i + 1, len(routes)):
                    worst = max(worst, np.abs(routes[i] - routes[j]).max() / budget)
    ok = worst <= 1.0
    report_line(2, ok, f"wo routes pairwise, worst diff at {worst:.3e} of the 1e-6 budget")


# -- 3. scalar curvature implies vanishing W^o ----------------------------------------


def test_criterion_03_scalar_curvature_kills_wo():
    report = theorem_check("thm12")
    worst = 0.0
    for result in report.results:
        worst = max(worst, result.residual / (1e-6 * result.scale + 1e-9))
    kinds = {agg.check.split(":")[-1] for agg in report.checks}
    ok = worst <= 1.0 and len(kinds) == 3 and all(a.points == 20 for a in report.checks)
    report_line(3, ok, f"funk wo over {sorted(kinds)}, worst ratio {worst:.3e}")


# -- 4. flat-factor fourth root --------------------------------------------------------


def test_criterion_04_fourth_root_flatness():
    report = theorem_check("ex17")
    by = {}
    for result in report.results:
        by[result.check] = max(by.get(result.check, 0.0), result.residual)
    ok = (
        by["ex17:berwald-flat"] <= 1e-7
        and by["ex17:ricci-flat"] <= 1e-7
        and by["ex17:s-zero"] <= 1e-4
        and by["ex17:wo-zero"] <= 1e-4
    )
    detail = ", ".join(f"{k.split(':')[1]} {v:.2e}" for k, v in sorted(by.items()))
    report_line(4, ok, detail)


# -- 5. two-dimensional volume independence --------------------------------------------


def test_criterion_05_surface_volume_independence():
    metric = build("conformal-flat-2d")
    vol_a = VolumeForm("explicit", "exp(0.3*x1)")
    vol_b = VolumeForm("busemann-hausdorff")
    worst = 0.0
    for point in sample(metric, count=6, seed=1):
        wo_a = PointContext(metric, vol_a, point).proj.wo_values("definition")
        wo_b = PointContext(metric, vol_b, point).proj.wo_values("definition")
        worst = max(worst, np.abs(wo_a - wo_b).max())
    ok = worst <= 1e-8
    report_line(5, ok, f"wo across unrelated volumes, worst abs diff {worst:.3e}")


# -- 6. Einstein surfaces against a brute-force Gauss oracle ----------------------------


def _d1(f, t, h):
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)


def _d2(f, t, h):
    return (
        -f(t - 2 * h) + 16 * f(t - h) - 30 * f(t) + 16 * f(t + h) - f(t + 2 * h)
    ) / (12 * h * h)


def _fsq_value(metric, x, y):
    ring = jets.ring(2 * metric.dim, 1)
    xs = [ring.seed(i, float(v)) for i, v in enumerate(x)]
    ys = [ring.seed(metric.dim + i, float(v)) for i, v in enumerate(y)]
    return metric.fsq_at(xs)(ys).value()


def _gauss_oracle_prediction(metric, point, step=1.25e-2):
    """F^3 (theta/F)_{.k} built only from pointwise F^2 evaluations."""

    def lam(x):
        return 0.5 * math.log(_fsq_value(metric, x, (1.0, 0.0)))

    def gauss(x):
        trace = sum(
            _d2(lambda t, m=m: lam([t if i == m else x[i] for i in range(2)]), x[m], step)
            for m in range(2)
        )
        return -math.exp(-2.0 * lam(x)) * trace

    x, y = np.array(point.x), point.y_array()
    dK = np.array([
        _d1(lambda t, m=m: gauss([t if i == m else x[i] for i in range(2)]), x[m], step)
        for m in range(2)
    ])
    theta = dK @ y
    F = math.sqrt(_fsq_value(metric, x, y))
    dF = np.array([
        _d1(lambda t, k=k: math.sqrt(_fsq_value(metric, x, [t if i == k else y[i] for i in range(2)])), y[k], step)
        for k in range(2)
    ])
    return F * F * dK - F * theta * dF


def test_criterion_06_einstein_surface_formula():
    metric = build("conformal-flat-2d")
    worst = 0.0
    for point in sample(metric, count=2, seed=5):
        predicted = _gauss_oracle_prediction(metric, point)
        ctx = PointContext(metric, VolumeForm("busemann-hausdorff"), point)
        einstein_wo(ctx)  # the surface must pass the Einstein guards
        wo = ctx.proj.wo_values()
        scale = np.abs(predicted).max()
        assert scale > 1e-3
        worst = max(worst, np.abs(wo - predicted).max() / (1e-6 * scale + 1e-9))
    sphere_worst = 0.0
    sphere = build("round-sphere")
    for point in sample(sphere, count=2, seed=5):
        ctx = PointContext(sphere, VolumeForm("busemann-hausdorff"), point)
        einstein_wo(ctx)
        sphere_worst = max(sphere_worst, np.abs(ctx.proj.wo_values()).max())
    ok = worst <= 1.0 and sphere_worst <= 1e-8
    report_line(6, ok, f"wo vs Gauss oracle ratio {worst:.3e}, sphere |wo| {sphere_worst:.3e}")


# -- 7. identity suite on every catalog fixture -----------------------------------------


def test_criterion_07_identity_suite_all_fixtures():
    fixtures = []
    for name in family_names():
        if name == "riemannian":
            fixtures.append(MetricSpec(name, 2, params={
                "matrix": [["1 + 0.2*x1*x1", "0.1*x1*x2"], ["0.1*x1*x2", "1 + 0.1*x2*x2"]],
            }))
        elif name == "projective-perturbation":
            fixtures.append(MetricSpec(name, params={
                "base": "funk", "oneform": ["0.1*x1", "0.05*x2", "0.02*x3"],
            }))
        else:
            fixtures.append(MetricSpec(name))
    failures = []
    for spec in fixtures:
        report = identity_suite(spec, points=3, seed=0)
        if not report.passed:
            failures.append(f"{spec.family}:{[a.check.name for a in report.failures()]}")
    ok = not failures
    report_line(7, ok, f"{len(fixtures)} fixtures" + (f", failed {failures}" if failures else " all green"))


# -- 8. volume-change laws ----------------------------------------------------------------


def test_criterion_08_volume_change_laws():
    metric = build("randers")
    f = "0.1*x1*x2"
    base = VolumeForm("explicit", "exp(0.2*x3)")
    worst_s, worst_wo = 0.0, 0.0
    for point in sample(metric, count=5, seed=4):
        ms = PointContext(metric, base, point, degree=7).measure
        tilde = ms.rescaled(as_field(f, 3))
        fm = volume_change(f, point)
        worst_s = max(worst_s, abs(ms.S.value() - (tilde.S.value() - 4.0 * (fm @ point.y_array()))))
        ps = PointContext(metric, base, point).proj
        wo_tilde = ProjectiveStack(ps.measure.rescaled(f)).wo_values()
        predicted = ps.wo_values() - ps.hat.T.value().T @ volume_change(f, point)
        worst_wo = max(worst_wo, np.abs(wo_tilde - predicted).max())
    ok = worst_s <= 1e-10 and worst_wo <= 1e-6
    report_line(8, ok, f"S shift residual {worst_s:.3e}, wo transfer residual {worst_wo:.3e}")


# -- 9. projective invariance ----------------------------------------------------------------


def test_criterion_09_projective_invariance():
    volume = VolumeForm("explicit", "exp(0.1*x1)")
    worst = 0.0
    for name in ("funk", "randers", "square-metric"):
        metric = build(name)
        n = metric.dim
        forms = [as_field(e, n) for e in ("0.04*x1 + 0.01", "0.02*x2", "-0.03*x3")[:n]]
        perturbed = PerturbedSpray(metric, forms)
        for point in sample(metric, count=3, seed=5):
            ps = PointContext(metric, volume, point).proj
            qs = PointContext(perturbed, volume, point).proj
            w_a, w_b = ps.hat.T.value(), qs.hat.T.value()
            wo_a, wo_b = ps.wo_values("definition"), qs.wo_values("definition")
            w_budget = 1e-6 * max(np.abs(w_a).max(), np.abs(w_b).max()) + 1e-9
            wo_budget = 1e-6 * max(np.abs(wo_a).max(), np.abs(wo_b).max()) + 1e-9
            worst = max(
                worst,
                np.abs(w_a - w_b).max() / w_budget,
                np.abs(wo_a - wo_b).max() / wo_budget,
            )
    ok = worst <= 1.0
    report_line(9, ok, f"W and wo drift under (a_m y^m) y^i at {worst:.3e} of budget")


# -- 10. chi routes and volume independence ----------------------------------------------------


def test_criterion_10_chi_routes_and_volumes():
    metric = build("randers")
    worst = 0.0
    for point in sample(metric, count=4, seed=6):
        ctx = PointContext(metric, None, point, degree=7)
        per_volume = []
        for volume in three_volumes():
            ms = ctx.proj_for(volume).measure
            chis = np.array([ms.chi_from_S, ms.stack.chi_from_T, ms.stack.chi.value()])
            budget = 1e-7 * np.abs(chis).max() + 1e-9
            worst = max(worst, (chis.max(axis=0) - chis.min(axis=0)).max() / budget)
            per_volume.append(chis[0])
        stacked = np.array(per_volume)
        budget = 1e-7 * np.abs(stacked).max() + 1e-9
        worst = max(worst, (stacked.max(axis=0) - stacked.min(axis=0)).max() / budget)
    ok = worst <= 1.0
    report_line(10, ok, f"chi route/volume spread at {worst:.3e} of the 1e-7 budget")


# -- 11. Busemann-Hausdorff quadrature ----------------------------------------------------------


def test_criterion_11_bh_quadrature():
    metric = build("randers")
    worst_cf, worst_drift = 0.0, 0.0
    for x in ((0.1, -0.2, 0.15), (0.0, 0.3, -0.1)):
        a = np.array(metric.a(list(x)), dtype=float)
        b = np.array(metric.b(list(x)), dtype=float)
        bn2 = b @ np.linalg.solve(a, b)
        # ln sigma_BH = (n+1)/2 ln(1 - |b|_a^2) + ln sqrt(det a) for n = 3
        closed = 2.0 * math.log(1.0 - bn2) + 0.5 * math.log(np.linalg.det(a))
        adaptive = bh_density(metric, x, nodes=64, degree=1).value()
        # the drift compares the fixed rules: the adaptive density stops
        # at the same rule under either cap
        at64 = _bh_rule(metric, x, 64, 1).value()
        at128 = _bh_rule(metric, x, 128, 1).value()
        worst_cf = max(worst_cf, abs(adaptive - closed), abs(at64 - closed))
        worst_drift = max(worst_drift, abs(at128 - at64))
    ok = worst_cf <= 1e-6 and worst_drift <= 1e-8
    report_line(11, ok, f"closed form gap {worst_cf:.3e}, node-doubling drift {worst_drift:.3e}")


# -- 12. deterministic reports -------------------------------------------------------------------


def test_criterion_12_byte_identical_reports(capsys):
    argv = ["verify", "--metric", "randers", "--points", "3", "--seed", "11",
            "--volume", "bh"]
    code_a = cli.main(list(argv))
    out_a = capsys.readouterr().out
    code_b = cli.main(list(argv))
    out_b = capsys.readouterr().out
    ok = out_a == out_b and code_a == code_b == 0 and len(out_a) > 0
    report_line(12, ok, f"two identical runs, {len(out_a)} bytes each, equal={out_a == out_b}")
