"""Self-check of the benchmark: exact counters, and tracing that changes nothing.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json

import pytest

import run
from workloads import WORKLOADS

EXACT = ("jets.mul_calls", "jets.mul_terms", "jets.compose_calls", "measures.bh_dirs",
         "verify.checks_run")
POINTS = 2
BENCHMARK = run.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module", autouse=True)
def spraylab_on_path():
    run.check_source()


def counts(result):
    return {k: result["metrics"][k]["value"] for k in EXACT}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_and_do_not_depend_on_spans(name):
    wl = WORKLOADS[name]
    first = run.trace(wl, 7, POINTS)
    second = run.trace(wl, 7, POINTS)
    counters_only = run.trace(wl, 7, POINTS, spans=False)
    # each traced point's report was compared byte for byte with an untraced run
    assert first["correct"] and second["correct"] and counters_only["correct"]
    assert counts(first) == counts(second) == counts(counters_only)
    assert first["metrics"]["jets.mul_calls"]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_report_bytes_do_not_depend_on_tracing(name):
    wl = WORKLOADS[name]
    inputs, tracer, _ = run.setup(wl, 11, tracer_spans=True)
    root = tracer.timed("cli.main", inputs.cli.main)
    for i in range(POINTS):
        plain = run.run_op(wl, inputs, i)
        with tracer.active(i):
            traced = run.run_op(wl, inputs, i, root)
        assert plain.error is None and traced.error is None
        assert plain.text and plain.text == traced.text


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_add_up_to_the_point(name):
    metrics = run.trace(WORKLOADS[name], 3, POINTS)["metrics"]
    layers = sum(metrics[key]["value"] for key in run.POINT_LAYERS.values())
    assert layers == pytest.approx(metrics["trace.point_ms"]["value"], rel=0.02)


def test_quadrature_counters_are_zero_without_bh():
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    for name in ("verify-funk4", "eval-randers3"):
        metrics = run.trace(WORKLOADS[name], 5, 1)["metrics"]
        assert set(metrics) == declared
        assert all(metrics[k]["value"] == 0 for k in metrics if k.startswith("measures.bh"))
    bh = run.trace(WORKLOADS["verify-randers3-bh"], 5, 1)["metrics"]
    assert bh["measures.bh_calls"]["value"] == 1
    assert bh["measures.bh_dirs"]["value"] > 0
