"""End-to-end and per-layer benchmark of the spraylab CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-funk4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One operation is one tangent point pushed through the workload's whole
command, ``spraylab.cli.main([... "--points", "1", "--seed", <point seed>])``.
Point seeds come from ``--seed``; set-up samples every point with
``catalog.sample`` so each report can be checked against its input.

``--trace 0`` times operations for ``--seconds`` and at least ``MIN_OPS``
operations, after one untimed warm-up point, and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of points, each once untraced
and once traced (alternating which goes first), and reports the per-layer
metrics; its spans are written under ``.perfbench/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Failed operations are logged with their
exception class on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import COUNTERS, POINT_LAYERS, SETUP, SETUP_LAYERS, WARM_UP, Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_OPS = 100          # p90 then has ten samples beyond it
MAX_SECONDS = 90.0     # stop short of MIN_OPS rather than time longer than this
SETUP_PROBES = 6       # fresh interpreters per run, besides this process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass
class Inputs:
    cli: object
    seeds: list[int]     # seeds[0] is the warm-up point
    points: list[tuple]  # (x, y) per seed, as catalog.sample gives them

    def op(self, i: int) -> tuple[int, tuple]:
        """Seed and point of timed operation ``i`` (``WARM_UP`` for the warm-up)."""
        j = 0 if i == WARM_UP else 1 + i % (len(self.seeds) - 1)
        return self.seeds[j], self.points[j]


@dataclass
class Result:
    seconds: float
    text: str
    error: str | None    # None when the operation is correct


def check_source():
    if not (SRC / "spraylab" / "__init__.py").is_file():
        sys.exit(f"error: no spraylab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(wl: Workload, seed: int, tracer_spans: bool | None = None):
    """Import spraylab, draw and sample the points, and build the rings.

    Returns the inputs, the tracer (when ``tracer_spans`` is not None) and
    the seconds taken from before the import.
    """
    start = perf_counter()
    from spraylab import catalog, cli, jets
    from spraylab.catalog import MetricSpec

    tracer = Tracer(spans=tracer_spans) if tracer_spans is not None else None
    with tracer.active(SETUP) if tracer else contextlib.nullcontext():
        rng = random.Random(seed)
        seeds = [rng.randrange(2**31) for _ in range(wl.pool + 1)]
        metric = catalog.build(MetricSpec(wl.family, wl.dim))
        points = []
        for s in seeds:
            p = catalog.sample(metric, count=1, seed=s)[0]
            points.append((tuple(p.x), tuple(p.y)))
        for nvars, degree in wl.rings:
            jets.ring(nvars, degree)
    return Inputs(cli, seeds, points), tracer, perf_counter() - start


def run_op(wl: Workload, inputs: Inputs, i: int, main=None) -> Result:
    """Run operation ``i`` through ``main`` (default ``spraylab.cli.main``) and check it."""
    main = main or inputs.cli.main
    seed, (x, y) = inputs.op(i)
    argv = list(wl.argv) + ["--points", "1", "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # any exception is a failed operation
        return Result(perf_counter() - start, "", f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    text = out.getvalue()
    if code != 0:
        return Result(seconds, text, f"exit {code}: {err.getvalue().strip()[:200]}")
    try:
        error = wl.check(text, x, y, seed)
    except (ValueError, KeyError, TypeError) as exc:
        error = f"unreadable report: {type(exc).__name__}: {exc}"
    return Result(seconds, text, error)


def log_failure(i: int, inputs: Inputs, error: str):
    seed, _ = inputs.op(i)
    print(f"operation {i} (point seed {seed}) failed: {error}", file=sys.stderr)


def setup_probe(wl: Workload, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def measure(wl: Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics, untraced."""
    inputs, _, own_setup = setup(wl, seed)
    setups = [own_setup]
    run_op(wl, inputs, WARM_UP)

    times, failed = [], 0
    start = perf_counter()
    while len(times) < MIN_OPS or perf_counter() - start < seconds:
        elapsed = perf_counter() - start
        if elapsed > MAX_SECONDS:
            print(f"stopped after {len(times)} operations at {MAX_SECONDS} s",
                  file=sys.stderr)
            break
        # host speed drifts over tens of seconds, so set-up samples are
        # spread over the run rather than taken back to back
        if len(setups) <= SETUP_PROBES and elapsed >= (len(setups) - 1) * seconds / SETUP_PROBES:
            setups.append(setup_probe(wl, seed))
            continue
        result = run_op(wl, inputs, len(times))
        if result.error:
            failed += 1
            log_failure(len(times), inputs, result.error)
        times.append(result.seconds)

    n = len(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "points_per_s": (n / sum(times), "1/s"),
        "point_p50_ms": (1e3 * statistics.median(times), "ms"),
        "point_p90_ms": (1e3 * statistics.quantiles(times, n=10)[-1], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": ((n - failed) / n, "fraction"),
    }
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    return _report(wl, seed, n, failed, metrics, samples)


def trace(wl: Workload, seed: int, points: int, spans: bool = True) -> dict:
    """Per-layer metrics from ``points`` operations, each run untraced and traced."""
    inputs, tracer, _ = setup(wl, seed, tracer_spans=spans)
    root = tracer.timed("cli.main", inputs.cli.main)
    run_op(wl, inputs, WARM_UP)
    with tracer.active(WARM_UP):
        run_op(wl, inputs, WARM_UP, root)

    plain, traced, minflt, sys_s, failed = [], [], [], [], 0
    for i in range(points):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer.active(i):
                    result_t = run_op(wl, inputs, i, root)
                tracer.counts[i]["cli.report_bytes"] = len(result_t.text.encode())
                traced.append(result_t.seconds)
            else:
                before = resource.getrusage(resource.RUSAGE_SELF)
                result_u = run_op(wl, inputs, i)
                after = resource.getrusage(resource.RUSAGE_SELF)
                plain.append(result_u.seconds)
                minflt.append(after.ru_minflt - before.ru_minflt)
                sys_s.append(after.ru_stime - before.ru_stime)
        error = result_u.error or result_t.error
        if error is None and result_u.text != result_t.text:
            error = "report bytes differ with tracing on"
        if error:
            failed += 1
            log_failure(i, inputs, error)

    selfs = tracer.self_times()
    metrics = {}
    for key in COUNTERS:
        metrics[key] = (sum(tracer.counts[i][key] for i in range(points)) / points,
                        "bytes_computed" if key == "jets.mul_bytes"
                        else "bytes" if key == "cli.report_bytes" else "count")
    metrics["jets.peak_batch"] = (max(tracer.counts[i]["jets.peak_batch"]
                                      for i in range(points)), "count")
    for name, key in POINT_LAYERS.items():
        metrics[key] = (1e3 * sum(selfs[i, name] for i in range(points)) / points, "ms")
    for name, key in SETUP_LAYERS.items():
        metrics[key] = (1e3 * selfs[SETUP, name], "ms")
    metrics["trace.point_ms"] = (1e3 * sum(traced) / points, "ms")
    metrics["proc.minflt"] = (sum(minflt) / points, "count")
    metrics["proc.sys_ms"] = (1e3 * sum(sys_s) / points, "ms")
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0, "fraction")
    if tracer.missing:
        print("not traced (missing in this version): " + ", ".join(tracer.missing),
              file=sys.stderr)
    if spans:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}-seed{seed}.csv")
    return _report(wl, seed, points, failed, metrics, {})


def _report(wl, seed, attempted, failed, metrics, samples) -> dict:
    for key, (value, unit) in metrics.items():
        n = samples.get(key, attempted)
        print(f"{wl.name} seed {seed}  {key:24s} {value:14.6g} {unit:14s} n={n}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        correct = proc.returncode == 0 and json.loads(lines[-1])["correct"]
        code = code or int(not correct)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    check_source()
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        print(setup(wl, args.seed)[2])
        return 0
    if args.trace:
        result = trace(wl, args.seed, wl.trace_points)
    else:
        result = measure(wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
