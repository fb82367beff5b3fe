"""Paired benchmark runs of two source trees, in alternating order.

Usage, from anywhere:

    python tools/bench_pairs.py OLD_ROOT NEW_ROOT --workload W --pairs N
                                [--seconds S] [--seed K]
    python tools/bench_pairs.py OLD_ROOT NEW_ROOT --workload W --points N [--seed K]

``OLD_ROOT`` and ``NEW_ROOT`` are the roots of two checkouts.  Each pair
runs ``perfbench/run.py --workload W --seed K --seconds S --trace 0`` of
each tree in its own process, from that tree's root, in the order
old, new / new, old / old, new / ... (ABBA), so that a drift of host speed
does not favour one side.  The metrics compared are the end-to-end metrics
of ``NEW_ROOT/BENCHMARK.json``; one line per metric reports:

- the old and new medians over the pairs and the relative change;
- ``iqr``: the old runs' quartile spread (third minus first quartile);
- ``wins``: the pairs in which the new tree did better;
- ``gap>iqr``: whether the medians differ, in the better direction, by
  more than that spread;
- ``bound``: whether the new median is worse than the old by at most the
  metric's bound, as a fraction of the old median.

Every run and these summaries are written to ``BENCH_<W>.json`` in the
current directory.  The exit status is 1 when any run fails or reports an
incorrect operation, and 0 otherwise.

``--points N`` times single points instead of whole runs, since a host
whose speed drifts within a minute can move a whole-run median by more
than a change does.  Two warmed worker processes, one per tree, set up
with that tree's own ``perfbench/run.py`` (``setup``, then one warm-up
point), answer the same N point seeds of ``--seed K``, each point twice
per tree, in the order old, new, new, old for even points and new, old,
old, new for odd ones.  A point's ratio is its new time over its old
time, each summed over its two answers.  The mode prints the median of
the N ratios and its 95% bootstrap interval (percentiles of the medians of
``BOOTSTRAP`` resamples of the points, with a fixed seed); a tree run
against itself should give an interval that contains 1.  The exit status
is 1 when any point fails its workload's check in either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("old", "new")
BOOTSTRAP = 2000


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of the tree at ``root``: its JSON result, or the failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if proc.returncode:
        result["correct"] = False
    return {"exit": proc.returncode, **result}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(spec: dict, old: list[float], new: list[float]) -> dict:
    """Medians, old quartile spread, wins and the bound test of one metric."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    old_med, new_med = statistics.median(old), statistics.median(new)
    q1, q3 = quartiles(old)
    gain = sign * (new_med - old_med)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "old": old,
        "new": new,
        "old_median": old_med,
        "new_median": new_med,
        "change": (new_med - old_med) / old_med if old_med else 0.0,
        "old_iqr": q3 - q1,
        "wins": sum(sign * (b - a) > 0.0 for a, b in zip(old, new)),
        "gap_exceeds_iqr": gain > q3 - q1,
        "within_bound": -gain <= spec["bound"] * abs(old_med),
    }


def line(name: str, s: dict, pairs: int) -> str:
    return (f"{name:14s} old {s['old_median']:10.4g}  new {s['new_median']:10.4g} "
            f"{s['unit']:9s} ({s['change']:+7.1%})  iqr {s['old_iqr']:9.3g}  "
            f"wins {s['wins']}/{pairs}  gap>iqr {'yes' if s['gap_exceeds_iqr'] else 'no'}  "
            f"bound {'ok' if s['within_bound'] else 'EXCEEDED'}")


def worker(root: Path, workload: str, seed: int):
    """Answer point indices read from stdin with one JSON line each: seconds and error."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "perfbench"))
    import run

    run.check_source()
    wl = run.WORKLOADS[workload]
    inputs = run.setup(wl, seed)[0]
    run.run_op(wl, inputs, run.WARM_UP)
    print("ready", flush=True)
    for line in sys.stdin:
        result = run.run_op(wl, inputs, int(line))
        print(json.dumps({"seconds": result.seconds, "error": result.error}), flush=True)


def bootstrap_median(values: list[float], resamples: int = BOOTSTRAP) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of the medians of resamples of ``values``."""
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(values, k=len(values)))
                     for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


def interleave(roots: dict[str, Path], workload: str, seed: int, points: int) -> dict:
    """Per-point times of both trees' warmed workers, ABBA within each point."""
    procs = {side: subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(roots[side]),
         "--workload", workload, "--seed", str(seed)],
        cwd=roots[side], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for side in SIDES}
    try:
        for side, proc in procs.items():
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"the {side} worker under {roots[side]} did not start")
        times = {side: [0.0] * points for side in SIDES}
        errors = []
        for i in range(points):
            order = (*SIDES, *SIDES[::-1]) if i % 2 == 0 else (*SIDES[::-1], *SIDES)
            for side in order:
                procs[side].stdin.write(f"{i}\n")
                procs[side].stdin.flush()
                answer = json.loads(procs[side].stdout.readline())
                times[side][i] += answer["seconds"]
                if answer["error"]:
                    errors.append(f"{side} point {i}: {answer['error']}")
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    ratios = [new / old for old, new in zip(times["old"], times["new"])]
    low, high = bootstrap_median(ratios)
    return {"points": points, "old_ms": [500.0 * t for t in times["old"]],
            "new_ms": [500.0 * t for t in times["new"]], "ratios": ratios,
            "ratio_median": statistics.median(ratios), "ratio_low": low, "ratio_high": high,
            "errors": errors}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path, nargs="?")
    parser.add_argument("new_root", type=Path, nargs="?")
    parser.add_argument("--workload", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--pairs", type=int)
    mode.add_argument("--points", type=int)
    mode.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload, args.seed)
        return 0
    if args.old_root is None or args.new_root is None:
        parser.error("OLD_ROOT and NEW_ROOT are required")
    roots = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
    if args.points is not None:
        if args.points < 2:
            parser.error("--points must be at least 2")
        result = interleave(roots, args.workload, args.seed, args.points)
        print(f"{args.workload}: {args.points} points, each twice per tree (ABBA)")
        for side in SIDES:
            print(f"{side}: median {statistics.median(result[side + '_ms']):.3f} ms per point")
        print(f"ratio new/old: median {result['ratio_median']:.4f}  95% interval "
              f"[{result['ratio_low']:.4f}, {result['ratio_high']:.4f}] "
              f"(bootstrap, {BOOTSTRAP} resamples)")
        for error in result["errors"]:
            print(f"FAILED {error}")
        return 1 if result["errors"] else 0
    if args.pairs is None or args.pairs < 1:
        parser.error("--pairs must be at least 1")
    specs = json.loads((roots["new"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(roots[side], args.workload, args.seed, args.seconds)
            runs.append({"pair": pair, "side": side, **result})
            print(f"pair {pair} {side}: exit {result['exit']} correct {result['correct']}",
                  file=sys.stderr, flush=True)

    values = {side: {spec["name"]: [] for spec in specs} for side in SIDES}
    ok = True
    for r in runs:
        ok &= r["exit"] == 0 and r["correct"]
        for spec in specs:
            metric = r["metrics"].get(spec["name"])
            values[r["side"]][spec["name"]].append(
                float("nan") if metric is None else float(metric["value"]))
    summary = {spec["name"]: summarize(spec, values["old"][spec["name"]],
                                       values["new"][spec["name"]]) for spec in specs}
    for name, s in summary.items():
        print(line(name, s, args.pairs))
    out = Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "order": "ABBA", "correct": ok,
        "metrics": summary, "runs": runs,
    }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
