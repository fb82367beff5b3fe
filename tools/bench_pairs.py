"""Paired benchmark runs of two source trees, in alternating order.

Usage, from anywhere:

    python tools/bench_pairs.py OLD_ROOT NEW_ROOT --workload W --pairs N
                                [--seconds S] [--seed K]

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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("old", "new")


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
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
