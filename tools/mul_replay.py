"""Replay one point's jet multiplies under two source trees and compare them.

Usage, from anywhere:

    python tools/mul_replay.py OLD_ROOT NEW_ROOT --workload W [--seed K] [--repeats R]

``OLD_ROOT`` and ``NEW_ROOT`` are the roots of two checkouts.  The tool
times the multiply kernel ``PolyRing._mul_coeffs`` alone, which whole-point
runs cannot resolve on a host whose speed drifts by tens of percent:

1. In a process on ``OLD_ROOT/src`` it runs the command of workload ``W``
   (read from ``OLD_ROOT/perfbench/workloads.py``) at the first two point
   seeds that ``perfbench/run.py --seed K`` draws: the first warms the
   rings, and every ``_mul_coeffs`` call of the second is recorded with its
   operands (values, shapes and strides) and its call site.
2. It replays the recorded calls ``R`` times under each tree, each time in
   a fresh process on that tree's ``src``, in the order old, new / new,
   old / ... (ABBA).  A replay runs every call once untimed, then once
   timed.
3. It prints each tree's median and range of the summed call times, the
   ten costliest call sites, and whether every output of the new tree
   equals the old tree's in value, shape, dtype and strides.

The exit status is 1 when any output differs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import pickle
import random
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

SIDES = ("old", "new")


def _import_spraylab(root: Path):
    sys.path.insert(0, str(root / "src"))
    from spraylab import cli, jets
    if not Path(jets.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"error: spraylab was imported from {jets.__file__}, not {root / 'src'}")
    return cli, jets


def _workload_argv(root: Path, workload: str, seed: int) -> tuple[list[str], list[str]]:
    """The warm-up and recorded argv of ``workload``, as perfbench seeds them."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    wl = module.WORKLOADS[workload]
    rng = random.Random(seed)
    warm, point = ([*wl.argv, "--points", "1", "--seed", str(rng.randrange(2**31))]
                   for _ in range(2))
    return warm, point


def _freeze(a):
    """An operand as (shape, strides, the memory its strides span)."""
    a = np.asarray(a)
    low, high = np.lib.array_utils.byte_bounds(a)
    span = np.lib.stride_tricks.as_strided(a, shape=((high - low) // a.itemsize,),
                                           strides=(a.itemsize,))
    return a.shape, a.strides, span.copy()


def _thaw(frozen):
    shape, strides, span = frozen
    return np.lib.stride_tricks.as_strided(span, shape=shape, strides=strides)


def _call_site(frame) -> str:
    """The first caller outside jets.py, and the jets function it went through."""
    via = frame.f_code.co_name
    while frame is not None and Path(frame.f_code.co_filename).name == "jets.py":
        via = frame.f_code.co_name
        frame = frame.f_back
    if frame is None:
        return f"jets.{via}"
    return f"{Path(frame.f_code.co_filename).name}:{frame.f_lineno} {frame.f_code.co_name} via {via}"


def record(root: Path, workload: str, seed: int, out: Path):
    cli, jets = _import_spraylab(root)
    warm, point = _workload_argv(root, workload, seed)
    calls = []
    kernel = jets.PolyRing._mul_coeffs

    def recording(ring, a, b, out_deg, lo_deg=0):
        calls.append({"ring": (ring.nvars, ring.degree), "a": _freeze(a), "b": _freeze(b),
                      "out_deg": out_deg, "lo_deg": lo_deg,
                      "site": _call_site(sys._getframe(1))})
        return kernel(ring, a, b, out_deg, lo_deg)

    for argv, patched in ((warm, False), (point, True)):
        if patched:
            jets.PolyRing._mul_coeffs = recording
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"error: {' '.join(argv)} exited {code} under {root}")
    out.write_bytes(pickle.dumps(calls))


def replay(root: Path, data: Path, out: Path):
    _, jets = _import_spraylab(root)
    calls = pickle.loads(data.read_bytes())
    args = [(jets.ring(*c["ring"]), _thaw(c["a"]), _thaw(c["b"]), c["out_deg"], c["lo_deg"])
            for c in calls]
    outputs = [ring._mul_coeffs(a, b, hi, lo) for ring, a, b, hi, lo in args]
    seconds = []
    for ring, a, b, hi, lo in args:
        start = perf_counter()
        ring._mul_coeffs(a, b, hi, lo)
        seconds.append(perf_counter() - start)
    out.write_bytes(pickle.dumps({
        "seconds": seconds,
        # (value, layout) of each output
        "outputs": [((o.shape, o.dtype.str, o.tobytes()), o.strides) for o in outputs],
    }))


def _child(mode: str, root: Path, *paths: Path, extra=()):
    subprocess.run([sys.executable, str(Path(__file__).resolve()), f"--{mode}", str(root),
                    *map(str, paths), *extra], cwd=root, check=True)


def compare(calls: list[dict], runs: dict[str, list[dict]], repeats: int) -> bool:
    """Print the summary of the replays; True when every output agrees."""
    totals = {side: [1e3 * sum(r["seconds"]) for r in runs[side]] for side in SIDES}
    print(f"{len(calls)} calls, {repeats} replays per tree (ABBA)")
    for side in SIDES:
        t = totals[side]
        print(f"{side}: median {statistics.median(t):.2f} ms  range {min(t):.2f}-{max(t):.2f} ms")

    sites = defaultdict(lambda: {"calls": 0, "old": [0.0] * repeats, "new": [0.0] * repeats})
    for i, call in enumerate(calls):
        site = sites[call["site"]]
        site["calls"] += 1
        for side in SIDES:
            for k, r in enumerate(runs[side]):
                site[side][k] += 1e3 * r["seconds"][i]
    costly = sorted(sites.items(), key=lambda kv: -statistics.median(kv[1]["old"]))[:10]
    print("costliest call sites (median ms, old -> new):")
    for name, site in costly:
        print(f"  {statistics.median(site['old']):8.3f} -> {statistics.median(site['new']):8.3f}"
              f"  x{site['calls']:<4d} {name}")

    old, new = runs["old"][0]["outputs"], runs["new"][0]["outputs"]
    values = [i for i, (u, v) in enumerate(zip(old, new)) if u[0] != v[0]]
    layout = [i for i, (u, v) in enumerate(zip(old, new)) if u[1] != v[1]]
    differ = sorted(set(values) | set(layout))
    for i in differ[:10]:
        print(f"  DIFFER call {i} ({calls[i]['site']}): values "
              f"{'DIFFER' if i in values else 'same'}, shape {old[i][0][0]} -> {new[i][0][0]}, "
              f"strides {old[i][1]} -> {new[i][1]}")
    print(f"outputs: values differ in {len(values)} calls, layout in {len(layout)}")
    return not differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path, nargs="?")
    parser.add_argument("new_root", type=Path, nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--record", nargs=2, type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--replay", nargs=3, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        record(args.record[0], args.workload, args.seed, args.record[1])
        return 0
    if args.replay:
        replay(*args.replay)
        return 0
    if args.old_root is None or args.new_root is None or args.workload is None:
        parser.error("OLD_ROOT, NEW_ROOT and --workload are required")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    roots = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}

    with tempfile.TemporaryDirectory(prefix="mul_replay-") as tmp:
        tmp = Path(tmp)
        data = tmp / "calls.pkl"
        _child("record", roots["old"], data,
               extra=("--workload", args.workload, "--seed", str(args.seed)))
        runs = {side: [] for side in SIDES}
        for k in range(args.repeats):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                out = tmp / f"{side}-{k}.pkl"
                _child("replay", roots[side], data, out)
                runs[side].append(pickle.loads(out.read_bytes()))
        calls = pickle.loads(data.read_bytes())
    return 0 if compare(calls, runs, args.repeats) else 1


if __name__ == "__main__":
    raise SystemExit(main())
