"""The benchmark's workloads and the checks that decide whether an operation is correct.

One operation is one sampled tangent point pushed through the workload's
whole CLI command (``--points 1 --seed <point seed>``).  Each workload uses
a single volume kind, so the operations of a run cost about the same and a
median over them is meaningful.  ``theorem thm12`` mixes coordinate,
explicit and Busemann-Hausdorff volumes in one call and is therefore not a
workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# jet tier of the identity suite: residual <= TOL_JET * scale + FLOOR
TOL_JET = 1e-7
FLOOR = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    family: str
    dim: int
    # rings the command uses: the (x, y) ring at degree 7 and the x ring at
    # degree 5 that volume densities live in; built during set-up
    rings: tuple[tuple[int, int], ...]
    # point seeds drawn in set-up; a run cycles through them if it needs more
    pool: int
    # fixed point count of a traced run, so its counts repeat exactly
    trace_points: int
    check: Callable[[str, tuple, tuple, int], str | None]


def _walk_numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _walk_numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _walk_numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield float(value)
    elif isinstance(value, str) and value in ("nan", "inf", "-inf"):
        yield float(value)


def _flat(value) -> list[float]:
    return list(_walk_numbers(value))


def _disagreement(a, b) -> str | None:
    a, b = _flat(a), _flat(b)
    if len(a) != len(b) or not a:
        return f"shapes differ ({len(a)} vs {len(b)} entries)"
    residual = max(abs(u - v) for u, v in zip(a, b))
    scale = max(max(abs(u) for u in a), max(abs(v) for v in b))
    if not residual <= TOL_JET * scale + FLOOR:
        return f"residual {residual:.3e} at scale {scale:.3e}"
    return None


def check_verify(text: str, x: tuple, y: tuple, seed: int) -> str | None:
    """Every applicable check ran at exactly this point and passed."""
    records = [json.loads(line) for line in text.splitlines()]
    if not records or records[0].get("record") != "run" or records[0].get("seed") != seed:
        return "missing or wrong run record"
    checks = [r for r in records if r.get("record") == "check"]
    summary = records[-1]
    if summary.get("record") != "summary" or summary.get("checks") != len(checks):
        return "missing summary"
    # a check that does not apply to the metric reports zero points
    applied = [r for r in checks if r["points"] != 0]
    if not applied:
        return "no check applied"
    for rec in applied:
        if rec["points"] != 1 or tuple(rec["worst_x"]) != x or tuple(rec["worst_y"]) != y:
            return f"check {rec['check']} did not run at the sampled point"
        if rec["pass"] is not True:
            return f"check {rec['check']} failed"
    if summary.get("pass") is not True:
        return "summary reports a failure"
    return None


def check_eval(text: str, x: tuple, y: tuple, seed: int) -> str | None:
    """One finite record at this point whose W and W^o routes agree at the jet tier."""
    lines = text.splitlines()
    if len(lines) != 1:
        return f"expected one eval record, got {len(lines)}"
    rec = json.loads(lines[0])
    if tuple(rec["x"]) != x or tuple(rec["y"]) != y:
        return "record is not at the sampled point"
    if not all(math.isfinite(v) for v in _flat(rec)):
        return "record has non-finite values"
    problem = _disagreement(rec["W"]["viaHat"], rec["W"]["viaChi"])
    if problem:
        return f"W routes disagree: {problem}"
    routes = {k: v for k, v in rec["Wo"].items() if v is not None}
    first = next(iter(routes))
    for route, value in routes.items():
        problem = _disagreement(routes[first], value)
        if problem:
            return f"W^o routes {first} and {route} disagree: {problem}"
    return None


WORKLOADS = {
    wl.name: wl
    for wl in (
        # README headline command; BH quadrature (64 nodes, 4096 directions
        # per point at this commit) dominates, and jets run batch-wide
        Workload(
            name="verify-randers3-bh",
            argv=("verify", "--metric", "randers", "--dim", "3", "--volume", "bh"),
            family="randers", dim=3, rings=((6, 7), (3, 5)),
            pool=128, trace_points=24, check=check_verify,
        ),
        # the 43-check registry on scalar jets in ring(8, 7): the multiply
        # kernel is arithmetic-bound and there is no quadrature
        Workload(
            name="verify-funk4",
            argv=("verify", "--metric", "funk", "--dim", "4"),
            family="funk", dim=4, rings=((8, 7), (4, 5)),
            pool=128, trace_points=40, check=check_verify,
        ),
        # every W and W^o route plus report rendering on the small ring(6, 7),
        # where per-call overhead rather than arithmetic dominates
        Workload(
            name="eval-randers3",
            argv=("eval", "--metric", "randers", "--dim", "3"),
            family="randers", dim=3, rings=((6, 7), (3, 5)),
            pool=256, trace_points=300, check=check_eval,
        ),
    )
}
