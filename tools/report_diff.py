"""Compare the reports of the acceptance commands under two source trees.

Usage, from anywhere:

    python tools/report_diff.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories of two checkouts.  Each
command of ``COMMANDS`` runs as ``python -m spraylab ...`` once under each
tree, and one line per command reports:

- ``exit``: the two exit codes;
- ``stderr`` and ``bytes``: whether standard error and standard output are
  byte-identical;
- ``records``: whether both reports hold the same records (kind and check
  name) in the same order, followed by the records that only the old (-)
  or only the new (+) report holds; the others are matched by kind, check
  and rank among their namesakes, and compared;
- ``flags``: whether every ``pass`` flag of a matched record agrees;
- ``changed``: the fields (``kind.key``) whose values differ between
  matched records, and those that only the old (-) or new (+) record has;
- ``dfloat``: the largest change of any number in a matched record,
  relative to the largest magnitude in that record.  Numbers pair by key
  path, and an integer at a path where the other record holds a float (a
  residual printed as ``0``) is read as a float; integers at both ends are
  counts, and show only under ``changed``;
- ``dratio``: the largest growth of residual / limit, where the limit is
  ``tolerance * scale + floor``;
- ``moves``: the checks whose worst point moved, with their new ratio.  The
  residual and scale of such a record belong to another point, so they
  count as the move and not in ``changed``, ``dfloat`` or ``dratio``.

A ``--format csv`` report is read as records too: one per row, keyed by
its header.  A cell that parses as JSON becomes that value, any other
(``nan``, a check name) stays a string, as in JSON reports, and an empty
cell is left out.

The exit status is 1 when any command differs in exit code, stderr,
records or pass flags, and 0 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

_VERIFY = ("verify", "--points", "3", "--per-point")
_THEOREM = ("--points", "2", "--per-point")
_ONEFORM = ("--param", 'oneform=["0.1*x1","0","0.05*x2"]')
_S2XS2 = ('matrix=[["4/(1+x1^2+x2^2)^2","0","0","0"],["0","4/(1+x1^2+x2^2)^2","0","0"],'
          '["0","0","4/(1+x3^2+x4^2)^2","0"],["0","0","0","4/(1+x3^2+x4^2)^2"]]')

# (label, argv) of the report acceptance list
COMMANDS = [
    ("eval randers", ("eval", "--metric", "randers", "--points", "3")),
    ("eval randers bh", ("eval", "--metric", "randers", "--volume", "bh", "--points", "3")),
    ("eval randers csv", ("eval", "--metric", "randers", "--points", "3", "--format", "csv")),
    ("eval randers explicit", ("eval", "--metric", "randers", "--volume",
                               "explicit:exp(0.3*x1*x2)", "--points", "3")),
    ("eval funk4", ("eval", "--metric", "funk", "--dim", "4", "--points", "3")),
    ("eval square bh", ("eval", "--metric", "square-metric", "--volume", "bh",
                        "--points", "3")),
    ("verify randers", (*_VERIFY, "--metric", "randers")),
    ("verify randers bh", (*_VERIFY, "--metric", "randers", "--volume", "bh")),
    # csv has no rows for per-point records, so --per-point is refused with it
    ("verify randers csv", ("verify", "--points", "3", "--metric", "randers",
                            "--format", "csv")),
    ("verify randers explicit", (*_VERIFY, "--metric", "randers",
                                 "--volume", "explicit:exp(x1)")),
    # a surface, where weyl-divergence and flatness-equivalence do not apply
    ("verify conformal-flat-2d", (*_VERIFY, "--metric", "conformal-flat-2d")),
    ("verify funk4", (*_VERIFY, "--metric", "funk", "--dim", "4")),
    # multiplies of ring(10, 7) run in several blocks of the kernel's scratch
    ("verify funk5", ("verify", "--metric", "funk", "--dim", "5", "--points", "1")),
    ("verify funk3 bh", (*_VERIFY, "--metric", "funk", "--dim", "3", "--volume", "bh")),
    ("verify square bh", (*_VERIFY, "--metric", "square-metric", "--volume", "bh")),
    ("verify fourth-root bh", (*_VERIFY, "--metric", "fourth-root", "--volume", "bh")),
    ("verify round-sphere bh", (*_VERIFY, "--metric", "round-sphere", "--volume", "bh")),
    ("verify randers bh checks", (*_VERIFY, "--metric", "randers", "--volume", "bh",
                                  "--checks", "s-volume-change,projective-invariance")),
    ("verify funk3 bh checks", (*_VERIFY, "--metric", "funk", "--dim", "3", "--volume", "bh",
                                "--checks", "euler-spray,chi-y-kill")),
    # checks of the spray alone compute no density, so bh_nodes stays null
    ("verify funk3 bh spray-only", (*_VERIFY, "--metric", "funk", "--dim", "3", "--volume", "bh",
                                    "--checks", "chi-y-kill,ricci-divergence,weyl-divergence")),
    *[(f"theorem {name}", ("theorem", name, *_THEOREM))
      for name in ("thm12", "thm15", "cor14", "cor33", "ex17", "ex45", "prop32", "thm43")],
    ("theorem thm43 bh", ("theorem", "thm43", "--volume", "bh", *_THEOREM)),
    # a dim-4 Busemann-Hausdorff point at the default rule
    ("verify funk4 bh", ("verify", "--points", "1", "--per-point", "--metric", "funk", "--dim", "4",
                         "--volume", "bh")),
    # a spray that is not a metric's own goes through stack_for
    ("verify perturbed funk", (*_VERIFY, "--metric", "projective-perturbation",
                               "--param", "base=funk", *_ONEFORM)),
    ("eval perturbed randers bh", ("eval", "--points", "3", "--metric", "projective-perturbation",
                                   "--param", "base=randers", *_ONEFORM, "--volume", "bh")),
    # the retired --degree, and a parameter the family does not read, exit 2;
    # a number given for an expression is its constant
    ("verify funk4 --degree 7", ("verify", "--metric", "funk", "--dim", "4", "--points", "1",
                                 "--degree", "7")),
    ("eval funk unread param", ("eval", "--metric", "funk", "--points", "1",
                                "--param", "nonsense=1")),
    ("eval conformal number lam", ("eval", "--metric", "conformal-flat-2d", "--points", "1",
                                   "--param", "lam=3")),
    # families whose F^2 skips zero matrix entries and that no command above runs
    ("eval euclidean", ("eval", "--metric", "euclidean", "--points", "3")),
    ("verify riemannian3", (*_VERIFY, "--metric", "riemannian", "--dim", "3", "--param",
                            'matrix=[["exp(0.3*x1)","0.1*x2","0"],["0.1*x2","1","0"],'
                            '["0","0","1"]]')),
    ("verify randers constant bh", (*_VERIFY, "--metric", "randers", "--param", "preset=constant",
                                    "--volume", "bh")),
    # S^2 x S^2 as a dim-4 riemannian matrix: both points run the 64-node rule
    ("verify s2xs2 bh", ("verify", "--points", "2", "--seed", "1", "--per-point",
                         "--metric", "riemannian", "--dim", "4", "--param", _S2XS2,
                         "--volume", "bh")),
    # an expression matrix that is not positive definite at a sampled point exits 2
    ("verify riemannian indefinite", ("verify", "--metric", "riemannian", "--dim", "2", "--param",
                                      'matrix=[["1","0"],["0","x1"]]', "--points", "4")),
    # a volume form that is not positive at a sampled point exits 2
    ("verify funk explicit:x1", ("verify", "--metric", "funk", "--volume", "explicit:x1",
                                 "--points", "2")),
    # and so does one whose expression is undefined at a sampled point
    ("verify funk explicit:sqrt(x1)", ("verify", "--metric", "funk", "--volume",
                                       "explicit:sqrt(x1)", "--points", "2")),
    # a metric whose F^2 is not homogeneous fails its checks at the pinned thresholds,
    # and no flag moves them
    ("verify square literal", (*_VERIFY, "--metric", "square-metric",
                               "--param", "literal_inner=true")),
    ("verify randers tol-jet", ("verify", "--metric", "randers", "--tol-jet", "1e300",
                                "--points", "1")),
    # a Busemann-Hausdorff density unconverged at 64 nodes fails the checks that read it
    ("verify riemannian bh unconverged", ("verify", "--metric", "riemannian", "--dim", "3",
                                          "--param", 'matrix=[["1","0","0"],["0","1","0"],'
                                          '["0","0","100*(1+x1)"]]', "--volume", "bh",
                                          "--points", "3")),
    # an explicit sigma with no finite value at a sampled point exits 2
    ("eval funk explicit non-finite", ("eval", "--metric", "funk", "--points", "1", "--volume",
                                       "explicit:exp(exp(exp(exp(exp(x1+3)))))")),
    # an expression nested deeper than the parser's own limit exits 2
    ("eval funk deep explicit", ("eval", "--metric", "funk", "--points", "1", "--volume",
                                 "explicit:" + "+".join(["x1"] * 600))),
]


@dataclass
class Run:
    code: int
    out: str
    err: str


@dataclass
class Diff:
    label: str
    codes: tuple[int, int]
    same_err: bool
    same_bytes: bool
    same_records: bool
    same_flags: bool
    dropped: list[str] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    changed: set[str] = field(default_factory=set)
    dfloat: float = 0.0
    dratio: float = 0.0
    moves: list[tuple[str, float]] = field(default_factory=list)

    @property
    def agrees(self) -> bool:
        return (self.codes[0] == self.codes[1] and self.same_err and self.same_records
                and self.same_flags)

    def line(self) -> str:
        records = _word(self.same_records) + "".join(
            f" -{name}" for name in self.dropped) + "".join(f" +{name}" for name in self.added)
        changed = ", ".join(sorted(self.changed)) or "-"
        moves = ", ".join(f"{name} ({ratio:.1e})" for name, ratio in self.moves) or "-"
        return (f"{self.label}: exit {self.codes[0]}/{self.codes[1]}"
                f" stderr {_word(self.same_err)} bytes {_word(self.same_bytes)}"
                f" records {records} flags {_word(self.same_flags)} changed {changed}"
                f" dfloat {self.dfloat:.1e} dratio {self.dratio:+.1e} moves {moves}")


def _word(same: bool) -> str:
    return "same" if same else "DIFFER"


def run(src: str, argv) -> Run:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "spraylab", *argv], env=env,
                          capture_output=True, text=True, timeout=1800)
    return Run(proc.returncode, proc.stdout, proc.stderr)


def _number(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if value in ("inf", "-inf", "nan"):
        return float(value)
    return None


def _leaves(value, path=()):
    """(key path, leaf) of every leaf of a value, depth first."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, (*path, key))
    else:
        yield path, value


def _floats(a: dict, b: dict) -> list[tuple[float, float]] | None:
    """The numbers of two records paired by key path, leaving out counts (an
    integer at both ends); None when a path holds a number in one record only."""
    xs, ys = dict(_leaves(a)), dict(_leaves(b))
    pairs = []
    for path in xs.keys() | ys.keys():
        x, y = xs.get(path), ys.get(path)
        u, v = _number(x), _number(y)
        if (u is None and v is None) or type(x) is type(y) is int:
            continue
        if u is None or v is None:
            return None
        pairs.append((u, v))
    return pairs


def _change(u: float, v: float) -> float:
    if u == v or (math.isnan(u) and math.isnan(v)):
        return 0.0
    return abs(u - v) if math.isfinite(u) and math.isfinite(v) else math.inf


def _ratio(rec: dict, floor: float) -> float | None:
    residual, scale = _number(rec.get("residual")), _number(rec.get("scale"))
    if residual is None or scale is None or "tolerance" not in rec:
        return None
    limit = rec["tolerance"] * scale + rec.get("floor", floor)
    return residual / limit if limit else math.inf


def _cell(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _records(out: str) -> list[dict]:
    """The records of a csv report (its header starts ``record,``) or of JSON lines."""
    if out.startswith("record,"):
        return [{key: _cell(cell) for key, cell in row.items() if cell}
                for row in csv.DictReader(io.StringIO(out))]
    return [json.loads(line) for line in out.splitlines()]


def _keyed(records: list[dict]) -> dict:
    """Records by (kind, check, rank among the records of that kind and check)."""
    seen = Counter()
    keyed = {}
    for rec in records:
        name = (rec.get("record"), rec.get("check"))
        keyed[(*name, seen[name])] = rec
        seen[name] += 1
    return keyed


def _name(key) -> str:
    kind, check, _ = key
    return kind if check is None else f"{kind}:{check}"


def compare(label: str, old: Run, new: Run) -> Diff:
    a, b = _records(old.out), _records(new.out)
    ka, kb = _keyed(a), _keyed(b)
    common = [key for key in ka if key in kb]
    diff = Diff(label, (old.code, new.code), old.err == new.err, old.out == new.out,
                list(ka) == list(kb),
                all(ka[key].get("pass") == kb[key].get("pass") for key in common),
                dropped=[_name(key) for key in ka if key not in kb],
                added=[_name(key) for key in kb if key not in ka])
    floor = next((r["floor"] for r in a if r.get("record") == "run" and "floor" in r), 0.0)
    for key in common:
        ra, rb = ka[key], kb[key]
        moved = ("worst_x" in ra and (ra["worst_x"], ra.get("worst_y"))
                 != (rb.get("worst_x"), rb.get("worst_y")))
        if moved:
            diff.moves.append((ra["check"], _ratio(rb, floor)))
            drop = ("residual", "scale", "worst_x", "worst_y")
            ra, rb = ({k: v for k, v in r.items() if k not in drop} for r in (ra, rb))
        kind = key[0]
        diff.changed |= {f"-{kind}.{k}" for k in ra if k not in rb}
        diff.changed |= {f"+{kind}.{k}" for k in rb if k not in ra}
        diff.changed |= {f"{kind}.{k}" for k in ra if k in rb and ra[k] != rb[k]}
        ra, rb = ({k: v for k, v in r.items() if k in ra and k in rb} for r in (ra, rb))
        pairs = _floats(ra, rb)
        if pairs is None:
            diff.dfloat = math.inf
            continue
        magnitude = max((abs(x) for x, _ in pairs if math.isfinite(x)), default=0.0)
        for x, y in pairs:
            change = _change(x, y)
            if change:
                diff.dfloat = max(diff.dfloat, change / magnitude if magnitude else math.inf)
        old_ratio, new_ratio = _ratio(ra, floor), _ratio(rb, floor)
        if old_ratio is not None and new_ratio is not None and new_ratio != old_ratio:
            diff.dratio = max(diff.dratio, new_ratio - old_ratio)
    return diff


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_src, new_src = argv
    agree = True
    for label, command in COMMANDS:
        diff = compare(label, run(old_src, command), run(new_src, command))
        print(diff.line(), flush=True)
        agree &= diff.agrees
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
