"""tools/report_diff.py: the report comparison used to accept a change of numerics."""

import importlib.util
import json
import sys
from pathlib import Path

import spraylab

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(spraylab.__file__).parents[1])


def _tool():
    spec = importlib.util.spec_from_file_location("report_diff",
                                                  ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_a_tree_compared_with_itself_shows_no_change():
    tool = _tool()
    commands = [("verify", "--metric", "randers", "--points", "2", "--per-point",
                 "--checks", "euler-metric,s-volume-change", "--volume", "explicit:exp(x1)"),
                ("theorem", "ex45", "--points", "1", "--per-point")]
    for argv in commands:
        diff = tool.compare("self", tool.run(SRC, argv), tool.run(SRC, argv))
        assert diff.agrees and diff.same_bytes
        assert (diff.dfloat, diff.dratio, diff.moves) == (0.0, 0.0, [])
    assert diff.codes == (1, 1)  # ex45 fails its Ricci gate


def test_moves_float_changes_and_flags_are_reported():
    tool = _tool()
    run = {"record": "run", "floor": 1e-9}
    check = {"record": "check", "check": "c", "residual": 1e-10, "scale": 2.0,
             "tolerance": 1e-7, "floor": 1e-9, "pass": True, "worst_x": [0.1], "worst_y": [1.0]}
    result = {"record": "result", "check": "c", "x": [0.1], "residual": 1e-10, "scale": 2.0,
              "tolerance": 1e-7, "pass": True}

    def report(*records):
        return tool.Run(0, "".join(json.dumps(r) + "\n" for r in records), "")

    old = report(run, check, result)
    moved = dict(check, residual=3e-10, worst_x=[0.2])
    grown = dict(result, residual=1e-10 + 2.01e-8, scale=2.0 + 4e-16)
    diff = tool.compare("synthetic", old, report(run, moved, grown))
    assert diff.agrees and not diff.same_bytes
    assert [name for name, _ in diff.moves] == ["c"]
    assert abs(diff.dfloat - 2.01e-8 / 2.0) < 1e-15
    assert abs(diff.dratio - 2.01e-8 / (1e-7 * 2.0 + 1e-9)) < 1e-6
    failed = tool.compare("flag", old, report(run, check, dict(result, **{"pass": False})))
    assert not failed.agrees and not failed.same_flags


def test_dropped_records_and_fields_are_named_and_the_rest_compared():
    tool = _tool()
    run = {"record": "run", "volume": "bh", "floor": 1e-9}
    checks = [{"record": "check", "check": name, "points": points, "residual": 1e-10,
               "scale": 2.0, "tolerance": 1e-7, "floor": 1e-9, "pass": True,
               "worst_x": [0.1], "worst_y": [1.0]} for name, points in (("a", 0), ("b", 2))]

    def report(*records):
        return tool.Run(0, "".join(json.dumps(r) + "\n" for r in records), "")

    summary = {"record": "summary", "pass": True, "checks": 2}
    new_run = dict(run, volume="busemann-hausdorff", bh_nodes=32)
    grown = dict(checks[1], residual=1e-10 * (1 + 1e-6))
    diff = tool.compare("dropped", report(run, *checks, summary),
                        report(new_run, grown, dict(summary, checks=1)))
    assert not diff.agrees and not diff.same_records and diff.same_flags
    assert (diff.dropped, diff.added, diff.moves) == (["check:a"], [], [])
    assert diff.changed == {"run.volume", "+run.bh_nodes", "check.residual", "summary.checks"}
    assert abs(diff.dfloat - 1e-16 / 2.0) < 1e-20  # the count of checks is no float
    assert "records DIFFER -check:a flags same" in diff.line()


def test_csv_reports_are_compared_as_records():
    tool = _tool()
    argv = ("verify", "--metric", "randers", "--points", "1", "--checks", "euler-metric",
            "--format", "csv")
    old = tool.run(SRC, argv)
    assert old.code == 0 and old.out.startswith("record,check,")
    same = tool.compare("csv", old, tool.run(SRC, argv))
    assert same.agrees and same.same_bytes and (same.dfloat, same.moves) == (0.0, [])
    header, row = old.out.splitlines()
    cells = row.split(",")
    residual = float(cells[3])
    cells[3] = repr(2.0 * residual)
    edited = tool.compare("csv", old, tool.Run(old.code, f"{header}\n{','.join(cells)}\n",
                                               old.err))
    assert edited.agrees and not edited.same_bytes
    assert "records same flags same changed check.residual dfloat" in edited.line()
    assert edited.dfloat == residual / float(cells[4])  # the scale is the record's largest
    renamed = tool.compare("csv", old, tool.Run(
        old.code, old.out.replace("euler-metric", "euler-metrix"), old.err))
    assert not renamed.agrees and renamed.same_err
    assert "records DIFFER -check:euler-metric +check:euler-metrix flags same" in renamed.line()


def test_csv_cells_read_as_json_values_or_strings():
    tool = _tool()
    out = 'record,check,residual,pass,worst_x,note\ncheck,c,nan,true,"[0.5,-1]",\n'
    assert tool._records(out) == [{"record": "check", "check": "c", "residual": "nan",
                                   "pass": True, "worst_x": [0.5, -1]}]


def test_an_integer_against_a_float_is_compared_as_a_float():
    # an exactly-zero residual prints as 0, and its move to rounding is a float change
    tool = _tool()
    check = {"record": "check", "check": "s-volume-change", "points": 2, "residual": 0,
             "scale": 2.0, "tolerance": 1e-4, "floor": 1e-9, "pass": True,
             "worst_x": [0.1], "worst_y": [1.0]}

    def report(*records):
        return tool.Run(0, "".join(json.dumps(r) + "\n" for r in records), "")

    diff = tool.compare("zero", report(check),
                        report(dict(check, residual=8.8817841970012523e-16)))
    assert diff.agrees and diff.changed == {"check.residual"}
    assert diff.dfloat == 8.8817841970012523e-16 / 2.0
    assert diff.dratio == 8.8817841970012523e-16 / (1e-4 * 2.0 + 1e-9)
