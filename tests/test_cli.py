"""Command-line interface: config layering, output formats, exit codes."""

import argparse
import contextlib
import csv
import functools
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spraylab
from spraylab import cli, geometry, jets, measures, projective
from spraylab.cli import RunConfig, main, parse_config
from spraylab.errors import ConfigError
from spraylab.verify import REGISTRY, check_names, theorem_names


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(text):
    return [json.loads(line) for line in text.splitlines()]


# -- config layering ---------------------------------------------------------


def test_defaults():
    cfg = parse_config()
    assert cfg.metric_family == "euclidean"
    assert cfg.points == 20 and cfg.seed == 0
    assert cfg.fmt == "json-lines"


def test_defaults_have_one_home_and_the_help_names_them(capsys):
    # a theorem runs its fixtures' own point counts, so the help says so
    for argv in (("verify", "--help"), ("theorem", "--help")):
        code, out, _ = run_cli(capsys, *argv)
        text = " ".join(out.split())  # argparse wraps help lines
        assert code == 0
        for phrase in (f"sample count (eval, verify: default {RunConfig.points}; "
                       "theorem: each fixture's own)",
                       f"sampler seed (default {RunConfig.seed})"):
            assert phrase in text


def test_config_file_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "metric.family = randers\n"
        "metric.dim = 3\n"
        "metric.preset = generic\n"
        "volume.kind = bh\n"
        "points.count = 5\n"
        "points.seed = 7\n"
        "points.box = cube:0.3\n"
        "format = csv\n"
    )
    cfg = parse_config(path)
    assert cfg.metric_family == "randers"
    assert cfg.metric_params == {"preset": "generic"}
    assert cfg.volume().kind == "busemann-hausdorff"
    assert cfg.points == 5 and cfg.seed == 7
    assert cfg.box == ("cube", 0.3)
    assert cfg.fmt == "csv"


def test_config_file_rejects_unknown_key(tmp_path):
    # the pass thresholds are constants of the library, and a run's jet degree
    # is the largest its checks declare, so no key sets them
    path = tmp_path / "run.cfg"
    for key, value in (("volume.shape", "round"), ("tol.jet", "1e-7"), ("degree", "7")):
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"^unknown config key {key!r}$"):
            parse_config(path)


def test_volume_sigma_key_is_not_a_volume_spelling(capsys, tmp_path):
    # explicit densities are spelled volume.kind = explicit:<expr> only, and
    # the adaptive quadrature sizes every Busemann-Hausdorff rule itself
    path = tmp_path / "run.cfg"
    for line in ("volume.sigma = exp(x1)", "volume.nodes = 32"):
        path.write_text(f"metric.family = randers\n{line}\n")
        code, out, err = run_cli(capsys, "eval", "--config", str(path), "--points", "1")
        assert code == 2 and out == ""
        assert f"unknown config key {line.split(' = ')[0]!r}" in err


def test_bare_explicit_volume_exits_two(capsys):
    code, out, err = run_cli(capsys, "eval", "--volume", "explicit", "--points", "1")
    assert code == 2 and out == ""
    assert "explicit:<sigma expression>" in err


def test_volume_flag_overrides_file_explicit_volume(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("metric.family = randers\nvolume.kind = explicit:exp(x1)\n")
    assert parse_config(path).volume().describe() == "explicit:exp(x1)"
    code, out, _ = run_cli(capsys, "verify", "--config", str(path), "--volume", "bh",
                           "--points", "1", "--checks", "s-homogeneous")
    assert code == 0
    assert json_records(out)[0]["volume"] == "busemann-hausdorff"


def test_config_file_rejects_type_mismatch(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("points.count = many\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config(path)


def test_flag_overrides_file(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("metric.family = randers\npoints.count = 3\npoints.seed = 7\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(path), "--seed", "9")
    assert code == 0
    head = json_records(out)[0]
    assert head["record"] == "run"
    assert head["seed"] == 9
    assert head["metric"] == "randers(3)"


# field -> (config key, flag, file texts, flag texts, value of a text)
_LAYERED = {
    "metric_family": ("metric.family", "--metric", ["randers", "funk"],
                      ["round-sphere", "funk"], str),
    "metric_dim": ("metric.dim", "--dim", ["2", "3"], ["3", "5"], int),
    "volume_spec": ("volume.kind", "--volume", ["bh", "explicit:exp(x1)"],
                    ["coordinate", "explicit:x1*x2"], str),
    "points": ("points.count", "--points", ["3", "5"], ["1", "5"], int),
    "seed": ("points.seed", "--seed", ["7", "11"], ["2", "11"], int),
    "box": ("points.box", "--box", ["cube:0.3", "ball:0.5"], ["cube:0.1", "ball:0.5"],
            lambda text: (text.split(":")[0], float(text.split(":")[1]))),
    "fmt": ("format", "--format", ["csv", "json-lines"], ["json-lines", "csv"], str),
}
# family parameter texts and the values their literals parse to
_PARAM_TEXTS = {"1": 1, "0.5": 0.5, "true": True, "[1, 2]": [1, 2], "generic": "generic"}
_PARAMS = st.dictionaries(st.sampled_from(["preset", "eps", "scale"]),
                          st.sampled_from(sorted(_PARAM_TEXTS)), max_size=3)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.fixed_dictionaries({
    name: st.tuples(st.sampled_from(["default", "file", "flag", "both"]),
                    st.sampled_from(file_texts), st.sampled_from(flag_texts))
    for name, (_, _, file_texts, flag_texts, _) in _LAYERED.items()
}), _PARAMS, _PARAMS)
def test_flags_layer_over_file_over_defaults(tmp_path, drawn, file_params, flag_params):
    lines, argv = [], ["verify"]
    want = vars(RunConfig())
    for name, (source, file_text, flag_text) in drawn.items():
        key, flag, _, _, value = _LAYERED[name]
        if source in ("file", "both"):
            lines.append(f"{key} = {file_text}")
            want[name] = value(file_text)
        if source in ("flag", "both"):
            argv += [flag, flag_text]
            want[name] = value(flag_text)
    lines += [f"metric.{key} = {text}" for key, text in file_params.items()]
    argv += [f"--param={key}={text}" for key, text in flag_params.items()]
    want["metric_params"] = {key: _PARAM_TEXTS[text]
                             for key, text in {**file_params, **flag_params}.items()}
    path = tmp_path / "run.cfg"
    path.write_text("".join(line + "\n" for line in lines))
    given = {}
    assert vars(parse_config(path, cli.build_parser().parse_args(argv), given)) == want
    # a theorem keeps its own count and volumes unless one is given
    for name in ("points", "volume_spec"):
        key, flag = _LAYERED[name][:2]
        last = {"default": None, "file": key, "flag": flag, "both": flag}[drawn[name][0]]
        assert given.get(key) == last


# config key -> a text its parser refuses
_BAD_TEXTS = {
    "metric.family": "klein", "metric.dim": "three", "metric.<name>": "[oops",
    "volume.kind": "lebesgue", "points.count": "many",
    "points.seed": "1.5", "points.box": "everywhere", "format": "xml",
}


@pytest.mark.parametrize("key", sorted(_BAD_TEXTS))
def test_file_key_and_flag_share_one_parser(capsys, tmp_path, key):
    assert set(_BAD_TEXTS) == set(cli._SETTINGS)
    flag, text = cli._SETTINGS[key].flag, _BAD_TEXTS[key]
    name, flag_text = key, text
    if key == "metric.<name>":
        name, flag_text = "metric.b", f"b={text}"
    path = tmp_path / "run.cfg"
    path.write_text(f"{name} = {text}\n")
    errors = []
    for argv, label in ((("--config", str(path)), name), ((flag, flag_text), flag)):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        errors.append(err.replace(label, "<setting>"))
    assert errors[0] == errors[1]


def test_points_flag_with_a_bad_count_names_the_flag(capsys):
    code, out, err = run_cli(capsys, "verify", "--points", "many")
    assert code == 2 and out == ""
    assert err == "error: --points expects an integer, got 'many'\n"


# the flags each subcommand offers: those of the settings it reads
_EVAL_FLAGS = {"--config", "--metric", "--dim", "--param", "--volume", "--points",
               "--seed", "--box", "--format"}
_FLAGS = {
    "list": {"--config", "--format"},
    "eval": _EVAL_FLAGS,
    "verify": _EVAL_FLAGS | {"--checks", "--per-point"},
    "theorem": {"--config", "--volume", "--points", "--seed", "--format", "--per-point"},
}


def test_each_subcommand_offers_only_the_flags_it_reads():
    sub, = (action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    offered = {command: {flag for action in parser._actions for flag in action.option_strings}
               - {"-h", "--help"} for command, parser in sub.choices.items()}
    assert offered == _FLAGS
    assert sum(map(len, offered.values())) == 28


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ("theorem", "thm12", "--metric", "randers"),
    ("theorem", "thm12", "--dim", "2", "--box", "ball:9"),
    ("list", "--points", "1"),
    ("eval", "--tol-jet", "1e-3"),
    # the adaptive quadrature sizes every Busemann-Hausdorff rule
    ("eval", "--bh-nodes", "16"),
    ("verify", "--bh-nodes", "16"),
    ("theorem", "thm12", "--bh-nodes", "16"),
    # the pass thresholds are constants of the library
    ("verify", "--tol-jet", "1e300"),
    ("verify", "--tol-quad", "1e300"),
    ("verify", "--floor", "1e300"),
    ("theorem", "thm12", "--floor", "1e300"),
    # a run's jet degree is the largest its checks declare
    ("eval", "--degree", "7"),
    ("verify", "--degree", "7"),
    ("theorem", "thm12", "--degree", "7"),
])
def test_flag_the_subcommand_does_not_read_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--points", "1")
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err and argv[-2] in err


@pytest.mark.parametrize("name", ["thm15", "cor33", "prop32", "ex17", "ex45"])
def test_fixed_volume_theorem_refuses_a_volume(capsys, tmp_path, name):
    path = tmp_path / "run.cfg"
    path.write_text("volume.kind = coordinate\n")
    for argv in (("--volume", "bh"), ("--config", str(path))):
        code, out, err = run_cli(capsys, "theorem", name, "--points", "1", *argv)
        assert code == 2 and out == ""
        assert err == (f"error: theorem {name} fixes its volume forms; only "
                       "thm12, cor14, thm43 take a volume\n")


def test_param_literals():
    assert cli._literal("true") is True
    assert cli._literal("3") == 3
    assert cli._literal("0.5") == 0.5
    assert cli._literal("[1.2,0,0]") == [1.2, 0, 0]
    assert cli._literal("generic") == "generic"
    assert cli._literal("") == ""
    with pytest.raises(ConfigError):
        cli._literal("[oops")


# -- serialization -----------------------------------------------------------


def test_floats_round_trip_at_17_digits():
    assert cli._json(0.1) == "0.10000000000000001"
    assert float(cli._json(1 / 3)) == 1 / 3
    assert cli._json(float("inf")) == '"inf"'
    assert cli._json(float("nan")) == '"nan"'
    assert cli._json(True) == "true"
    assert cli._json(None) == "null"
    assert cli._cell(None) == ""
    assert cli._cell([1.0, 2.0]) == "[1,2]"


# -- list ----------------------------------------------------------------------


def test_list_families_and_theorems(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    records = json_records(out)
    families = {r["name"] for r in records if r["record"] == "family"}
    theorems = {r["name"] for r in records if r["record"] == "theorem"}
    assert {"euclidean", "funk", "randers", "square-metric"} <= families
    assert "thm12" in theorems and "ex45" in theorems


# -- eval -----------------------------------------------------------------------


def test_eval_single_point_routes(capsys):
    code, out, _ = run_cli(capsys, "eval", "--metric", "funk", "--dim", "3",
                           "--points", "1", "--seed", "1")
    assert code == 0
    records = json_records(out)
    assert len(records) == 1
    rec = records[0]
    for key in ("F", "G", "N", "Gamma", "B", "Rik", "Ric", "R", "T",
                "S", "tau", "chi", "Ghat", "W", "Wo"):
        assert key in rec
    wo = rec["Wo"]
    routes = [r for r in wo if wo[r] is not None]
    assert set(routes) == {"definition", "viaBase", "divW", "divR"}
    worst = max(
        max(abs(a - b) for a, b in zip(wo[r1], wo[r2]))
        for i, r1 in enumerate(routes)
        for r2 in routes[i + 1:]
    )
    assert worst <= 1e-6


def test_eval_2d_drops_divw_route(capsys):
    code, out, _ = run_cli(capsys, "eval", "--metric", "conformal-flat-2d",
                           "--points", "1")
    assert code == 0
    rec = json_records(out)[0]
    assert rec["Wo"]["divW"] is None
    assert rec["Wo"]["definition"] is not None


def test_eval_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "eval", "--metric", "euclidean",
                           "--points", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli.EVAL_COLUMNS
    assert len(rows) == 3
    # cells holding arrays are themselves json
    g_col = rows[0].index("G")
    assert json.loads(rows[1][g_col]) == [0, 0, 0]


# -- verify -----------------------------------------------------------------------


def test_verify_euclidean_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "euclidean", "--dim", "3",
                           "--volume", "coordinate", "--points", "10", "--seed", "7",
                           "--per-point")
    assert code == 0
    records = json_records(out)
    assert records[0]["record"] == "run"
    # every check but weyl-2d, which applies to surfaces only
    assert records[-1] == {"record": "summary", "pass": True, "checks": 41,
                           "failures": []}
    results = [rec for rec in records if rec["record"] == "result"]
    assert len(results) == 410 and all(rec["residual"] <= 1e-11 for rec in results)
    assert all(rec["points"] == 10 for rec in records if rec["record"] == "check")


@pytest.mark.parametrize("argv, absent", [
    (("--metric", "conformal-flat-2d"), {"weyl-divergence", "flatness-equivalence"}),
    (("--metric", "funk", "--dim", "4"), {"riemannian-berwald", "weyl-2d"}),
])
def test_verify_prints_records_only_for_checks_that_ran(capsys, argv, absent):
    code, out, _ = run_cli(capsys, "verify", *argv, "--points", "2")
    records = json_records(out)
    checks = [r for r in records if r["record"] == "check"]
    assert code == 0 and absent.isdisjoint(r["check"] for r in checks)
    assert all(r["points"] == 2 for r in checks)
    assert records[-1]["checks"] == len(checks) == len(check_names()) - len(absent)


def test_verify_exit_one_on_failed_check(capsys):
    # the literal inner product makes square-metric's F^2 no longer homogeneous
    code, out, _ = run_cli(capsys, "verify", "--metric", "square-metric",
                           "--param", "literal_inner=true", "--points", "3")
    assert code == 1
    summary = json_records(out)[-1]
    assert summary["pass"] is False and len(summary["failures"]) == 31
    assert "euler-metric" in summary["failures"]


def test_verify_checks_subset_and_per_point(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "euclidean", "--points", "3",
                           "--checks", "euler-spray,rik-y-kill", "--per-point")
    assert code == 0
    records = json_records(out)
    checks = [r for r in records if r["record"] == "check"]
    results = [r for r in records if r["record"] == "result"]
    assert {r["check"] for r in checks} == {"euler-spray", "rik-y-kill"}
    assert len(results) == 6
    assert all("x" in r and "y" in r for r in results)


@pytest.mark.parametrize("checks", ["weyl-2d", "euler-spray,weyl-2d"])
def test_verify_inapplicable_check_exits_two(capsys, checks):
    # weyl-2d only runs on surfaces; selecting it on randers(3) would pass
    # with zero points
    code, out, err = run_cli(capsys, "verify", "--metric", "randers", "--points", "2",
                             "--checks", checks)
    assert code == 2 and out == ""
    assert "weyl-2d" in err and "euler-spray" not in err


@pytest.mark.parametrize("checks", ["euler-spray,", ",", ""])
def test_verify_empty_checks_entry_exits_two(capsys, checks):
    code, out, err = run_cli(capsys, "verify", "--metric", "euclidean", "--points", "1",
                             "--checks", checks)
    assert code == 2 and out == ""
    assert "--checks list has an empty entry" in err


def test_per_point_csv_exits_two_before_any_point_runs(capsys, monkeypatch, tmp_path):
    # a csv report has one row per check and no place for per-point records
    contexts = _count_calls(monkeypatch, projective.PointContext, "__init__")
    path = tmp_path / "run.cfg"
    path.write_text("format = csv\n")
    for command in (("verify", "--metric", "euclidean"), ("theorem", "thm43")):
        for fmt in (("--format", "csv"), ("--config", str(path))):
            code, out, err = run_cli(capsys, *command, "--points", "2", "--per-point", *fmt)
            assert (code, out) == (2, "")
            assert err == ("error: --per-point needs json-lines output; a csv report holds "
                           "one row per check\n")
    assert contexts == []


def test_verify_csv_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "euclidean",
                           "--points", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli.VERIFY_COLUMNS
    assert len(rows) == 1 + 41  # the header and the checks that apply in dim 3


def test_verify_byte_identical_reruns(capsys):
    argv = ("verify", "--metric", "randers", "--points", "4", "--seed", "7")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


# -- theorem ----------------------------------------------------------------------


def test_theorem_with_volume_override(capsys):
    code, out, _ = run_cli(capsys, "theorem", "thm12",
                           "--volume", "explicit:exp(x1)", "--points", "3")
    assert code == 0
    records = json_records(out)
    assert records[0]["metric"] == "thm12"
    checks = [r for r in records if r["record"] == "check"]
    assert len(checks) == 1


@pytest.mark.parametrize("name", ["thm12", "thm43"])
def test_theorem_takes_a_bh_volume(capsys, name):
    code, out, _ = run_cli(capsys, "theorem", name, "--volume", "bh", "--points", "1")
    assert code == 0
    assert json_records(out)[0]["volume"] == "busemann-hausdorff"


@pytest.mark.parametrize("name, volume, bh", [
    ("thm12", "coordinate, explicit:exp(0.1*x2), busemann-hausdorff", True),
    ("thm15", "busemann-hausdorff", True),
    ("thm43", "coordinate", False),
    ("ex17", "busemann-hausdorff", True),
    ("ex45", "coordinate, explicit:exp(0.1*x1), busemann-hausdorff", True),
])
def test_theorem_run_record_names_its_volumes_and_bh_rule(capsys, name, volume, bh):
    # every density a theorem computes is measured: its last rule change is
    # within the stop rule of the adaptive quadrature
    code, out, _ = run_cli(capsys, "theorem", name, "--points", "1")
    run = json_records(out)[0]
    assert code == (1 if name == "ex45" else 0)  # ex45 fails its Ricci gate
    assert run["volume"] == volume
    assert ("bh_nodes" in run) == ("bh_change" in run) == bh
    if bh:
        assert 32 <= run["bh_nodes"] <= measures.BH_NODES
        assert run["bh_change"] is not None and run["bh_change"] <= measures.BH_AGREE


def test_theorem_results_follow_their_checks(capsys):
    code, out, _ = run_cli(capsys, "theorem", "thm15", "--points", "2", "--per-point")
    records = json_records(out)
    checks = [r for r in records if r["record"] == "check"]
    results = [r["check"] for r in records if r["record"] == "result"]
    assert code == 0 and len(checks) == 4
    assert results == [c["check"] for c in checks for _ in range(c["points"])]


def test_theorem_gate_failure_exits_one(capsys):
    code, out, _ = run_cli(capsys, "theorem", "ex45", "--points", "2")
    assert code == 1
    summary = json_records(out)[-1]
    assert summary["failures"] == ["ex45:projective-ricci-flat-gate"]


def test_theorem_unknown_name(capsys):
    code, _, err = run_cli(capsys, "theorem", "thm99")
    assert code == 2
    assert "thm99" in err


# -- error stream ----------------------------------------------------------------


def test_unknown_family_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--metric", "klein")
    assert code == 2
    assert "unknown family" in err


def _config_error_line(tmp_path, argv) -> str:
    """The one stderr line of a ``python -m spraylab`` run that must exit 2 with no report."""
    env = dict(os.environ, PYTHONPATH=str(Path(spraylab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spraylab", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")
    return line


@pytest.mark.parametrize("argv, key", [
    (("eval", "--metric", "riemannian", "--dim", "2", "--param", "matrix=3"), "matrix"),
    (("eval", "--metric", "riemannian", "--dim", "2", "--param", 'matrix=[["1","0"]]'), "matrix"),
    (("eval", "--metric", "randers", "--dim", "3", "--param", "preset=constant",
      "--param", "b=[0.5,0.5]"), "b"),
    (("eval", "--metric", "randers", "--dim", "3", "--param", "preset=constant",
      "--param", "a=[[1,0],[0,1]]"), "a"),
    (("verify", "--metric", "projective-perturbation", "--param", "base=funk",
      "--param", 'oneform=["x1","0"]'), "oneform"),
    (("eval", "--metric", "fourth-root", "--param", "n1=x"), "n1"),
    (("eval", "--metric", "fourth-root", "--param", "c=abc"), "c"),
    (("verify", "--metric", "fourth-root", "--param", "n1=-1", "--param", "n2=3",
      "--dim", "2"), "n1"),
    (("eval", "--metric", "fourth-root", "--param", "n1=2", "--param", "n2=1.5",
      "--dim", "4"), "n2"),
    (("eval", "--metric", "square-metric", "--param", "literal_inner=3"), "literal_inner"),
    # a parameter the family does not read, and an expression that is not a number
    (("eval", "--metric", "funk", "--param", "nonsense=1"), "nonsense"),
    (("eval", "--metric", "randers", "--param", "b=[0.5,0,0]"), "b"),
    (("eval", "--metric", "conformal-flat-2d", "--param", "lam=true"), "lam"),
    (("eval", "--metric", "riemannian", "--dim", "2", "--param", "matrix=[[1,0],[false,1]]"),
     "matrix"),
    (("eval", "--metric", "projective-perturbation", "--param", "base=funk",
      "--param", 'oneform=["x1",0,{"c":1}]'), "oneform"),
    (("eval", "--metric", "fourth-root", "--param", "c=1" + "0" * 400), "c"),
    # constant data that is no metric: an indefinite and an asymmetric a
    (("verify", "--metric", "randers", "--dim", "2", "--param", "preset=constant",
      "--param", "a=[[1,0],[0,-1]]"), "a"),
    (("verify", "--metric", "randers", "--dim", "2", "--param", "preset=constant",
      "--param", "a=[[1,2],[0,1]]"), "a"),
    (("verify", "--metric", "riemannian", "--dim", "2", "--param", "matrix=[[1,0],[0,-1]]",
      "--points", "2"), "matrix"),
    (("verify", "--metric", "riemannian", "--dim", "2", "--param", "matrix=[[2,1],[0,2]]",
      "--points", "2"), "matrix"),
])
def test_bad_family_parameter_exits_two(tmp_path, argv, key):
    line = _config_error_line(tmp_path, argv)
    assert f"parameter {key!r}" in line
    assert argv[argv.index("--metric") + 1] in line


_LNSIGMA_RUNS = {
    "verify-bh": ("verify", "--metric", "randers", "--dim", "3", "--volume", "bh",
                  "--points", "2", "--per-point"),
    "eval-bh": ("eval", "--metric", "randers", "--dim", "3", "--volume", "bh", "--points", "1"),
    "verify-explicit": ("verify", "--metric", "randers", "--dim", "3",
                        "--volume", "explicit:exp(0.3*x1*x2+x3^3)", "--points", "2",
                        "--per-point"),
}


@pytest.mark.parametrize("name", list(_LNSIGMA_RUNS))
def test_lnsigma_orders_above_the_asked_x_degree_are_never_read(monkeypatch, capsys, name):
    # unit normal noise in two more x-orders of ln sigma, which the lifted jet
    # then calls exact, leaves the report byte-identical
    argv = _LNSIGMA_RUNS[name]
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    lnsigma_jet = measures.VolumeForm.lnsigma_jet
    rng = np.random.default_rng(0)
    asked = []

    def noisy(self, metric, x, degree, rules=None):
        jet = lnsigma_jet(self, metric, x, degree, rules)
        asked.append(degree)
        wide = jets.ring(jet.ring.nvars, degree + 2)
        noise = rng.normal(size=wide.size - jet.coeffs.shape[-1])
        return jets.Jet(wide, np.concatenate([jet.coeffs, noise]), wide.degree)

    monkeypatch.setattr(measures.VolumeForm, "lnsigma_jet", noisy)
    assert run_cli(capsys, *argv)[:2] == (0, want)
    assert asked and set(asked) == {projective.LNSIGMA_XDEGREE}


@pytest.mark.parametrize("name", list(_LNSIGMA_RUNS))
def test_one_x_order_fewer_of_lnsigma_starves_w_o(monkeypatch, capsys, name):
    # a starved jet is a domain error: verify fails the checks that read W^o
    # with an infinite residual, and eval, which prints W^o, exits 2
    monkeypatch.setattr(projective, "LNSIGMA_XDEGREE", projective.LNSIGMA_XDEGREE - 1)
    code, out, err = run_cli(capsys, *_LNSIGMA_RUNS[name])
    if name.startswith("eval"):
        assert (code, out) == (2, "")
        assert err == "error: no exact first-order x coefficients left\n"
        return
    assert (code, err) == (1, "")
    failed = {rec["check"]: rec for rec in json_records(out)
              if rec["record"] == "check" and not rec["pass"]}
    assert {"wo-routes", "wo-rewrite", "wo-y-kill"} <= set(failed)
    assert all(rec["residual"] == "inf" for rec in failed.values())


def _report_diff_evals():
    spec = importlib.util.spec_from_file_location(
        "report_diff", Path(__file__).resolve().parents[1] / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return {label: argv for label, argv in module.COMMANDS if argv[0] == "eval"}


_EVALS = _report_diff_evals()


@pytest.mark.parametrize("label", list(_EVALS))
def test_eval_reads_exactly_x_order_three_of_f_squared(monkeypatch, capsys, label):
    # eval's (x, y) ring keeps x-degree <= LNSIGMA_XDEGREE; without the cap every
    # eval of the report list prints the same bytes, and with one order fewer
    # W^o starves, as a check's declared degree is pinned one degree lower
    argv = _EVALS[label]
    assert cli.LNSIGMA_XDEGREE == projective.LNSIGMA_XDEGREE == 3
    capped = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "LNSIGMA_XDEGREE", None)
    assert run_cli(capsys, *argv) == capped
    monkeypatch.setattr(cli, "LNSIGMA_XDEGREE", 2)
    starved = run_cli(capsys, *argv)
    if capped[0] == 0:
        assert starved == (2, "", "error: no exact first-order x coefficients left\n")
    else:
        assert starved == capped


def test_unread_family_parameter_names_the_ones_it_takes(capsys):
    code, out, err = run_cli(capsys, "eval", "--metric", "fourth-root", "--param", "n=3")
    assert code == 2 and out == ""
    assert err == "error: fourth-root takes no parameter 'n'; it takes n1, n2, c\n"


@pytest.mark.parametrize("b", ["b=[1.2,0,0]", "b=[1e308,0,0]"])
def test_invalid_randers_names_invariant(capsys, b):
    # |b|_a^2 that overflows is refused on one line, with no numpy warning
    code, _, err = run_cli(capsys, "verify", "--metric", "randers", "--dim", "3",
                           "--param", "preset=constant", "--param", b)
    assert code == 2
    [line] = err.splitlines()
    assert "|b|_a < 1" in line


def test_overflowing_metric_exits_two_without_numpy_warnings(capsys):
    # the suite turns RuntimeWarning into an error, so a warning would raise here
    code, out, err = run_cli(capsys, "eval", "--metric", "conformal-flat-2d",
                             "--param", "lam=1000", "--points", "1")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line == "error: F^2 of conformal-flat-2d has non-finite coefficients"


def test_a_point_where_the_metric_is_no_metric_exits_two(capsys):
    # as in eval, the metric's failed gate ends the run; it is no failed check
    code, out, err = run_cli(capsys, "verify", "--metric", "riemannian", "--dim", "2",
                             "--param", 'matrix=[["1","0"],["0","x1"]]', "--points", "4")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert "not positive definite" in line


def test_unknown_subcommand_exits_two(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert err


def test_bad_flag_values_exit_two(capsys, tmp_path):
    assert run_cli(capsys, "verify", "--box", "everywhere")[0] == 2
    assert run_cli(capsys, "verify", "--box", "cube:-1")[0] == 2
    assert run_cli(capsys, "verify", "--param", "oops")[0] == 2
    assert run_cli(capsys, "verify", "--volume", "lebesgue")[0] == 2
    # a negative seed and an unbounded box were numpy tracebacks
    path = tmp_path / "run.cfg"
    path.write_text("points.seed = -1\n")
    for argv in (("eval", "--seed", "-1"), ("verify", "--seed", "-1"),
                 ("theorem", "thm43", "--seed", "-1"), ("eval", "--config", str(path)),
                 ("eval", "--box", "cube:inf"), ("verify", "--box", "ball:inf")):
        code, out, err = run_cli(capsys, *argv, "--points", "1")
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
        assert "seed" in err or "box size" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--points", "0"),
    ("verify", "--points", "-1"),
    ("eval", "--points", "0"),
    ("theorem", "thm43", "--points", "0"),
])
def test_point_count_below_one_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "point count" in err


@pytest.mark.parametrize("argv, limit", [
    (("eval", "--dim", "7"), "variables"),
    (("verify", "--dim", "7"), "variables"),
])
def test_ring_limits_exit_two(capsys, argv, limit):
    code, _, err = run_cli(capsys, *argv, "--points", "1")
    assert code == 2
    assert limit in err and len(err.splitlines()) == 1


def test_oversized_ring_exits_two_before_it_is_built(capsys, monkeypatch):
    # a lowered budget and a fresh ring cache, so the refused ring is one no
    # other test has cached: ring(4, 7) has C(2*4 + 7, 7) = 6,435 pairs
    monkeypatch.setattr(jets, "MAX_MUL_PAIRS", 6_434)
    monkeypatch.setattr(jets, "ring", functools.lru_cache(maxsize=None)(jets.PolyRing))
    code, out, err = run_cli(capsys, "verify", "--metric", "euclidean", "--dim", "2",
                             "--points", "1")
    assert code == 2 and out == ""
    assert err == ("error: jet ring(4, 7) needs 6,435 multiply pairs, more than the "
                   "budget of 6,434; lower the degree or the dimension\n")


def test_oversized_capped_ring_exits_two_before_it_is_built(capsys, monkeypatch):
    # eval's ring(4, 7) keeps x-degree <= 3: sum over a <= 3 of
    # C(4 + a - 1, a) C(4 + 7 - a, 7 - a) = 330 + 840 + 1,260 + 1,400 pairs
    monkeypatch.setattr(jets, "MAX_MUL_PAIRS", 3_829)
    monkeypatch.setattr(jets, "ring", functools.lru_cache(maxsize=None)(jets.PolyRing))
    code, out, err = run_cli(capsys, "eval", "--metric", "euclidean", "--dim", "2",
                             "--points", "1")
    assert code == 2 and out == ""
    assert err == ("error: jet ring(4, 7) at x-degree 3 needs 3,830 multiply pairs, more than "
                   "the budget of 3,829; lower the degree or the dimension\n")


_DRAWN_FLAGS = {
    "--metric": ["euclidean", "round-sphere", "randers", "klein"],
    "--dim": ["2", "3", "7"],
    "--volume": ["coordinate", "bh", "explicit:x1", "lebesgue"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["list", "eval", "verify", "theorem"]))
    if command == "theorem":
        argv = [command, draw(st.sampled_from(theorem_names())), "--points", "1"]
    else:
        argv = [command, "--points", draw(st.sampled_from(["-1", "0", "1"]))]
    for flag, values in _DRAWN_FLAGS.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_argv())
def test_exit_contract_on_random_arguments(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().strip()


def _count_calls(monkeypatch, owner, attr):
    calls = []
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ("--metric", "randers"),
    ("--metric", "projective-perturbation", "--param", "base=randers",
     "--param", 'oneform=["0.1*x1","0.05*x2","0"]'),
])
def test_eval_builds_one_metric_frame_per_point(capsys, monkeypatch, argv):
    inits = _count_calls(monkeypatch, geometry.MetricFrame, "__init__")
    assert run_cli(capsys, "eval", *argv, "--points", "2", "--seed", "1")[0] == 0
    assert len(inits) == 2


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_EVAL = {
    "eval_randers3.jsonl": ("--metric", "randers", "--dim", "3", "--points", "2",
                            "--seed", "1"),
    "eval_perturbation.jsonl": ("--metric", "projective-perturbation", "--dim", "3",
                                "--param", "base=randers",
                                "--param", 'oneform=["0.1*x1","0.05*x2","0"]',
                                "--points", "1", "--seed", "1"),
}


def _is_number(value):
    # json prints integral floats as integers, so 0 and 1e-17 are both numbers
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value):
    if isinstance(value, dict):
        return [v for item in value.values() for v in _numbers(item)]
    if isinstance(value, list):
        return [v for item in value for v in _numbers(item)]
    return [value] if _is_number(value) else []


def _skeleton(value):
    """Keys in order, nesting and non-numeric leaves, with every number blanked."""
    if isinstance(value, dict):
        return [(key, _skeleton(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [_skeleton(item) for item in value]
    return "#" if _is_number(value) else value


@pytest.mark.parametrize("name", sorted(GOLDEN_EVAL))
def test_eval_matches_golden_records(capsys, name):
    # same keys and nesting; numbers within 1e-12 of each record's largest magnitude
    code, out, _ = run_cli(capsys, "eval", *GOLDEN_EVAL[name])
    assert code == 0
    got = json_records(out)
    want = json_records((GOLDEN / name).read_text())
    assert len(got) == len(want)
    for rec_got, rec_want in zip(got, want):
        assert _skeleton(rec_got) == _skeleton(rec_want)
        nums_got, nums_want = _numbers(rec_got), _numbers(rec_want)
        bound = 1e-12 * max(abs(v) for v in nums_want)
        assert max(abs(a - b) for a, b in zip(nums_got, nums_want)) <= bound


def test_thm12_builds_one_base_stack_per_point(capsys, monkeypatch):
    # per point: one base stack plus one hat stack for each of three volumes
    inits = _count_calls(monkeypatch, geometry.SprayStack, "__init__")
    assert run_cli(capsys, "theorem", "thm12", "--points", "2")[0] == 0
    assert len(inits) == 2 * (1 + 3)


@pytest.mark.parametrize("argv, densities", [
    (("verify", "--metric", "randers", "--volume", "bh", "--points", "3"), 3),
    # two gate points plus two base points, each shared by three directions
    (("theorem", "ex45", "--points", "2"), 4),
    # one of three volumes is BH
    (("theorem", "thm12", "--points", "2"), 2),
    # funk and hyperbolic-ball points
    (("theorem", "thm15", "--points", "2"), 4),
    # round-sphere and hyperbolic-ball points
    (("theorem", "cor33", "--points", "2"), 4),
    (("theorem", "ex17", "--points", "2"), 2),
    # three volume changes share the density of each point
    (("theorem", "thm43", "--volume", "bh", "--points", "2"), 2),
])
def test_one_bh_density_per_volume_and_point(capsys, monkeypatch, argv, densities):
    calls = _count_calls(monkeypatch, measures, "bh_density")
    run_cli(capsys, *argv)
    keys = [(id(metric), tuple(x)) + tuple(rest) for metric, x, *rest in calls]
    assert len(calls) == densities == len(set(keys))


def test_bh_verify_point_stays_within_its_directions_budget(capsys, monkeypatch):
    # a randers point needs the 16- and 32-node rules, 128 + 512
    # directions; the bound of 1,280 is that of square rules on S^2
    directions = []
    sphere_nodes = measures.sphere_nodes

    def counted(n, nodes):
        theta, weights = sphere_nodes(n, nodes)
        directions.append(len(weights))
        return theta, weights

    monkeypatch.setattr(measures, "sphere_nodes", counted)
    assert run_cli(capsys, "verify", "--metric", "randers", "--volume", "bh",
                   "--points", "1")[0] == 0
    assert 0 < sum(directions) <= 1280


def test_verify_run_record_reports_the_bh_rule(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "randers", "--points", "2",
                           "--volume", "bh")
    run = json_records(out)[0]
    assert code == 0 and run["bh_nodes"] == 32
    assert 0.0 < run["bh_change"] <= measures.BH_AGREE


def test_run_record_without_quadrature_has_no_bh_fields(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "randers", "--points", "1",
                           "--volume", "explicit:exp(x1)")
    assert code == 0
    assert list(json_records(out)[0]) == ["record", "subcommand", "metric", "volume", "seed",
                                          "degree", "tol_jet", "tol_quad", "floor"]


@pytest.mark.parametrize("volume", [
    ("--volume", "explicit:1+"),
    ("--volume", "explicit:exp(x7)"),
    ("--metric", "funk", "--dim", "5", "--volume", "bh"),
])
def test_bad_volume_exits_two_when_no_check_reads_it(capsys, volume):
    code, out, err = run_cli(capsys, "verify", "--metric", "randers", "--points", "1",
                             "--checks", "euler-spray", *volume)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("sigma, part", [
    ("(-1)^0.5", "(-1) ** 0.5"),  # was a TypeError traceback
    ("sqrt(-1)", "sqrt(-1)"),     # was a RuntimeWarning and "inf" residuals
    ("log(0)", "log(0)"),
    ("exp(1000)", "exp(1000)"),   # was an overflow warning and exit 0
    ("x1 + 1/0", "1 / 0"),
])
def test_undefined_constant_in_explicit_volume_exits_two(capsys, sigma, part):
    code, out, err = run_cli(capsys, "verify", "--metric", "randers", "--points", "1",
                             "--volume", f"explicit:{sigma}")
    assert code == 2 and out == ""
    assert err == f"error: in {sigma!r}, {part} has no finite real value\n"


def test_deeply_nested_expression_exits_two(capsys):
    # 600 sums were a RecursionError traceback and 3,000 one from the parser
    # itself; 200 levels, the parser's own limit for nested parentheses, run
    for terms, code in ((200, 0), (600, 2), (3000, 2)):
        chain = "+".join(["x1"] * terms)
        for argv in (("eval", "--metric", "funk", "--volume", f"explicit:{chain}"),
                     ("verify", "--metric", "funk", "--volume", f"explicit:{chain}"),
                     ("theorem", "thm12", "--volume", f"explicit:{chain}"),
                     ("eval", "--metric", "conformal-flat-2d", "--param", f"lam={chain}")):
            got, out, err = run_cli(capsys, *argv, "--points", "1")
            assert got == code, (terms, argv[0])
            if code == 2:
                assert out == "" and len(err.splitlines()) == 1
                assert err.startswith(f"error: expression {chain!r} is nested ")


def test_constant_explicit_density_is_the_coordinate_volume(capsys):
    argv = ("eval", "--metric", "randers", "--points", "2", "--seed", "1")
    code, constant, _ = run_cli(capsys, *argv, "--volume", "explicit:2")
    assert code == 0
    assert constant == run_cli(capsys, *argv, "--volume", "coordinate")[1]


@pytest.mark.parametrize("sigma", ["0", "-1"])
def test_nonpositive_constant_density(capsys, sigma):
    # a density that is not positive at a sampled point is no volume form
    # there, for every command, as for one negative somewhere, and as for one
    # whose expression is undefined there
    point = r"x = \(\S+, \S+, \S+\)"
    for command in (("eval", "--metric", "randers"), ("verify", "--metric", "randers"),
                    ("theorem", "thm12")):
        for volume, why in ((f"explicit:{sigma}", rf"not positive at {point}: sigma = -?[0-9.e-]+"),
                            ("explicit:x1-5", rf"not positive at {point}: sigma = -?[0-9.e-]+"),
                            ("explicit:sqrt(x1-5)", rf"not defined at {point}: "
                                                    r"sqrt requires a positive constant term")):
            code, out, err = run_cli(capsys, *command, "--points", "2", "--volume", volume)
            assert code == 2 and out == ""
            assert re.fullmatch(rf"error: volume {re.escape(volume)} is {why}\n", err), err


@pytest.mark.parametrize("sigma, why", [
    # sigma overflows to inf, and inf - inf is NaN; both were printed as "nan"
    # curvatures or read "not positive"
    ("exp(exp(exp(exp(exp(x1+3)))))", r"has no finite value at {x}: sigma = inf"),
    ("exp(exp(exp(exp(exp(x1+3)))))-exp(exp(exp(exp(exp(x1+3)))))",
     r"has no finite value at {x}: sigma = nan"),
    # a finite sigma whose third derivative overflows
    ("2+sin(1e110*x1)", r"has no finite jet of ln sigma at {x}: sigma = 2\.\d+"),
], ids=["inf", "nan", "overflowing-jet"])
def test_explicit_density_with_no_finite_jet_exits_two(capsys, sigma, why):
    x = r"x = \(\S+, \S+, \S+\)"
    volume = f"explicit:{sigma}"
    for command in (("eval", "--metric", "funk"), ("verify", "--metric", "funk"),
                    ("theorem", "thm12")):
        code, out, err = run_cli(capsys, *command, "--points", "1", "--volume", volume)
        assert code == 2 and out == ""
        assert re.fullmatch(rf"error: volume {re.escape(volume)} {why.format(x=x)}\n", err), err


_UNCONVERGED_BH = ("--metric", "riemannian", "--dim", "3", "--volume", "bh", "--points", "3",
                   "--param", 'matrix=[["1","0","0"],["0","1","0"],["0","0","100*(1+x1)"]]')


def test_an_unconverged_bh_density_fails_the_run(capsys):
    # the 64-node rule of this anisotropic metric still moves ln sigma by 0.26:
    # every check that reads the density fails, and the run record shows the rule
    code, out, err = run_cli(capsys, "verify", *_UNCONVERGED_BH)
    assert (code, err) == (1, "")
    records = json_records(out)
    assert records[0]["bh_nodes"] == measures.BH_NODES
    assert records[0]["bh_change"] > 1e3 * measures.BH_AGREE
    reads = {check.name for check in REGISTRY if check.uses_measure and check.applies(None, 3)}
    failed = {rec["check"] for rec in records if rec["record"] == "check" and not rec["pass"]}
    assert failed == reads
    code, out, err = run_cli(capsys, "eval", *_UNCONVERGED_BH)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: riemannian: the Busemann-Hausdorff density did not converge "
                        r"at x = \(\S+, \S+, \S+\): its 64-node rule changed ln sigma by "
                        r"0\.\d+, above the stop \S+\n", err), err


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(spraylab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spraylab", "theorem", "nope"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "unknown theorem" in proc.stderr


def test_unknown_check_lists_the_available_names(capsys):
    code, out, err = run_cli(capsys, "verify", "--checks", "nope", "--points", "1")
    assert code == 2 and out == ""
    assert err == f"error: unknown checks: nope; available: {', '.join(check_names())}\n"


def test_missing_config_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--config", "/no/such/file.cfg")
    assert code == 2
    assert "config" in err


def test_main_entry_raises_system_exit(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["spraylab", "list"])
    with pytest.raises(SystemExit) as info:
        cli.main_entry()
    assert info.value.code == 0
