"""Command-line interface: config layering, output formats, exit codes."""

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spraylab
from spraylab import cli, geometry, jets, measures
from spraylab.cli import RunConfig, main, parse_config
from spraylab.errors import ConfigError
from spraylab.verify import theorem_names


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
    assert cfg.degree == 7
    assert cfg.volume_nodes == 64
    assert (cfg.tol_jet, cfg.tol_quad, cfg.floor) == (1e-7, 1e-4, 1e-9)
    assert cfg.fmt == "json-lines"


def test_config_file_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "metric.family = randers\n"
        "metric.dim = 3\n"
        "metric.preset = generic\n"
        "volume.kind = bh\n"
        "volume.nodes = 32\n"
        "points.count = 5\n"
        "points.seed = 7\n"
        "points.box = cube:0.3\n"
        "degree = 6\n"
        "tol.jet = 1e-6\n"
        "format = csv\n"
    )
    cfg = parse_config(path)
    assert cfg.metric_family == "randers"
    assert cfg.metric_params == {"preset": "generic"}
    assert cfg.volume().kind == "busemann-hausdorff" and cfg.volume().nodes == 32
    assert cfg.points == 5 and cfg.seed == 7
    assert cfg.box == ("cube", 0.3)
    assert cfg.degree == 6 and cfg.tol_jet == 1e-6
    assert cfg.fmt == "csv"


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("volume.shape = round\n")
    with pytest.raises(ConfigError, match="volume.shape"):
        parse_config(path)


def test_volume_sigma_key_is_not_a_volume_spelling(capsys, tmp_path):
    # explicit densities are spelled volume.kind = explicit:<expr> only
    path = tmp_path / "run.cfg"
    path.write_text("metric.family = randers\nvolume.sigma = exp(x1)\n")
    code, out, err = run_cli(capsys, "eval", "--config", str(path), "--points", "1")
    assert code == 2 and out == ""
    assert "unknown config key 'volume.sigma'" in err


def test_bare_explicit_volume_exits_two(capsys):
    code, out, err = run_cli(capsys, "eval", "--volume", "explicit", "--points", "1")
    assert code == 2 and out == ""
    assert "explicit:<sigma expression>" in err


def test_volume_flag_overrides_file_explicit_volume(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("metric.family = randers\nvolume.kind = explicit:exp(x1)\n")
    assert parse_config(path).volume().describe() == "explicit:exp(x1)"
    code, out, _ = run_cli(capsys, "verify", "--config", str(path), "--volume", "bh",
                           "--bh-nodes", "16", "--points", "1", "--checks", "s-homogeneous")
    assert code == 0
    assert json_records(out)[0]["volume"] == "busemann-hausdorff(16)"


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
    "volume_nodes": ("volume.nodes", "--bh-nodes", ["16", "32"], ["8", "32"], int),
    "points": ("points.count", "--points", ["3", "5"], ["1", "5"], int),
    "seed": ("points.seed", "--seed", ["7", "11"], ["2", "11"], int),
    "box": ("points.box", "--box", ["cube:0.3", "ball:0.5"], ["cube:0.1", "ball:0.5"],
            lambda text: (text.split(":")[0], float(text.split(":")[1]))),
    "degree": ("degree", "--degree", ["5", "6"], ["4", "6"], int),
    "tol_jet": ("tol.jet", "--tol-jet", ["1e-6", "2e-7"], ["0", "2e-7"], float),
    "tol_quad": ("tol.quad", "--tol-quad", ["1e-3", "5e-5"], ["0", "5e-5"], float),
    "floor": ("tol.floor", "--floor", ["1e-8", "0"], ["1e-10", "0"], float),
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
    want["points_set"] = drawn["points"][0] != "default"
    want["volume_set"] = drawn["volume_spec"][0] != "default"
    path = tmp_path / "run.cfg"
    path.write_text("".join(line + "\n" for line in lines))
    assert vars(parse_config(path, cli.build_parser().parse_args(argv))) == want


# config key -> a text its parser refuses
_BAD_TEXTS = {
    "metric.family": "klein", "metric.dim": "three", "metric.<name>": "[oops",
    "volume.kind": "lebesgue", "volume.nodes": "many", "points.count": "many",
    "points.seed": "1.5", "points.box": "everywhere", "degree": "high", "tol.jet": "nan",
    "tol.quad": "loose", "tol.floor": "-1", "format": "xml",
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
_EVAL_FLAGS = {"--config", "--metric", "--dim", "--param", "--volume", "--bh-nodes",
               "--points", "--seed", "--box", "--degree", "--format"}
_TOL_FLAGS = {"--tol-jet", "--tol-quad", "--floor"}
_FLAGS = {
    "list": {"--config", "--format"},
    "eval": _EVAL_FLAGS,
    "verify": _EVAL_FLAGS | _TOL_FLAGS | {"--checks", "--per-point"},
    "theorem": {"--config", "--volume", "--bh-nodes", "--points", "--seed", "--degree",
                "--format", "--per-point"} | _TOL_FLAGS,
}


def test_each_subcommand_offers_only_the_flags_it_reads():
    sub, = (action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    offered = {command: {flag for action in parser._actions for flag in action.option_strings}
               - {"-h", "--help"} for command, parser in sub.choices.items()}
    assert offered == _FLAGS
    assert sum(map(len, offered.values())) == 40


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ("theorem", "thm12", "--metric", "randers"),
    ("theorem", "thm12", "--dim", "2", "--box", "ball:9"),
    ("list", "--points", "1"),
    ("eval", "--tol-jet", "1e-3"),
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
                           "--volume", "coordinate", "--points", "10", "--seed", "7")
    assert code == 0
    records = json_records(out)
    assert records[0]["record"] == "run"
    assert records[-1] == {"record": "summary", "pass": True, "checks": 43,
                           "failures": []}
    for rec in records:
        if rec["record"] == "check" and rec["points"]:
            assert rec["residual"] <= 1e-11


def test_verify_exit_one_on_failed_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "randers", "--points", "2",
                           "--tol-jet", "1e-30", "--floor", "1e-30")
    assert code == 1
    summary = json_records(out)[-1]
    assert summary["pass"] is False and summary["failures"]


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


def test_verify_csv_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "euclidean",
                           "--points", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli.VERIFY_COLUMNS
    assert len(rows) == 44


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
    code, out, _ = run_cli(capsys, "theorem", name, "--volume", "bh", "--bh-nodes", "16",
                           "--points", "1")
    assert code == 0
    assert json_records(out)[0]["volume"].startswith("busemann-hausdorff(16)")


def test_theorem_gate_failure_exits_one(capsys):
    code, out, _ = run_cli(capsys, "theorem", "ex45", "--points", "2",
                           "--bh-nodes", "16")
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


def test_invalid_randers_names_invariant(capsys):
    code, _, err = run_cli(capsys, "verify", "--metric", "randers", "--dim", "3",
                           "--param", "preset=constant", "--param", "b=[1.2,0,0]")
    assert code == 2
    assert "|b|_a < 1" in err


def test_unknown_subcommand_exits_two(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert err


def test_bad_flag_values_exit_two(capsys):
    assert run_cli(capsys, "verify", "--box", "everywhere")[0] == 2
    assert run_cli(capsys, "verify", "--box", "cube:-1")[0] == 2
    assert run_cli(capsys, "verify", "--param", "oops")[0] == 2
    assert run_cli(capsys, "verify", "--volume", "lebesgue")[0] == 2


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
    (("eval", "--degree", "11"), "degree"),
    (("eval", "--dim", "7"), "variables"),
])
def test_ring_limits_exit_two(capsys, argv, limit):
    code, _, err = run_cli(capsys, *argv, "--points", "1")
    assert code == 2
    assert limit in err and len(err.splitlines()) == 1


def test_oversized_ring_exits_two_before_it_is_built(capsys, monkeypatch):
    # a lowered budget and a fresh ring cache, so the refused ring is one no
    # other test has cached: ring(4, 9) has C(2*4 + 9, 9) = 24,310 pairs
    monkeypatch.setattr(jets, "MAX_MUL_PAIRS", 24_309)
    monkeypatch.setattr(jets, "ring", functools.lru_cache(maxsize=None)(jets.PolyRing))
    code, out, err = run_cli(capsys, "eval", "--metric", "euclidean", "--dim", "2",
                             "--degree", "9", "--points", "1")
    assert code == 2 and out == ""
    assert err == ("error: jet ring(4, 9) needs 24,310 multiply pairs, more than the "
                   "budget of 24,309; lower the degree or the dimension\n")


_DRAWN_FLAGS = {
    "--metric": ["euclidean", "round-sphere", "randers", "klein"],
    "--dim": ["2", "3", "7"],
    "--degree": ["0", "3", "7", "11"],
    "--volume": ["coordinate", "bh", "explicit:x1", "lebesgue"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["list", "eval", "verify", "theorem"]))
    if command == "theorem":
        argv = [command, draw(st.sampled_from(theorem_names())),
                "--points", "1", "--bh-nodes", "8"]
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


def test_zero_threshold_is_not_a_crash(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "euclidean", "--points", "1",
                           "--tol-jet", "0", "--floor", "0")
    assert code == 0
    assert json_records(out)[-1]["pass"]


@pytest.mark.parametrize("argv", [
    ("verify", "--tol-jet", "-1", "--floor", "-1"),
    ("verify", "--tol-jet", "nan"),
    ("verify", "--tol-quad", "-0.5"),
    ("verify", "--floor", "inf"),
])
def test_bad_tolerances_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--metric", "euclidean", "--points", "1")
    assert code == 2 and out == ""
    assert "tolerance" in err


@pytest.mark.parametrize("line", ["tol.jet = -1e-7", "tol.quad = nan", "tol.floor = inf"])
def test_bad_tolerance_keys_exit_two(capsys, tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    code, out, err = run_cli(capsys, "theorem", "cor33", "--points", "1", "--config", str(path))
    assert code == 2 and out == ""
    assert "tolerance" in err


def test_eval_bad_tolerance_key_exits_two(capsys, tmp_path):
    # eval offers no tolerance flag, but the file keys are shared and checked
    path = tmp_path / "run.cfg"
    path.write_text("tol.jet = nan\n")
    code, out, err = run_cli(capsys, "eval", "--metric", "euclidean", "--points", "1",
                             "--config", str(path))
    assert code == 2 and out == ""
    assert "tolerance" in err


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
    # two gate points plus one base point shared by three directions
    (("theorem", "ex45", "--points", "2"), 3),
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
    # a randers point needs the 16- and 32-node rules (256 + 1,024
    # directions); a fixed 64-node rule would take 4,096
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


@pytest.mark.parametrize("argv, nodes, one_rule", [
    (("--volume", "bh"), 32, False),
    (("--volume", "bh", "--bh-nodes", "16"), 16, True),
])
def test_verify_run_record_reports_the_bh_rule(capsys, argv, nodes, one_rule):
    code, out, _ = run_cli(capsys, "verify", "--metric", "randers", "--points", "2", *argv)
    run = json_records(out)[0]
    assert code == 0 and run["bh_nodes"] == nodes
    if one_rule:
        assert run["bh_change"] is None
    else:
        assert 0.0 < run["bh_change"] <= 1e-5


def test_run_record_without_quadrature_has_no_bh_fields(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "randers", "--points", "1",
                           "--volume", "explicit:exp(x1)")
    assert code == 0
    assert list(json_records(out)[0]) == ["record", "subcommand", "metric", "volume", "seed",
                                          "degree", "tol_jet", "tol_quad", "floor"]


@pytest.mark.parametrize("volume", [
    ("--volume", "explicit:1+"),
    ("--volume", "explicit:exp(x7)"),
    ("--volume", "bh", "--bh-nodes", "4"),
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


def test_constant_explicit_density_is_the_coordinate_volume(capsys):
    argv = ("eval", "--metric", "randers", "--points", "2", "--seed", "1")
    code, constant, _ = run_cli(capsys, *argv, "--volume", "explicit:2")
    assert code == 0
    assert constant == run_cli(capsys, *argv, "--volume", "coordinate")[1]


@pytest.mark.parametrize("sigma", ["0", "-1"])
def test_nonpositive_constant_density(capsys, sigma):
    code, out, err = run_cli(capsys, "eval", "--metric", "randers", "--points", "2",
                             "--volume", f"explicit:{sigma}")
    assert code == 2 and out == ""
    assert "log requires a positive constant term" in err
    # verify fails the measure checks, as for a density that is negative somewhere
    failed = []
    for volume in (f"explicit:{sigma}", "explicit:x1-5"):
        code, out, err = run_cli(capsys, "verify", "--metric", "randers", "--points", "2",
                                 "--volume", volume)
        assert code == 1 and err == ""
        failed.append([r["check"] for r in json_records(out)
                       if r["record"] == "check" and not r["pass"]])
    assert failed[0] and failed[0] == failed[1]


def test_oversized_bh_rule_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--metric", "funk", "--dim", "4",
                             "--volume", "bh", "--bh-nodes", "1024", "--points", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "1024^3 directions" in err


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(spraylab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spraylab", "theorem", "nope"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "unknown theorem" in proc.stderr


def test_missing_config_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--config", "/no/such/file.cfg")
    assert code == 2
    assert "config" in err


def test_main_entry_raises_system_exit(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["spraylab", "list"])
    with pytest.raises(SystemExit) as info:
        cli.main_entry()
    assert info.value.code == 0
