"""Command-line driver: catalog listing, curvature reports, verification runs.

Configuration comes from an optional flat key = value file with dotted
keys plus command-line flags; flags override file values.  Reports go to
standard output as json-lines (default) or csv with a fixed column
order, all floats printed with 17 significant digits, no timestamps, so
identical configurations produce byte-identical reports.  Exit status is
0 when every check passes, 1 when any check fails, and 2 on
configuration errors, which are described on the error stream.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import catalog
from .catalog import MetricSpec
from .errors import ConfigError, SprayLabError
from .geometry import DEFAULT_DEGREE
from .measures import VolumeForm, as_volume, split_volume
from .projective import WEYL_ROUTES, WO_ROUTES, PointContext
from .verify import (Tolerances, identity_suite, theorem_check, theorem_names,
                     theorem_summary)

_FORMATS = ("json-lines", "csv")

VERIFY_COLUMNS = [
    "record", "check", "points", "residual", "scale", "tolerance", "floor",
    "pass", "worst_x", "worst_y",
]
EVAL_COLUMNS = [
    "record", "index", "x", "y", "F", "G", "N", "Gamma", "B", "Rik", "Ric",
    "R", "T", "S", "tau", "chi", "Ghat",
    "W.viaHat", "W.viaChi",
    "Wo.definition", "Wo.viaBase", "Wo.divW", "Wo.divR",
]
LIST_COLUMNS = ["record", "name", "default_dim", "summary"]


@dataclass
class RunConfig:
    """Effective settings for one run, after file and flag layering."""

    metric_family: str = "euclidean"
    metric_dim: int | None = None
    metric_params: dict = field(default_factory=dict)
    volume_spec: str = "coordinate"
    volume_nodes: int = 64
    points: int = 20
    seed: int = 0
    box: tuple[str, float] | None = None
    degree: int = DEFAULT_DEGREE
    tol_jet: float = 1e-7
    tol_quad: float = 1e-4
    floor: float = 1e-9
    fmt: str = "json-lines"
    # whether points/volume were given explicitly (theorem fixtures keep
    # their own defaults otherwise)
    points_set: bool = False
    volume_set: bool = False

    def metric_spec(self) -> MetricSpec:
        return MetricSpec(self.metric_family, self.metric_dim, dict(self.metric_params))

    def volume(self) -> VolumeForm:
        return as_volume(self.volume_spec, self.volume_nodes)

    def tolerances(self) -> Tolerances:
        return Tolerances(jet=self.tol_jet, quad=self.tol_quad, floor=self.floor)


# -- settings -------------------------------------------------------------------


def _parse_text(name: str, text: str) -> str:
    return text


def _parse_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} expects an integer, got {text!r}") from None


def _parse_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{name} expects a number, got {text!r}") from None


def _parse_box(name: str, text: str) -> tuple[str, float]:
    kind, sep, size = text.partition(":")
    if not sep:
        raise ConfigError(f"{name} expects kind:size, for example cube:0.5")
    return (kind.strip(), _parse_float(name, size))


def _parse_volume(name: str, text: str) -> str:
    split_volume(name, text)  # reject a bad spec where it was given
    return text


def _parse_format(name: str, text: str) -> str:
    if text not in _FORMATS:
        raise ConfigError(f"{name} expects json-lines or csv, got {text!r}")
    return text


def _literal(value: str):
    """Family parameter literal: bool, int, float, json array, or string."""
    text = value.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if text[:1] in "[{":
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise ConfigError(f"bad structured parameter {value!r}") from None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_param(name: str, text: str) -> tuple[str, object]:
    key, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"{name} expects key=value, got {text!r}")
    return key.strip(), _literal(value)


class _Setting(NamedTuple):
    flag: str
    field: str  # of RunConfig
    parse: Callable[[str, str], object]  # (key or flag, text) -> value
    commands: tuple[str, ...]  # the subcommands that read it
    metavar: str
    help: str


_ALL = ("list", "eval", "verify", "theorem")
_RUNS = ("eval", "verify", "theorem")
_SAMPLED = ("eval", "verify")  # a theorem's fixtures fix their metrics and boxes
_CHECKED = ("verify", "theorem")  # eval compares nothing against a tolerance
_PARAM = "metric.<name>"

# config-file key -> setting.  Every file key is accepted by every subcommand;
# a subcommand offers only the flags it reads.
_SETTINGS = {
    "metric.family": _Setting("--metric", "metric_family", _parse_text, _SAMPLED, "FAMILY",
                              "catalog family name (default euclidean)"),
    "metric.dim": _Setting("--dim", "metric_dim", _parse_int, _SAMPLED, "N",
                           "dimension override"),
    _PARAM: _Setting("--param", "metric_params", _parse_param, _SAMPLED, "KEY=VALUE",
                     "family parameter (repeatable)"),
    "volume.kind": _Setting("--volume", "volume_spec", _parse_volume, _RUNS, "SPEC",
                            "coordinate | busemann-hausdorff | explicit:<expr>"),
    "volume.nodes": _Setting("--bh-nodes", "volume_nodes", _parse_int, _RUNS, "N",
                             "largest rule per angle for the BH density (default 64)"),
    "points.count": _Setting("--points", "points", _parse_int, _RUNS, "N",
                             "sample count (default 20)"),
    "points.seed": _Setting("--seed", "seed", _parse_int, _RUNS, "N",
                            "sampler seed (default 0)"),
    "points.box": _Setting("--box", "box", _parse_box, _SAMPLED, "KIND:SIZE",
                           "sampling box, for example cube:0.5 or ball:0.6"),
    "degree": _Setting("--degree", "degree", _parse_int, _RUNS, "N",
                       f"jet truncation degree (default {DEFAULT_DEGREE})"),
    "tol.jet": _Setting("--tol-jet", "tol_jet", _parse_float, _CHECKED, "X",
                        "jet-tier tolerance (1e-7)"),
    "tol.quad": _Setting("--tol-quad", "tol_quad", _parse_float, _CHECKED, "X",
                         "quadrature-tier tolerance (1e-4)"),
    "tol.floor": _Setting("--floor", "floor", _parse_float, _CHECKED, "X",
                          "absolute floor (1e-9)"),
    "format": _Setting("--format", "fmt", _parse_format, _ALL, "FORMAT",
                       "output format: json-lines (default) or csv"),
}


def _apply(cfg: RunConfig, key: str, name: str, text: str):
    """Parse ``text`` for the setting ``key`` into ``cfg``; errors name ``name``."""
    setting = _SETTINGS[key]
    value = setting.parse(name, text)
    if key == _PARAM:
        cfg.metric_params.update([value])
    else:
        setattr(cfg, setting.field, value)
    cfg.points_set |= key == "points.count"
    cfg.volume_set |= key == "volume.kind"


def parse_config(path=None, args: argparse.Namespace | None = None) -> RunConfig:
    """Layer defaults, then the config file, then command-line flags.

    A file value and a flag value of one setting go through the same parser,
    so a bad text gets the same error, naming the key or the flag.
    """
    cfg = RunConfig()
    try:
        lines = [] if path is None else Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        name, sep, text = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if name in _SETTINGS:
            _apply(cfg, name, name, text)
        elif name.startswith("metric."):
            _apply(cfg, _PARAM, name, f"{name[len('metric.'):]}={text}")
        else:
            raise ConfigError(f"unknown config key {name!r}")
    flags = {} if args is None else vars(args)
    for key, setting in _SETTINGS.items():
        for text in flags.get(key) or ():
            _apply(cfg, key, setting.flag, text)
    # bad tolerances are configuration errors for every subcommand, not
    # only for those that compare against them
    cfg.tolerances()
    return cfg


# -- serialization ----------------------------------------------------------------


def _float_text(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return f'"{_float_text(v)}"'
        return _float_text(v)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _json(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{json.dumps(str(k))}:{_json(v)}" for k, v in value.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    return _json(value)


def _render(records: list[dict], columns: list[str], fmt: str,
            csv_records=None) -> str:
    if fmt == "json-lines":
        return "".join(_json(rec) + "\n" for rec in records)
    rows = records if csv_records is None else csv_records
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in rows:
        writer.writerow([_cell(rec.get(col)) for col in columns])
    return buf.getvalue()


# -- subcommands ------------------------------------------------------------------


def _report_output(subcommand: str, report, fmt: str, per_point: bool) -> tuple[str, int]:
    """Render a suite report; exit 1 when any check failed."""
    records = [{
        "record": "run",
        "subcommand": subcommand,
        "metric": report.metric,
        "volume": report.volume,
        "seed": report.seed,
        "degree": report.degree,
        "tol_jet": report.tolerances.jet,
        "tol_quad": report.tolerances.quad,
        "floor": report.tolerances.floor,
        **(report.quadrature or {}),
    }]
    for agg in report.checks:
        records.append({
            "record": "check",
            "check": agg.check,
            "points": agg.points,
            "residual": agg.max_residual,
            "scale": agg.scale,
            "tolerance": agg.tolerance,
            "floor": agg.floor,
            "pass": agg.passed,
            "worst_x": list(agg.worst_point.x) if agg.worst_point else None,
            "worst_y": list(agg.worst_point.y) if agg.worst_point else None,
        })
    if per_point:
        for r in report.results:
            records.append({
                "record": "result",
                "check": r.check,
                "x": list(r.point.x),
                "y": list(r.point.y),
                "residual": r.residual,
                "scale": r.scale,
                "tolerance": r.tolerance,
                "pass": r.passed,
            })
    records.append({
        "record": "summary",
        "pass": report.passed,
        "checks": len(report.checks),
        "failures": [agg.check for agg in report.failures()],
    })
    csv_rows = [r for r in records if r["record"] == "check"]
    text = _render(records, VERIFY_COLUMNS, fmt, csv_records=csv_rows)
    return text, 0 if report.passed else 1


def _cmd_list(args) -> tuple[str, int]:
    cfg = parse_config(args.config, args)
    families = [catalog.family_summary(name) for name in catalog.family_names()]
    records = [{"record": "family", "name": info["family"], "default_dim": info["default_dim"],
                "summary": info["summary"]} for info in families]
    records += [{"record": "theorem", "name": name, "default_dim": None,
                 "summary": theorem_summary(name)} for name in theorem_names()]
    return _render(records, LIST_COLUMNS, cfg.fmt), 0


def _cmd_verify(args) -> tuple[str, int]:
    cfg = parse_config(args.config, args)
    checks = None
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",")]
        if "" in checks:
            raise ConfigError(f"--checks list has an empty entry: {args.checks!r}")
    report = identity_suite(
        cfg.metric_spec(), cfg.volume(), points=cfg.points,
        tolerances=cfg.tolerances(), seed=cfg.seed, degree=cfg.degree,
        box=cfg.box, checks=checks,
    )
    return _report_output("verify", report, cfg.fmt, args.per_point)


def _cmd_theorem(args) -> tuple[str, int]:
    cfg = parse_config(args.config, args)
    report = theorem_check(args.name, points=cfg.points if cfg.points_set else None,
                           seed=cfg.seed, degree=cfg.degree, nodes=cfg.volume_nodes,
                           volume=cfg.volume() if cfg.volume_set else None,
                           tolerances=cfg.tolerances())
    return _report_output("theorem", report, cfg.fmt, args.per_point)


def _eval_point(obj, volume, point, degree, index) -> dict:
    ctx = PointContext(obj, volume, point, degree)
    st, ms, ps = ctx.stack, ctx.measure, ctx.proj
    # F is a plain float read: a spray that is not a metric's own builds no frame
    fsq = None if ctx.metric is None else ctx.metric.fsq(list(point.x), list(point.y))
    wo = {route: None if route == "divW" and point.dim < 3 else ps.wo_values(route)
          for route in WO_ROUTES}
    return {
        "record": "eval",
        "index": index,
        "x": list(point.x),
        "y": list(point.y),
        "F": None if fsq is None else math.sqrt(fsq),
        "G": st.G.value(),
        "N": st.N_values,
        "Gamma": st.Gamma_values,
        "B": st.B_values,
        "Rik": st.Rik_values,
        "Ric": st.Ric.value(),
        "R": st.Rscalar.value(),
        "T": st.T_values,
        "S": ms.S.value(),
        "tau": ms.tau.value(),
        "chi": ms.chi_values("fromR"),
        "Ghat": ps.Ghat.value(),
        "W": {route: ps.weyl_values(route) for route in WEYL_ROUTES},
        "Wo": wo,
    }


def _cmd_eval(args) -> tuple[str, int]:
    cfg = parse_config(args.config, args)
    obj = catalog.build(cfg.metric_spec())
    volume = cfg.volume()
    points = catalog.sample(obj, count=cfg.points, seed=cfg.seed, box=cfg.box)
    records = [_eval_point(obj, volume, point, cfg.degree, idx)
               for idx, point in enumerate(points)]
    # csv has one column per route
    rows = [{**rec, **{f"{kind}.{route}": value for kind in ("W", "Wo")
                       for route, value in rec[kind].items()}} for rec in records]
    return _render(records, EVAL_COLUMNS, cfg.fmt, csv_records=rows), 0


# -- argument parsing ---------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: do not modify it.

    Flags are plain strings, parsed by ``parse_config`` like file values.
    """
    parser = argparse.ArgumentParser(
        prog="spraylab",
        description="curvature reports and identity verification for sprays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "list": ("print catalog families and theorems", _cmd_list),
        "eval": ("per-point curvature report", _cmd_eval),
        "verify": ("run the identity suite", _cmd_verify),
        "theorem": ("run one named conclusion", _cmd_theorem),
    }
    for command, (summary, handler) in commands.items():
        p = sub.add_parser(command, help=summary)
        if command == "theorem":
            p.add_argument("name", help="fixture name; see the list subcommand")
        p.add_argument("--config", metavar="PATH",
                       help="flat key = value config file with dotted keys")
        for key, setting in _SETTINGS.items():
            if command in setting.commands:
                p.add_argument(setting.flag, dest=key, action="append",
                               metavar=setting.metavar, help=f"{setting.help} [{key}]")
        if command == "verify":
            p.add_argument("--checks", metavar="A,B,...",
                           help="comma-separated subset of registered checks")
        if command in _CHECKED:
            p.add_argument("--per-point", action="store_true",
                           help="also emit one record per point and check")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, code = args.handler(args)
    except SprayLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(text)
    return code


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
