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
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

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


# -- config parsing --------------------------------------------------------------


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {value!r}") from None


def _parse_float(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} expects a number, got {value!r}") from None


def _parse_box(key: str, value: str) -> tuple[str, float]:
    kind, sep, size = value.partition(":")
    if not sep:
        raise ConfigError(f"{key} expects kind:size, for example cube:0.5")
    return (kind.strip(), _parse_float(key, size))


def _set_volume(cfg: RunConfig, key: str, value: str):
    split_volume(key, value)  # reject a bad spec where it was given
    cfg.volume_spec = value
    cfg.volume_set = True


def _parse_format(key: str, value: str) -> str:
    if value not in _FORMATS:
        raise ConfigError(f"{key} expects json-lines or csv, got {value!r}")
    return value


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


def _apply_pair(cfg: RunConfig, key: str, value: str):
    if key == "metric.family":
        cfg.metric_family = value
    elif key == "metric.dim":
        cfg.metric_dim = _parse_int(key, value)
    elif key.startswith("metric."):
        cfg.metric_params[key[len("metric."):]] = _literal(value)
    elif key == "volume.kind":
        _set_volume(cfg, key, value)
    elif key == "volume.nodes":
        cfg.volume_nodes = _parse_int(key, value)
    elif key == "points.count":
        cfg.points = _parse_int(key, value)
        cfg.points_set = True
    elif key == "points.seed":
        cfg.seed = _parse_int(key, value)
    elif key == "points.box":
        cfg.box = _parse_box(key, value)
    elif key == "degree":
        cfg.degree = _parse_int(key, value)
    elif key == "tol.jet":
        cfg.tol_jet = _parse_float(key, value)
    elif key == "tol.quad":
        cfg.tol_quad = _parse_float(key, value)
    elif key == "tol.floor":
        cfg.floor = _parse_float(key, value)
    elif key == "format":
        cfg.fmt = _parse_format(key, value)
    else:
        raise ConfigError(f"unknown config key {key!r}")


def _read_pairs(path) -> list[tuple[str, str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        pairs.append((key.strip(), value.strip()))
    return pairs


def _apply_flags(cfg: RunConfig, args: argparse.Namespace):
    if args.metric is not None:
        cfg.metric_family = args.metric
    if args.dim is not None:
        cfg.metric_dim = args.dim
    for entry in args.param or []:
        key, sep, value = entry.partition("=")
        if not sep:
            raise ConfigError(f"--param expects key=value, got {entry!r}")
        cfg.metric_params[key.strip()] = _literal(value)
    if args.volume is not None:
        _set_volume(cfg, "--volume", args.volume)
    if args.bh_nodes is not None:
        cfg.volume_nodes = args.bh_nodes
    if args.points is not None:
        cfg.points = args.points
        cfg.points_set = True
    if args.seed is not None:
        cfg.seed = args.seed
    if args.box is not None:
        cfg.box = _parse_box("--box", args.box)
    if args.degree is not None:
        cfg.degree = args.degree
    if args.tol_jet is not None:
        cfg.tol_jet = args.tol_jet
    if args.tol_quad is not None:
        cfg.tol_quad = args.tol_quad
    if args.floor is not None:
        cfg.floor = args.floor
    if args.format is not None:
        cfg.fmt = _parse_format("--format", args.format)


def parse_config(path=None, args: argparse.Namespace | None = None) -> RunConfig:
    """Layer defaults, then the config file, then command-line flags."""
    cfg = RunConfig()
    if path is not None:
        for key, value in _read_pairs(path):
            _apply_pair(cfg, key, value)
    if args is not None:
        _apply_flags(cfg, args)
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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    if isinstance(value, str):
        return value
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


def _report_records(subcommand: str, report, per_point: bool = False) -> list[dict]:
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
    return records


def _cmd_list(args) -> tuple[str, int]:
    cfg = parse_config(args.config, args)
    records = []
    for name in catalog.family_names():
        info = catalog.family_summary(name)
        records.append({
            "record": "family",
            "name": name,
            "default_dim": info["default_dim"],
            "summary": info["summary"],
        })
    for name in theorem_names():
        records.append({
            "record": "theorem",
            "name": name,
            "default_dim": None,
            "summary": theorem_summary(name),
        })
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
    records = _report_records("verify", report, per_point=args.per_point)
    csv_rows = [r for r in records if r["record"] == "check"]
    text = _render(records, VERIFY_COLUMNS, cfg.fmt, csv_records=csv_rows)
    return text, 0 if report.passed else 1


def _cmd_theorem(args) -> tuple[str, int]:
    cfg = parse_config(args.config, args)
    report = theorem_check(
        args.name,
        points=cfg.points if cfg.points_set else None,
        seed=cfg.seed,
        degree=cfg.degree,
        nodes=cfg.volume_nodes,
        volume=cfg.volume() if cfg.volume_set else None,
        tolerances=cfg.tolerances(),
    )
    records = _report_records("theorem", report, per_point=args.per_point)
    csv_rows = [r for r in records if r["record"] == "check"]
    text = _render(records, VERIFY_COLUMNS, cfg.fmt, csv_records=csv_rows)
    return text, 0 if report.passed else 1


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
    if cfg.fmt == "csv":
        flat = []
        for rec in records:
            row = dict(rec)
            for route in WEYL_ROUTES:
                row[f"W.{route}"] = rec["W"][route]
            for route in WO_ROUTES:
                row[f"Wo.{route}"] = rec["Wo"][route]
            flat.append(row)
        return _render(records, EVAL_COLUMNS, "csv", csv_records=flat), 0
    return _render(records, EVAL_COLUMNS, "json-lines"), 0


# -- argument parsing ---------------------------------------------------------------


def _common_options(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value config file with dotted keys")
    parser.add_argument("--metric", metavar="FAMILY",
                        help="catalog family name (default euclidean)")
    parser.add_argument("--dim", type=int, help="dimension override")
    parser.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="family parameter (repeatable)")
    parser.add_argument("--volume", metavar="SPEC",
                        help="coordinate | busemann-hausdorff | explicit:<expr>")
    parser.add_argument("--bh-nodes", type=int, metavar="N",
                        help="largest rule per angle for the BH density (default 64)")
    parser.add_argument("--points", type=int, help="sample count (default 20)")
    parser.add_argument("--seed", type=int, help="sampler seed (default 0)")
    parser.add_argument("--box", metavar="KIND:SIZE",
                        help="sampling box, for example cube:0.5 or ball:0.6")
    parser.add_argument("--degree", type=int,
                        help=f"jet truncation degree (default {DEFAULT_DEGREE})")
    parser.add_argument("--tol-jet", type=float, help="jet-tier tolerance (1e-7)")
    parser.add_argument("--tol-quad", type=float,
                        help="quadrature-tier tolerance (1e-4)")
    parser.add_argument("--floor", type=float, help="absolute floor (1e-9)")
    parser.add_argument("--format", choices=_FORMATS, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spraylab",
        description="curvature reports and identity verification for sprays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print catalog families and theorems")
    _common_options(p_list)
    p_list.set_defaults(handler=_cmd_list)

    p_eval = sub.add_parser("eval", help="per-point curvature report")
    _common_options(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    _common_options(p_verify)
    p_verify.add_argument("--checks", metavar="A,B,...",
                          help="comma-separated subset of registered checks")
    p_verify.add_argument("--per-point", action="store_true",
                          help="also emit one record per point and check")
    p_verify.set_defaults(handler=_cmd_verify)

    p_theorem = sub.add_parser("theorem", help="run one named conclusion")
    p_theorem.add_argument("name", help="fixture name; see the list subcommand")
    _common_options(p_theorem)
    p_theorem.add_argument("--per-point", action="store_true",
                           help="also emit one record per point and check")
    p_theorem.set_defaults(handler=_cmd_theorem)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
