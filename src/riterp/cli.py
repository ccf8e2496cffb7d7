"""Command-line interface.

Subcommands cover single stages (convert, degrade, interp, reconstruct,
score, synth) and whole experiments (pipeline, sweep). Every flag that
sets a pipeline knob is generated from a PipelineConfig field: it is
spelled --<field-name-with-dashes> (policy_order is --policy) and takes
its type and default from the field, so PipelineConfig is the one place
a default is written. pipeline and sweep have a flag for every field but
inputs (a key=value config file can supply any, the command line wins)
and alone build a PipelineConfig; sweep takes one or more values for
method, policy and grad_threshold and runs their grid, pipeline is the
sweep of one cell, and both write per-cell artifacts unless --no-artifacts.
interp and score hand their flags to upscale_ri and score_ris, which
check what they read, so a chain of stage commands reports the numbers
a pipeline row does.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

from .gradient import ASCENDING, DESCENDING, check_gradient_factors
from .lossy import downsampled_geometry
from .metrics import chamfer
from .pipeline import (
    METHODS,
    REPORT_FORMATS,
    PipelineConfig,
    degrade_ri,
    interp_mask,
    load_scan,
    point_colors,
    run_pipeline,
    score_ris,
    sweep,
    upscale_ri,
    write_report,
)
from .pointcloud import read_ply, write_kitti_bin, write_ply
from .projection import RiGeometry, cloud_to_ri, load_ri, save_ri, write_pgm
from .synth import synth_scene

_DEFAULTS = PipelineConfig()
_TYPES = get_type_hints(PipelineConfig)
_CHOICES = {"method": METHODS, "policy_order": (ASCENDING, DESCENDING), "report_format": REPORT_FORMATS}
#: the fields sweep takes one or more values of, and runs the grid over
_SWEPT = ("method", "policy_order", "grad_threshold")
#: the values a config file may give an on/off flag, in any case
_ON_OFF = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_GEOMETRY = [f.name for f in fields(RiGeometry)]
_FACTORS = ["factor_x", "factor_y"]
#: --policy's short names for the canonical ones
_POLICY_SHORT = {"asc": ASCENDING, "desc": DESCENDING}


def _add_config_flags(p: argparse.ArgumentParser, names: list[str], sweep_mode: bool = False,
                      **choices) -> None:
    """One flag per named PipelineConfig field, taking the field's type
    and default; choices narrows a field's allowed values. In sweep mode
    the _SWEPT fields take one or more values."""
    for name in names:
        # the annotation's type, int for int | None
        kind = next(t for t in get_args(_TYPES[name]) or [_TYPES[name]] if t is not type(None))
        flag, about = "--" + name.replace("_", "-"), None
        if name == "policy_order":
            flag, kind, about = "--policy", lambda s: _POLICY_SHORT.get(s, s), "asc and desc for short"
        options = {"action": "store_true"} if kind is bool else {
            "type": kind, "choices": {**_CHOICES, **choices}.get(name),
            "nargs": "+" if sweep_mode and name in _SWEPT else None}
        p.add_argument(flag, dest=name, default=getattr(_DEFAULTS, name), help=about, **options)


def _config_keys(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The config-file keys the parser's flags define: each flag's dest and
    each of its spellings, with '-' read as '_'."""
    keys = {}
    for action in parser._actions:
        if action.option_strings and action.dest not in ("help", "config"):
            for name in [action.dest, *(opt.lstrip("-") for opt in action.option_strings)]:
                keys[name.replace("-", "_")] = action
    return keys


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Load key=value defaults from --config before parsing (CLI wins).
    Raises ValueError naming the file and the key on a key no flag
    defines or a value the flag would reject."""
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    if path is None:
        return
    keys = _config_keys(parser)
    defaults = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = keys.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if action.nargs == 0:  # on/off flag
            if value.lower() not in _ON_OFF:
                raise ValueError(f"{path}: {key} must be one of {sorted(_ON_OFF)}, got {value!r}")
            defaults[action.dest] = _ON_OFF[value.lower()]
            continue
        try:
            value = (action.type or str)(value)
        except ValueError:
            raise ValueError(f"{path}: {key} = {value!r} is not a valid {action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{path}: {key} must be one of {sorted(action.choices)}, got {value!r}")
        defaults[action.dest] = value
    parser.set_defaults(**defaults)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The PipelineConfig of pipeline's or sweep's flags; a swept flag gives its first value."""
    values = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    values.update({name: values[name][0] for name in _SWEPT if isinstance(values[name], list)})
    return PipelineConfig(**values)


def _cmd_synth(args) -> int:
    out = Path(args.output)
    writer = {".bin": write_kitti_bin, ".ply": write_ply}.get(out.suffix.lower())
    if writer is None:
        raise ValueError(f"{out}: unsupported output format {out.suffix!r}; expected .bin or .ply")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    cloud = synth_scene(args.seed)
    writer(cloud, out)
    print(f"wrote {out} ({len(cloud)} points)")
    return 0


def _cmd_convert(args) -> int:
    dst = Path(args.output)
    suffix = dst.suffix.lower()
    writers = {".ply": write_ply, ".bin": write_kitti_bin, ".npz": save_ri, ".pgm": write_pgm}
    if suffix not in writers:
        raise SystemExit(f"error: unsupported output format {dst.suffix!r}")
    data = load_scan(args.input)
    if suffix in (".npz", ".pgm"):  # range image outputs
        data = cloud_to_ri(data, RiGeometry(**{name: getattr(args, name) for name in _GEOMETRY}))
    writers[suffix](data, dst)
    print(f"wrote {dst}")
    return 0


def _write_ri(out, args) -> int:
    """degrade's and interp's output: the RI, and with --pgm its view,
    named from the archive written, with .pgm for its suffix."""
    written = save_ri(out, args.output)
    print(f"wrote {written}")
    if args.pgm:
        view = written.with_suffix(".pgm")
        write_pgm(out, view)
        print(f"wrote {view}")
    return 0


def _cmd_degrade(args) -> int:
    return _write_ri(degrade_ri(load_ri(args.input), args.factor_x, args.factor_y, args.bits), args)


def _cmd_interp(args) -> int:
    return _write_ri(upscale_ri(load_ri(args.input), args), args)  # flags named as config fields


def _cmd_reconstruct(args) -> int:
    ri = load_ri(args.input)
    cloud = ri.cloud
    color = None
    if args.mark_interp:
        color = point_colors(len(cloud), interp_mask(ri, args.factor_x, args.factor_y))
    write_ply(cloud, args.output, color=color)
    print(f"wrote {args.output} ({len(cloud)} points)")
    return 0


def _cmd_score(args) -> int:
    for kind in ("ri", "cloud"):
        ref, test = getattr(args, f"ref_{kind}"), getattr(args, f"test_{kind}")
        if bool(ref) != bool(test):
            given, missing = ("ref", "test") if ref else ("test", "ref")
            raise ValueError(f"--{missing}-{kind} is required with --{given}-{kind}")
    if args.ref_ri and args.ref_cloud:
        raise ValueError("give --ref-ri/--test-ri or --ref-cloud/--test-cloud, not both")
    if args.ref_ri:
        ref, test = load_ri(args.ref_ri), load_ri(args.test_ri)
        if args.method == "gradient":
            check_gradient_factors(args.factor_x, args.factor_y)
        degraded = downsampled_geometry(ref.geometry, args.factor_x, args.factor_y)
        made, t = (degraded if args.method == "none" else ref.geometry), test.geometry
        if t != made:
            raise ValueError(f"--test-ri is {t.width}x{t.height}, but --method {args.method} makes "
                             f"{made.width}x{made.height} from --ref-ri, with its FOV and depth clamp")
        mask = None if args.method == "none" else interp_mask(test, args.factor_x, args.factor_y)
        report = score_ris(test, ref, mask, args.delta)
    elif args.ref_cloud:
        report = {"chamfer": chamfer(read_ply(args.test_cloud), read_ply(args.ref_cloud))}
    else:
        raise SystemExit("error: need --ref-ri/--test-ri or --ref-cloud/--test-cloud")
    print(json.dumps(report, indent=2))
    return 0


def _cmd_pipeline(args) -> int:
    config = _config_from_args(args)
    try:
        reports = run_pipeline(config)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for report in reports:
        line = {k: report[k] for k in ("input", "method", "ssim", "noise_ratio", "chamfer")}
        print(json.dumps(line))
    print(f"report: {Path(config.out_dir) / ('report.' + config.report_format)}")
    return 0


def _cmd_sweep(args) -> int:
    base = _config_from_args(args)
    grid = {name: getattr(args, name) for name in _SWEPT if isinstance(getattr(args, name), list)}
    path = Path(base.out_dir) / f"sweep.{base.report_format}"
    path.parent.mkdir(parents=True, exist_ok=True)  # a bad --out-dir fails before any scan
    rows = sweep(base, grid)
    write_report(rows, path)
    errors = sum(1 for row in rows if row.get("error"))
    print(f"wrote {path} ({len(rows)} rows, {errors} errors)")
    return 0 if errors == 0 else 1


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="riterp",
        description="LiDAR range-image degradation, interpolation, and quality evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic scan")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("output", help=".bin or .ply path")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("convert", help="convert between .bin/.ply clouds and RI files")
    p.add_argument("input", help=".bin, .ply, or synth:<seed>")
    p.add_argument("output", help=".bin, .ply, .npz (RI), or .pgm (RI view)")
    _add_config_flags(p, _GEOMETRY)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("degrade", help="decimate and optionally quantize an RI (.npz)")
    p.add_argument("input")
    p.add_argument("output")
    _add_config_flags(p, [*_FACTORS, "bits"])
    p.add_argument("--pgm", action="store_true", help="also write a .pgm view")
    p.set_defaults(fn=_cmd_degrade)

    p = sub.add_parser("interp", help="upscale an RI (.npz) with one method")
    p.add_argument("input")
    p.add_argument("output")
    _add_config_flags(p, ["method", *_FACTORS, "window_w", "window_h", "policy_order",
                          "grad_threshold", "max_fills"], method=[m for m in METHODS if m != "none"])
    p.add_argument("--pgm", action="store_true")
    p.set_defaults(fn=_cmd_interp)

    p = sub.add_parser("reconstruct", help="RI (.npz) back to a .ply cloud")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--mark-interp", action="store_true",
                   help="color points from odd columns/rows as interpolated")
    _add_config_flags(p, _FACTORS)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("score", help="score an RI pair as pipeline does, or a cloud pair (chamfer)",
                       description="An RI pair (.npz) gets pipeline's scores and counts; the flags "
                       "say how the test RI was made. A cloud pair (.ply, float32) gets chamfer.")
    p.add_argument("--ref-ri")
    p.add_argument("--test-ri")
    p.add_argument("--ref-cloud")
    p.add_argument("--test-cloud")
    _add_config_flags(p, ["method", *_FACTORS, "delta"])
    p.set_defaults(fn=_cmd_score)

    for name, fn, about in [
        ("pipeline", _cmd_pipeline, "full experiment per scan, with report and artifacts"),
        ("sweep", _cmd_sweep, "pipeline over a grid of methods/policies/thresholds"),
    ]:
        p = sub.add_parser(name, help=about)
        p.add_argument("inputs", nargs="+", help="scan paths (.bin/.ply) or synth:<seed>")
        p.add_argument("--config", help="key=value file supplying any flag default")
        _add_config_flags(p, [f.name for f in fields(PipelineConfig) if f.name != "inputs"],
                          sweep_mode=name == "sweep")
        p.set_defaults(fn=fn)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        if argv and argv[0] in ("pipeline", "sweep"):
            _apply_config_file(commands[argv[0]], argv[1:])
        args = parser.parse_args(argv)
        return args.fn(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
