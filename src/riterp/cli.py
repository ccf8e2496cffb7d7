"""Command-line interface.

Subcommands cover single stages (convert, degrade, interp, reconstruct,
score, synth) and whole experiments (pipeline, sweep). Pipeline/sweep
flags mirror PipelineConfig field names; a key=value config file can
supply any of them, with the command line taking precedence.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .gradient import ASCENDING, DESCENDING
from .lossy import QuantizerSpec, downsample_ri, quantize
from .metrics import chamfer, ssim
from .pipeline import (
    INTERP_COLOR,
    METHODS,
    SOURCE_COLOR,
    PipelineConfig,
    interp_mask,
    load_scan,
    run_pipeline,
    sweep,
    upscale_ri,
    write_csv,
)
from .pointcloud import read_ply, write_kitti_bin, write_ply
from .projection import RiGeometry, cloud_to_ri, load_ri, ri_to_cloud, save_ri, write_pgm
from .synth import synth_scene

_POLICY_NAMES = {"asc": ASCENDING, "desc": DESCENDING,
                 ASCENDING: ASCENDING, DESCENDING: DESCENDING}


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, default=2048)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--pitch-max", type=float, default=2.0)
    p.add_argument("--pitch-min", type=float, default=-24.8)
    p.add_argument("--min-depth", type=float, default=2.0)
    p.add_argument("--max-depth", type=float, default=120.0)


def _add_pipeline_flags(p: argparse.ArgumentParser, sweep_mode: bool = False) -> None:
    many = {"nargs": "+"} if sweep_mode else {}
    p.add_argument("inputs", nargs="+", help="scan paths (.bin/.ply) or synth:<seed>")
    p.add_argument("--config", help="key=value file supplying any flag default")
    _add_geometry_flags(p)
    p.add_argument("--range-min", type=float, default=2.0)
    p.add_argument("--range-max", type=float, default=120.0)
    p.add_argument("--factor-x", type=int, default=2)
    p.add_argument("--factor-y", type=int, default=1)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--method", choices=METHODS, default="gradient", **({"nargs": "+"} if sweep_mode else {}))
    p.add_argument("--window-w", type=int, default=32)
    p.add_argument("--window-h", type=int, default=4)
    p.add_argument("--policy", dest="policy_order", default="asc",
                   choices=sorted(_POLICY_NAMES), **many)
    p.add_argument("--grad-threshold", type=float, default=2.5, **many)
    p.add_argument("--max-fills", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--out-dir", default="riterp-out")
    p.add_argument("--report-format", choices=("json", "csv"), default="json")
    p.add_argument("--no-artifacts", action="store_true")


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
            defaults[action.dest] = value.lower() in ("1", "true", "yes")
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
    return PipelineConfig(
        inputs=list(args.inputs),
        width=args.width, height=args.height,
        pitch_max=args.pitch_max, pitch_min=args.pitch_min,
        min_depth=args.min_depth, max_depth=args.max_depth,
        range_min=args.range_min, range_max=args.range_max,
        factor_x=args.factor_x, factor_y=args.factor_y, bits=args.bits,
        method=args.method if isinstance(args.method, str) else args.method[0],
        window_w=args.window_w, window_h=args.window_h,
        policy_order=_POLICY_NAMES[args.policy_order if isinstance(args.policy_order, str) else args.policy_order[0]],
        grad_threshold=args.grad_threshold if isinstance(args.grad_threshold, float) else args.grad_threshold[0],
        max_fills=args.max_fills, delta=args.delta,
        out_dir=args.out_dir, report_format=args.report_format,
        no_artifacts=args.no_artifacts,
    )


def _cmd_synth(args) -> int:
    cloud = synth_scene(args.seed)
    out = Path(args.output)
    if out.suffix == ".ply":
        write_ply(cloud, out)
    else:
        write_kitti_bin(cloud, out)
    print(f"wrote {out} ({len(cloud)} points)")
    return 0


def _cmd_convert(args) -> int:
    src = Path(args.input)
    dst = Path(args.output)
    if dst.suffix in (".ply", ".bin"):
        cloud = load_scan(str(src))
        if dst.suffix == ".ply":
            write_ply(cloud, dst)
        else:
            write_kitti_bin(cloud, dst)
    elif dst.suffix in (".npz", ".pgm"):
        cloud = load_scan(str(src))
        geom = RiGeometry(width=args.width, height=args.height,
                          pitch_max=args.pitch_max, pitch_min=args.pitch_min,
                          min_depth=args.min_depth, max_depth=args.max_depth)
        ri = cloud_to_ri(cloud, geom)
        save_ri(ri, dst) if dst.suffix == ".npz" else write_pgm(ri, dst)
    else:
        raise SystemExit(f"error: unsupported output format {dst.suffix!r}")
    print(f"wrote {dst}")
    return 0


def _cmd_degrade(args) -> int:
    ri = load_ri(args.input)
    out = downsample_ri(ri, args.factor_x, args.factor_y)
    if args.bits is not None:
        out = quantize(out, QuantizerSpec(args.bits, ri.geometry.min_depth, ri.geometry.max_depth))
    save_ri(out, args.output)
    if args.pgm:
        write_pgm(out, Path(args.output).with_suffix(".pgm"))
    print(f"wrote {args.output}")
    return 0


def _cmd_interp(args) -> int:
    ri = load_ri(args.input)
    # sized so that the degraded RI is the loaded one, for the tiling check
    config = PipelineConfig(
        inputs=["-"], method=args.method,
        width=ri.geometry.width * args.factor_x, height=ri.geometry.height * args.factor_y,
        factor_x=args.factor_x, factor_y=args.factor_y,
        window_w=args.window_w, window_h=args.window_h,
        policy_order=_POLICY_NAMES[args.policy_order],
        grad_threshold=args.grad_threshold, max_fills=args.max_fills,
        min_depth=ri.geometry.min_depth, max_depth=ri.geometry.max_depth,
    )
    out = upscale_ri(ri, config)
    if out is None:
        raise SystemExit("error: method 'none' produces no output")
    save_ri(out, args.output)
    if args.pgm:
        write_pgm(out, Path(args.output).with_suffix(".pgm"))
    print(f"wrote {args.output}")
    return 0


def _cmd_reconstruct(args) -> int:
    ri = load_ri(args.input)
    cloud = ri_to_cloud(ri)
    color = None
    if args.mark_interp:
        color = np.tile(np.array(SOURCE_COLOR, dtype=np.uint8), (len(cloud), 1))
        color[interp_mask(ri, args)] = INTERP_COLOR
    write_ply(cloud, args.output, color=color)
    print(f"wrote {args.output} ({len(cloud)} points)")
    return 0


def _cmd_score(args) -> int:
    report: dict = {}
    if args.ref_ri and args.test_ri:
        report["ssim"] = ssim(load_ri(args.test_ri), load_ri(args.ref_ri))
    if args.ref_cloud and args.test_cloud:
        report["chamfer"] = chamfer(read_ply(args.test_cloud), read_ply(args.ref_cloud))
    if not report:
        raise SystemExit("error: need --ref-ri/--test-ri and/or --ref-cloud/--test-cloud")
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
    grid = {}
    if isinstance(args.method, list):
        grid["method"] = args.method
    if isinstance(args.policy_order, list):
        grid["policy_order"] = [_POLICY_NAMES[p] for p in args.policy_order]
    if isinstance(args.grad_threshold, list):
        grid["grad_threshold"] = args.grad_threshold
    rows = sweep(base, grid)
    out = Path(base.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(rows, out / "sweep.csv")
    errors = sum(1 for row in rows if row.get("error"))
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows, {errors} errors)")
    return 0 if errors == 0 else 1


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="riterp",
        description="LiDAR range-image degradation, interpolation, and quality evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("synth", help="generate a deterministic synthetic scan")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("output", help=".bin or .ply path")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("convert", help="convert between .bin/.ply clouds and RI files")
    p.add_argument("input", help=".bin, .ply, or synth:<seed>")
    p.add_argument("output", help=".bin, .ply, .npz (RI), or .pgm (RI view)")
    _add_geometry_flags(p)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("degrade", help="decimate and optionally quantize an RI (.npz)")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--factor-x", type=int, default=2)
    p.add_argument("--factor-y", type=int, default=1)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--pgm", action="store_true", help="also write a .pgm view")
    p.set_defaults(fn=_cmd_degrade)

    p = sub.add_parser("interp", help="upscale an RI (.npz) with one method")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--method", choices=[m for m in METHODS if m != "none"], default="gradient")
    p.add_argument("--factor-x", type=int, default=2)
    p.add_argument("--factor-y", type=int, default=1)
    p.add_argument("--window-w", type=int, default=32)
    p.add_argument("--window-h", type=int, default=4)
    p.add_argument("--policy", dest="policy_order", default="asc", choices=sorted(_POLICY_NAMES))
    p.add_argument("--grad-threshold", type=float, default=2.5)
    p.add_argument("--max-fills", type=int, default=None)
    p.add_argument("--pgm", action="store_true")
    p.set_defaults(fn=_cmd_interp)

    p = sub.add_parser("reconstruct", help="RI (.npz) back to a .ply cloud")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--mark-interp", action="store_true",
                   help="color points from odd columns/rows as interpolated")
    p.add_argument("--factor-x", type=int, default=2)
    p.add_argument("--factor-y", type=int, default=1)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("score", help="score RI pairs (SSIM) and cloud pairs (chamfer)")
    p.add_argument("--ref-ri")
    p.add_argument("--test-ri")
    p.add_argument("--ref-cloud")
    p.add_argument("--test-cloud")
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("pipeline", help="full experiment per scan, with report and artifacts")
    _add_pipeline_flags(p)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("sweep", help="pipeline over a grid of methods/policies/thresholds")
    _add_pipeline_flags(p, sweep_mode=True)
    p.set_defaults(fn=_cmd_sweep)

    for name, action in sub.choices.items():
        commands[name] = action
    return parser, commands


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
