"""End-to-end experiment orchestration.

One scan flows through: ingest -> range filter -> project (reference RI)
-> degrade (decimate, optional quantization) -> interpolate -> reconstruct
-> score. Reports are flat dicts (config echo + scores + per-stage wall
times) so they serialize directly to JSON objects or CSV rows.

Scores are measured against the pre-degradation projection: SSIM compares
RIs at the upscaled resolution, and the 3D metrics compare against the
cloud reconstructed from the reference RI (which contains every source
point the degraded image kept, when quantization is off).

prepare_scan runs the stages that no degradation or interpolation setting
changes (through the reference RI, its cloud, its k-d tree and its half
of SSIM) once per scan; evaluate runs the rest for one config, so sweep
cells share them. STAGE_FIELDS says which config fields each stage reads:
prefix_key and cell_key are read from it, and a sweep evaluates each
distinct cell of a scan once.
"""
from __future__ import annotations

import csv
import itertools
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .baselines import SUPPORT, upscale_baseline
from .gradient import (ASCENDING, DEFAULT_GRADIENT_THRESHOLD, DEFAULT_WINDOW_H, DEFAULT_WINDOW_W,
                       check_policy, check_window, upscale_gradient)
from .lossy import check_bits, check_factors, downsample_ri, downsampled_geometry, quantize
from .metrics import KdTree, mean_chamfer, nn_distances, noise_split, ssim, ssim_terms
from .pointcloud import PointCloud, filter_by_range, read_kitti_bin, read_ply, write_ply
from .projection import (KITTI_GEOMETRY, RangeImage, RiGeometry, cloud_to_ri, occupancy, ri_to_cloud,
                         write_pgm)
from .synth import synth_scene

METHODS = ("none", *SUPPORT, "gradient")
REPORT_FORMATS = ("json", "csv")

#: every report row carries one time_<stage>_ms per stage, in this order
STAGES = ("ingest", "filter", "project", "degrade", "interp", "reconstruct", "score")

#: points reconstructed from source pixels (white) vs interpolated pixels (red)
SOURCE_COLOR = (200, 200, 200)
INTERP_COLOR = (255, 40, 40)


@dataclass
class PipelineConfig:
    """Every knob of one experiment run. Construction applies the stages'
    own checks (geometry, factors, bits, gradient windows, policy), so a
    bad config fails before any scan."""

    inputs: list[str] = field(default_factory=list)
    width: int = KITTI_GEOMETRY.width
    height: int = KITTI_GEOMETRY.height
    pitch_max: float = KITTI_GEOMETRY.pitch_max
    pitch_min: float = KITTI_GEOMETRY.pitch_min
    min_depth: float = KITTI_GEOMETRY.min_depth
    max_depth: float = KITTI_GEOMETRY.max_depth
    range_min: float = 2.0
    range_max: float = 120.0
    factor_x: int = 2
    factor_y: int = 1
    bits: int | None = None
    method: str = "gradient"
    window_w: int = DEFAULT_WINDOW_W
    window_h: int = DEFAULT_WINDOW_H
    policy_order: str = ASCENDING
    grad_threshold: float = DEFAULT_GRADIENT_THRESHOLD
    max_fills: int | None = None
    delta: float = 0.5
    out_dir: str = "riterp-out"
    report_format: str = "json"
    no_artifacts: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.report_format not in REPORT_FORMATS:
            raise ValueError(f"report format must be json or csv, got {self.report_format!r}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        # before the geometry, which `riterp interp` sizes by the factors
        check_factors(self.factor_x, self.factor_y)
        degraded = downsampled_geometry(self.geometry, self.factor_x, self.factor_y)
        if self.method == "gradient":
            if (self.factor_x, self.factor_y) != (2, 1):
                raise ValueError(
                    f"gradient interpolation is 2x horizontal only, got factors "
                    f"({self.factor_x}, {self.factor_y})"
                )
            check_window(degraded, self.window_w, self.window_h)
        check_policy(self.grad_threshold, self.max_fills, self.policy_order)
        if self.bits is not None:
            check_bits(self.bits)

    @property
    def geometry(self) -> RiGeometry:
        return RiGeometry(**{f.name: getattr(self, f.name) for f in fields(RiGeometry)})

    def echo(self) -> dict:
        """Flat (scalars-only) copy of every config field, so reports are
        self-describing in both JSON and CSV."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = ";".join(value) if isinstance(value, list) else value
        return out


#: the stage that reads each PipelineConfig field. prepare_scan reads the
#: prefix fields, evaluate the degrade, interp, gradient (method 'gradient'
#: only) and score fields; the output fields only say where and how the
#: results are written, and each scan's spec stands for inputs.
STAGE_FIELDS = {
    "input": ("inputs",),
    "prefix": (*(f.name for f in fields(RiGeometry)), "range_min", "range_max"),
    "degrade": ("factor_x", "factor_y", "bits"),
    "interp": ("method",),
    "gradient": ("window_w", "window_h", "policy_order", "grad_threshold", "max_fills"),
    "score": ("delta",),
    "output": ("out_dir", "report_format", "no_artifacts"),
}


def prefix_key(spec: str, config: PipelineConfig) -> tuple:
    """The input and the prefix fields: all prepare_scan's result depends on."""
    return (spec, *(getattr(config, name) for name in STAGE_FIELDS["prefix"]))


def cell_key(config: PipelineConfig) -> tuple:
    """The fields evaluate's numbers depend on besides the prefix: degrade,
    interp and score, and for method 'gradient' the gradient fields, of
    which policy_order counts only when max_fills sets a fill budget
    (gradient.interpolate reads the order only to spend one)."""
    names = [*STAGE_FIELDS["degrade"], *STAGE_FIELDS["interp"], *STAGE_FIELDS["score"]]
    if config.method == "gradient":
        names += [name for name in STAGE_FIELDS["gradient"]
                  if name != "policy_order" or config.max_fills is not None]
    return tuple(getattr(config, name) for name in names)


class StageError(RuntimeError):
    """Raised when one pipeline stage fails; names the stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


def load_scan(spec: str) -> PointCloud:
    """Load one input: 'synth:<seed>', a .bin scan, or a .ply cloud."""
    if spec.startswith("synth:"):
        return synth_scene(int(spec.split(":", 1)[1]))
    path = Path(spec)
    reader = {".bin": read_kitti_bin, ".ply": read_ply}.get(path.suffix.lower())
    if reader is None:
        raise ValueError(f"{spec}: unknown input type; expected synth:<seed>, .bin or .ply")
    if not path.exists():
        raise FileNotFoundError(f"input not found: {spec}")
    return reader(path)


def degrade_ri(ri: RangeImage, factor_x: int, factor_y: int = 1, bits: int | None = None) -> RangeImage:
    """downsample_ri, then quantize to bits unless bits is None."""
    out = downsample_ri(ri, factor_x, factor_y)
    return out if bits is None else quantize(out, bits)


def upscale_ri(ri: RangeImage, config: PipelineConfig) -> RangeImage | None:
    """Apply the configured interpolation; None for method 'none'."""
    if config.method == "none":
        return None
    if config.method == "gradient":
        return upscale_gradient(ri, config.window_w, config.window_h, config.grad_threshold,
                                config.max_fills, config.policy_order)
    return upscale_baseline(ri, config.method, config.factor_x, config.factor_y)


def interp_mask(ri: RangeImage, factor_x: int, factor_y: int = 1) -> np.ndarray:
    """Per-point flags for ri_to_cloud output: True where the pixel was
    created by upscaling (column or row not a multiple of its factor)."""
    check_factors(factor_x, factor_y)
    rows, cols = np.nonzero(ri.occupied)
    return (cols % factor_x != 0) | (rows % factor_y != 0)


def point_colors(count: int, interp: np.ndarray | None = None) -> np.ndarray:
    """(count, 3) uint8 PLY colors: SOURCE_COLOR, and INTERP_COLOR where
    interp (an interp_mask) is set."""
    color = np.tile(np.array(SOURCE_COLOR, dtype=np.uint8), (count, 1))
    if interp is not None:
        color[interp] = INTERP_COLOR
    return color


def _timed(timings: dict[str, float], stage: str, fn, *args):
    """fn(*args), adding its wall time in ms to timings[stage]; any
    exception is raised as a StageError naming the stage."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        raise StageError(stage, exc) from exc
    timings[stage] = timings.get(stage, 0.0) + (time.perf_counter() - t0) * 1e3
    return result


@dataclass
class ScanContext:
    """One scan's cell-independent prefix, built by prepare_scan."""

    spec: str
    key: tuple
    points_in: int
    ref_ri: RangeImage
    ref_cloud: PointCloud
    ref_tree: KdTree
    #: ssim_terms(ref_ri)
    ref_ssim: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: stage times spent building the context and not yet charged to a
    #: report; the first report evaluate() returns takes them
    pending_ms: dict[str, float]


def _filter_nonempty(spec: str, cloud: PointCloud, config: PipelineConfig) -> PointCloud:
    cloud = filter_by_range(cloud, config.range_min, config.range_max)
    if len(cloud) == 0:
        raise ValueError(f"{spec}: no points within range [{config.range_min}, {config.range_max}]")
    return cloud


def _project_nonempty(spec: str, cloud: PointCloud, config: PipelineConfig) -> RangeImage:
    ri = cloud_to_ri(cloud, config.geometry)
    if not ri.occupied.any():
        g = config.geometry
        raise ValueError(f"{spec}: no points fall inside the geometry's vertical FOV "
                         f"[{g.pitch_min}, {g.pitch_max}] deg and depth clamp "
                         f"[{g.min_depth}, {g.max_depth}]")
    return ri


def prepare_scan(spec: str, config: PipelineConfig) -> ScanContext:
    """Run ingest, filter and project on one input, and build the
    reference cloud, its k-d tree and its SSIM terms. Raises StageError
    with the failing stage's name; the reference cloud counts as
    reconstruct time, the tree and the SSIM terms as score time."""
    timings: dict[str, float] = {}
    cloud = _timed(timings, "ingest", load_scan, spec)
    cloud = _timed(timings, "filter", _filter_nonempty, spec, cloud, config)
    ref_ri = _timed(timings, "project", _project_nonempty, spec, cloud, config)
    ref_cloud = _timed(timings, "reconstruct", ri_to_cloud, ref_ri)
    ref_tree = _timed(timings, "score", KdTree, ref_cloud)
    ref_ssim = _timed(timings, "score", ssim_terms, ref_ri)
    return ScanContext(spec, prefix_key(spec, config), len(cloud), ref_ri, ref_cloud,
                       ref_tree, ref_ssim, timings)


def evaluate(ctx: ScanContext, config: PipelineConfig) -> tuple[dict, dict]:
    """Run degrade, interp, reconstruct and score for one config against a
    prepared scan.

    Returns (report, artifacts); artifacts maps name -> RangeImage /
    (PointCloud, interp_mask) pairs for the writer. The report's
    noise_ratio and densify_count partition the interpolated points:
    noise_ratio is the fraction farther than delta from every reference
    point, densify_count the number within delta. The first report from a
    context also carries the stage times prepare_scan spent; later ones
    read 0.0 for the stages they reused. Raises StageError with the
    failing stage's name, and ValueError if config's prefix key differs
    from the context's.
    """
    if prefix_key(ctx.spec, config) != ctx.key:
        raise ValueError(f"{ctx.spec}: scan context was prepared for another range or geometry")
    timings = dict.fromkeys(STAGES, 0.0)
    ref_ri, ref_cloud = ctx.ref_ri, ctx.ref_cloud
    deg_ri = _timed(timings, "degrade", degrade_ri, ref_ri, config.factor_x, config.factor_y,
                    config.bits)
    up_ri = _timed(timings, "interp", upscale_ri, deg_ri, config)

    def reconstruct():
        test_ri = up_ri if up_ri is not None else deg_ri
        test_cloud = ri_to_cloud(test_ri)
        mask = interp_mask(test_ri, config.factor_x, config.factor_y) if up_ri is not None else None
        return test_ri, test_cloud, mask

    test_ri, test_cloud, mask = _timed(timings, "reconstruct", reconstruct)

    def score():
        if up_ri is not None:
            ssim_score = ssim(test_ri, ref_ri, ctx.ref_ssim)
        else:
            # no upscale: compare at the degraded resolution against the
            # un-quantized decimation of the reference
            ssim_score = ssim(test_ri, downsample_ri(ref_ri, config.factor_x, config.factor_y))
        # exact distances per direction: the range-image windows where they
        # certify them, the k-d trees for the rest
        d_test, d_ref, n_fallback, n_tree = nn_distances(test_cloud, ref_cloud, ctx.ref_tree,
                                                         (test_ri, ref_ri))
        if mask is not None:
            ratio, densify = noise_split(d_test[mask], config.delta)
            n_interp = int(np.count_nonzero(mask))
        else:
            ratio, densify, n_interp = None, 0, 0
        quality = {"ssim": ssim_score, "noise_ratio": ratio, "chamfer": mean_chamfer(d_test, d_ref),
                   "densify_count": densify}
        return quality, n_interp, n_fallback, n_tree

    quality, n_interp, n_fallback, n_tree = _timed(timings, "score", score)
    for stage, ms in ctx.pending_ms.items():
        timings[stage] += ms
    ctx.pending_ms = {}

    report = dict(config.echo())
    report["input"] = ctx.spec
    report.update(quality)
    report["interp_points"] = n_interp
    report["ref_occupancy"] = occupancy(ref_ri)
    report["degraded_occupancy"] = occupancy(deg_ri)
    report["test_occupancy"] = occupancy(test_ri)
    report["points_in"] = ctx.points_in
    report["points_out"] = len(test_cloud)
    report["nn_fallback_points"] = n_fallback
    report["nn_tree_points"] = n_tree
    for stage, ms in timings.items():
        report[f"time_{stage}_ms"] = ms

    artifacts = {
        "reference": ref_ri,
        "degraded": deg_ri,
        "upscaled": up_ri,
        "ref_cloud": (ref_cloud, None),
        "test_cloud": (test_cloud, mask),
    }
    return report, artifacts


def run_scan(spec: str, config: PipelineConfig) -> tuple[dict, dict]:
    """Run the full pipeline on one input: evaluate(prepare_scan(spec,
    config), config), with every stage time in the report. Raises
    StageError with the failing stage's name."""
    return evaluate(prepare_scan(spec, config), config)


def _scan_label(spec: str) -> str:
    if spec.startswith("synth:"):
        return f"synth_{spec.split(':', 1)[1]}"
    return Path(spec).stem


def write_artifacts(spec: str, artifacts: dict, out_dir: Path) -> None:
    """PGM views of every RI stage and PLY clouds with interpolated points
    colored for visual inspection."""
    label = _scan_label(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("reference", "degraded", "upscaled"):
        ri = artifacts[name]
        if ri is not None:
            write_pgm(ri, out_dir / f"{label}_{name}.pgm")
    for name in ("ref_cloud", "test_cloud"):
        cloud, mask = artifacts[name]
        write_ply(cloud, out_dir / f"{label}_{name}.ply", color=point_colors(len(cloud), mask))


def run_pipeline(config: PipelineConfig) -> list[dict]:
    """Run every configured input; write reports and artifacts.

    A failing scan is reported on stderr with the failing stage and does
    not stop the other scans. Raises RuntimeError at the end if any scan
    failed; with no inputs it writes an empty report and returns [].
    Raises ValueError before any scan runs if two inputs would write the
    same artifact files.
    """
    if not config.no_artifacts:
        labels: dict[str, str] = {}
        for spec in sorted(config.inputs):
            label = _scan_label(spec)
            if label in labels:
                raise ValueError(f"inputs {labels[label]} and {spec} would write the same "
                                 f"artifact files {label}_*; rename one or turn artifacts off")
            labels[label] = spec
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    failures = []
    for spec in sorted(config.inputs):
        try:
            report, artifacts = run_scan(spec, config)
        except StageError as err:
            failures.append((spec, err))
            print(f"error: scan {spec}: {err}", file=sys.stderr)
            continue
        reports.append(report)
        if not config.no_artifacts:
            write_artifacts(spec, artifacts, out_dir)

    write_report(reports, out_dir / f"report.{config.report_format}")

    if failures:
        failed = ", ".join(spec for spec, _ in failures)
        raise RuntimeError(f"{len(failures)} scan(s) failed: {failed}")
    return reports


def write_report(rows: list[dict], path: Path) -> None:
    """Write rows to a .json path as a JSON list, to any other path as CSV
    whose columns are the union of the rows' keys, in first-seen order."""
    if path.suffix == ".json":
        path.write_text(json.dumps(rows, indent=2) + "\n")
        return
    if not rows:
        path.write_text("")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(dict.fromkeys(k for row in rows for k in row)))
        writer.writeheader()
        writer.writerows(rows)


def _error_row(config: PipelineConfig, spec: str, error: str, overrides: dict | None = None) -> dict:
    return {**config.echo(), **(overrides or {}), "input": spec, "error": error}


def _sweep_scan(jobs: list[tuple[int, str, PipelineConfig]], rows: list) -> None:
    """Fill rows[index] for every (index, spec, cell) job of one prefix
    group from a single prepared scan. Only the first job of each cell_key
    is evaluated; a later one gets a new dict: that row with its own
    config echo and every time_*_ms at 0.0."""
    _, spec, first = jobs[0]
    try:
        ctx = prepare_scan(spec, first)
    except StageError as err:
        for index, spec, cell in jobs:
            rows[index] = _error_row(cell, spec, str(err))
        return
    evaluated: dict[tuple, dict] = {}
    for index, spec, cell in jobs:
        key = cell_key(cell)
        row = evaluated.get(key)
        if row is not None:
            rows[index] = {**row, **cell.echo(), **{k: 0.0 for k in row if k.startswith("time_")}}
            continue
        try:
            row, _ = evaluate(ctx, cell)
            row["error"] = ""
        except StageError as err:
            row = _error_row(cell, spec, str(err))
        rows[index] = evaluated[key] = row


def sweep(config: PipelineConfig, grid: dict[str, list]) -> list[dict]:
    """Cartesian sweep over config fields; one row per cell x scan, in
    cell-major order.

    Cells that share a scan's prefix key (input, range filter, geometry)
    share one prepare_scan. The work runs one scan at a time, so one
    ScanContext is alive at a time, and the prefix's stage times go to
    the first row evaluated from it. Of the cells with equal cell_key
    (the same numbers; e.g. two baseline cells that differ only in a
    gradient field) only the first is evaluated per scan: the others copy
    its row with their own config echo, and every time_*_ms of a copy
    reads 0.0 ("reused, not run again"). Failures become rows with an
    'error' column and the sweep continues.
    """
    for name in grid:
        if name not in {f.name for f in fields(config)}:
            raise ValueError(f"unknown config field in grid: {name!r}")
    rows: list[dict | None] = []
    groups: dict[tuple, list[tuple[int, str, PipelineConfig]]] = {}
    names = list(grid)
    for values in itertools.product(*(grid[n] for n in names)):
        overrides = dict(zip(names, values))
        try:
            cell = replace(config, **overrides)
        except ValueError as err:
            # invalid cell: one error row per scan, no scan prepared
            for spec in sorted(config.inputs):
                rows.append(_error_row(config, spec, f"config: {err}", overrides))
            continue
        for spec in sorted(cell.inputs):
            groups.setdefault(prefix_key(spec, cell), []).append((len(rows), spec, cell))
            rows.append(None)
    for jobs in groups.values():
        _sweep_scan(jobs, rows)
    return rows
