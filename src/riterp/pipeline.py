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
changes (through the reference RI and its cloud, its k-d tree index and
its half of SSIM) once per scan; evaluate runs the rest for one config,
so sweep cells share them. Each image builds its xyz grid and cloud
once (RangeImage.xyz and .cloud), and scoring and the artifact writer
read them from it. The index builds its tree in the first cell that
queries it, if any does; a sweep prefetches it on metrics' helper
thread for a scan with a cell of another method than gradient, so it
builds while that cell runs. Each cell's score runs ssim on that thread
while the caller searches the nearest neighbours, unless a build holds
it. STAGE_FIELDS says which config fields each stage reads: prefix_key
and cell_key are read from it, and a sweep evaluates each distinct cell
of a scan once. sweep is the one loop
over scans: run_pipeline is the sweep of one cell, plus its report.
"""
from __future__ import annotations

import csv
import itertools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .baselines import SUPPORT, upscale_baseline
from .gradient import (ASCENDING, DEFAULT_GRADIENT_THRESHOLD, DEFAULT_WINDOW_H, DEFAULT_WINDOW_W,
                       check_gradient_factors, check_policy, check_window, upscale_gradient)
from .lossy import check_bits, check_factors, downsample_ri, downsampled_geometry, quantize
from .metrics import (KdTree, _beside, check_delta, mean_chamfer, nn_distances, noise_split, ssim,
                      ssim_terms)
from .pointcloud import PointCloud, check_range, filter_by_range, read_kitti_bin, read_ply, write_ply
from .projection import KITTI_GEOMETRY, RangeImage, RiGeometry, cloud_to_ri, occupancy, write_pgm
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
    own checks (geometry, range filter, factors, bits, gradient factors
    and windows, policy, delta), so a bad config fails before any scan."""

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
        check_delta(self.delta)
        check_range(self.range_min, self.range_max)
        degraded = downsampled_geometry(self.geometry, self.factor_x, self.factor_y)
        if self.method == "gradient":
            check_gradient_factors(self.factor_x, self.factor_y)
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
        seed = spec.split(":", 1)[1]
        if not (seed.isascii() and seed.isdigit()):
            raise ValueError(f"{spec}: seed must be a non-negative integer")
        return synth_scene(int(seed))
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
    """Interpolate ri by config, any object with the fields its method reads; None for 'none'."""
    if config.method == "none":
        return None
    if config.method == "gradient":
        check_gradient_factors(config.factor_x, config.factor_y)
        return upscale_gradient(ri, config.window_w, config.window_h, config.grad_threshold,
                                config.max_fills, config.policy_order)
    return upscale_baseline(ri, config.method, config.factor_x, config.factor_y)


def interp_mask(ri: RangeImage, factor_x: int, factor_y: int = 1) -> np.ndarray:
    """Per-point flags for ri.cloud: True where the pixel was
    created by upscaling (column or row not a multiple of its factor)."""
    check_factors(factor_x, factor_y)
    g = ri.geometry
    created = (np.arange(g.height)[:, None] % factor_y != 0) | (np.arange(g.width) % factor_x != 0)
    return created[ri.occupied]


def point_colors(count: int, interp: np.ndarray | None = None) -> np.ndarray:
    """(count, 3) uint8 PLY colors: SOURCE_COLOR, and INTERP_COLOR where
    interp (an interp_mask: a boolean array of count entries) is set. With
    no interp it is a read-only view of one row."""
    palette = np.array([SOURCE_COLOR, INTERP_COLOR], dtype=np.uint8)
    if interp is None:
        return np.broadcast_to(palette[0], (count, 3))
    interp = np.asarray(interp)
    if interp.dtype != bool or interp.shape != (count,):
        raise ValueError(f"interp mask must be {count} booleans, got {interp.dtype} {interp.shape}")
    return palette.take(interp, axis=0)


def score_ris(test_ri: RangeImage, ref_ri: RangeImage, mask: np.ndarray | None, delta: float,
              ref_tree: KdTree | None = None, ref_ssim: tuple | None = None) -> dict:
    """The score stage: test_ri against ref_ri, as the report's ssim,
    noise_ratio, chamfer, densify_count, interp_points, nn_fallback_points
    and nn_tree_points. noise_ratio and densify_count split the points
    that mask (test_ri's interp_mask; None for method none, which gives
    None and 0) marks: the fraction farther than delta from every reference
    point, and the number within delta, which must be > 0. ref_tree (a
    KdTree over ref_ri.cloud) and ref_ssim (ssim_terms(ref_ri)) are made
    here unless given."""
    check_delta(delta)
    tg, rg = test_ri.geometry, ref_ri.geometry
    test_ri.cloud, test_ri.xyz, test_ri.occupied  # built here, not on two threads at once
    if tg == rg:
        ssim_job = _beside(ssim, test_ri, ref_ri, ref_ssim)
    else:  # not upscaled: against the reference decimated to its size, un-quantized
        ssim_job = _beside(ssim, test_ri, downsample_ri(ref_ri, max(rg.width // tg.width, 1),
                                                        max(rg.height // tg.height, 1)))
    # exact distances per direction, while ssim runs on the helper thread:
    # the range-image windows where they certify them, the k-d trees for the rest
    try:
        d_test, d_ref, n_fallback, n_tree = nn_distances(test_ri, ref_ri, ref_tree)
    finally:  # an error here leaves once ssim is done, and ssim's own error first
        ssim_score = ssim_job()
    ratio, densify = (None, 0) if mask is None else noise_split(d_test[mask], delta)
    n_interp = 0 if mask is None else int(np.count_nonzero(mask))
    return {"ssim": ssim_score, "noise_ratio": ratio, "chamfer": mean_chamfer(d_test, d_ref),
            "densify_count": densify, "interp_points": n_interp,
            "nn_fallback_points": n_fallback, "nn_tree_points": n_tree}


@contextmanager
def _stage(timings: dict[str, float], stage: str):
    """Add the block's wall time in ms to timings[stage]; any exception in
    the block is raised as a StageError naming the stage."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(stage, exc) from exc
    timings[stage] = timings.get(stage, 0.0) + (time.perf_counter() - t0) * 1e3


@dataclass
class ScanContext:
    """One scan's cell-independent prefix, built by prepare_scan.

    ref_tree, over ref_ri.cloud, builds its k-d tree at its first query
    with points, so the first cell that leaves a test point to it pays for
    the build, or when prefetched the wait for what is left of it, in its
    score time, and the later cells reuse it."""

    spec: str
    key: tuple
    points_in: int
    ref_ri: RangeImage
    ref_tree: KdTree
    #: ssim_terms(ref_ri)
    ref_ssim: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: stage times spent building the context and not yet charged to a
    #: report; the first report evaluate() returns takes them
    pending_ms: dict[str, float]


def prepare_scan(spec: str, config: PipelineConfig) -> ScanContext:
    """Run ingest, filter and project on one input, and make the
    reference's cloud, its KdTree (whose tree is built later: at its
    first query, or ahead once prefetched) and its SSIM terms. Raises
    StageError with the failing stage's name; the cloud counts as
    reconstruct time, the KdTree and the SSIM terms as score time."""
    timings: dict[str, float] = {}
    with _stage(timings, "ingest"):
        cloud = load_scan(spec)
    with _stage(timings, "filter"):
        cloud = filter_by_range(cloud, config.range_min, config.range_max)
        if len(cloud) == 0:
            raise ValueError(f"{spec}: no points within range [{config.range_min}, {config.range_max}]")
    with _stage(timings, "project"):
        g = config.geometry
        ref_ri = cloud_to_ri(cloud, g)
        if not ref_ri.occupied.any():
            raise ValueError(f"{spec}: no points fall inside the geometry's vertical FOV "
                             f"[{g.pitch_min}, {g.pitch_max}] deg and depth clamp "
                             f"[{g.min_depth}, {g.max_depth}]")
    with _stage(timings, "reconstruct"):
        ref_cloud = ref_ri.cloud
    with _stage(timings, "score"):
        ref_tree, ref_ssim = KdTree(ref_cloud), ssim_terms(ref_ri)
    return ScanContext(spec, prefix_key(spec, config), len(cloud), ref_ri, ref_tree, ref_ssim,
                       timings)


def evaluate(ctx: ScanContext, config: PipelineConfig) -> tuple[dict, dict]:
    """Run degrade, interp, reconstruct and score for one config against a
    prepared scan.

    Returns (report, artifacts): artifacts maps reference, degraded and
    upscaled (None for method none) to their images, and interp_mask to
    the test image's mask, for write_artifacts. The report's scores and
    counts are score_ris's, on the test image (whose cloud reconstruct
    builds), its mask, and the context's tree and SSIM terms. The first
    report from a context also carries the stage times prepare_scan
    spent; later ones read 0.0 for the stages they reused. Raises
    StageError with the failing stage's name, and ValueError if config's
    prefix key differs from the context's.
    """
    if prefix_key(ctx.spec, config) != ctx.key:
        raise ValueError(f"{ctx.spec}: scan context was prepared for another range or geometry")
    timings = dict.fromkeys(STAGES, 0.0)
    with _stage(timings, "degrade"):
        deg_ri = degrade_ri(ctx.ref_ri, config.factor_x, config.factor_y, config.bits)
    with _stage(timings, "interp"):
        up_ri = upscale_ri(deg_ri, config)
    with _stage(timings, "reconstruct"):
        test_ri = up_ri if up_ri is not None else deg_ri
        test_cloud = test_ri.cloud
        mask = interp_mask(test_ri, config.factor_x, config.factor_y) if up_ri is not None else None
    with _stage(timings, "score"):
        scores = score_ris(test_ri, ctx.ref_ri, mask, config.delta, ctx.ref_tree, ctx.ref_ssim)
    for stage, ms in ctx.pending_ms.items():
        timings[stage] += ms
    ctx.pending_ms = {}

    report = dict(config.echo())
    report["input"] = ctx.spec
    report.update(scores)
    report["ref_occupancy"] = occupancy(ctx.ref_ri)
    report["degraded_occupancy"] = occupancy(deg_ri)
    report["test_occupancy"] = occupancy(test_ri)
    report["points_in"] = ctx.points_in
    report["points_out"] = len(test_cloud)
    # reports keep the k-d tree counts after the point counts
    report["nn_fallback_points"] = report.pop("nn_fallback_points")
    report["nn_tree_points"] = report.pop("nn_tree_points")
    for stage, ms in timings.items():
        report[f"time_{stage}_ms"] = ms

    artifacts = {"reference": ctx.ref_ri, "degraded": deg_ri, "upscaled": up_ri, "interp_mask": mask}
    return report, artifacts


def run_scan(spec: str, config: PipelineConfig) -> tuple[dict, dict]:
    """Run the full pipeline on one input: evaluate(prepare_scan(spec,
    config), config), with every stage time in the report. Raises
    StageError with the failing stage's name."""
    return evaluate(prepare_scan(spec, config), config)


def write_artifacts(label: str, artifacts: dict, out_dir: Path) -> None:
    """PGM views of every RI stage of evaluate's artifacts, and the clouds
    of the reference and test images (the upscaled one, or the degraded
    one for method none) with interpolated points colored for visual
    inspection, as <label>_<name>.pgm/.ply in out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("reference", "degraded", "upscaled"):
        ri = artifacts[name]
        if ri is not None:
            write_pgm(ri, out_dir / f"{label}_{name}.pgm")
    test_ri = artifacts["degraded"] if artifacts["upscaled"] is None else artifacts["upscaled"]
    for name, ri, mask in (("ref_cloud", artifacts["reference"], None),
                           ("test_cloud", test_ri, artifacts["interp_mask"])):
        write_ply(ri.cloud, out_dir / f"{label}_{name}.ply", color=point_colors(len(ri.cloud), mask))


def run_pipeline(config: PipelineConfig) -> list[dict]:
    """Sweep every configured input as one cell; write the report.

    A failing scan is reported on stderr with the failing stage and does
    not stop the other scans. Raises RuntimeError at the end if any scan
    failed; with no inputs it writes an empty report and returns [].
    A repeated input gives a copied row, as in sweep.
    """
    if config.no_artifacts:  # else sweep makes it, after its artifact name check
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    reports, failed = [], []
    for row in sweep(config, {}):
        error = row.pop("error")
        if error:
            print(f"error: scan {row['input']}: {error}", file=sys.stderr)
            failed.append(row["input"])
        else:
            reports.append(row)
    write_report(reports, Path(config.out_dir) / f"report.{config.report_format}")
    if failed:
        raise RuntimeError(f"{len(failed)} scan(s) failed: {', '.join(failed)}")
    return reports


def write_report(rows: list[dict], path: Path) -> None:
    """Write rows to a .json path as a JSON list, to any other path as CSV
    whose columns are the union of the rows' keys, in first-seen order but
    for 'error', which comes last whichever rows failed."""
    if path.suffix == ".json":
        path.write_text(json.dumps(rows, indent=2) + "\n")
        return
    if not rows:
        path.write_text("")
        return
    with open(path, "w", newline="") as fh:
        columns = sorted(dict.fromkeys(k for row in rows for k in row), key=lambda k: k == "error")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _error_row(config: PipelineConfig, spec: str, error: str, overrides: dict | None = None) -> dict:
    return {**config.echo(), **(overrides or {}), "input": spec, "error": error}


def _sweep_scan(jobs: list[tuple[int, str, PipelineConfig, str]], rows: list) -> None:
    """Fill rows[index] for every (index, spec, cell, label) job of one
    prefix group from a single prepared scan. Only the first job of each
    cell_key is evaluated and writes artifacts; a write that fails puts
    its error on that row, which keeps its numbers and times. A later job
    gets a new dict: the evaluated row without a write error, with its own
    config echo and every time_*_ms at 0.0.

    When a job's method is not gradient, the reference tree is prefetched
    as soon as the scan is prepared: a depth-blind baseline leaves its
    mid-air points to it, and 'none' every point, so it builds on the
    helper thread while the cells run. A gradient-only scan keeps the
    lazy build, which its ladders often make unneeded."""
    _, spec, first, _ = jobs[0]
    try:
        ctx = prepare_scan(spec, first)
    except StageError as err:
        for index, spec, cell, _ in jobs:
            rows[index] = _error_row(cell, spec, str(err))
        return
    if any(cell.method != "gradient" for _, _, cell, _ in jobs):
        ctx.ref_tree.prefetch()
    evaluated: dict[tuple, dict] = {}
    for index, spec, cell, label in jobs:
        key = cell_key(cell)
        row = evaluated.get(key)
        if row is not None:
            rows[index] = {**row, **cell.echo(), **{k: 0.0 for k in row if k.startswith("time_")}}
            continue
        try:
            row, artifacts = evaluate(ctx, cell)
        except StageError as err:
            rows[index] = evaluated[key] = _error_row(cell, spec, str(err))
            continue
        rows[index] = evaluated[key] = {**row, "error": ""}
        if not cell.no_artifacts:
            try:
                write_artifacts(label, artifacts, Path(cell.out_dir))
            except OSError as err:  # its message names the file
                rows[index] = {**row, "error": f"write: {err}"}
        del artifacts  # the test image and its grid and cloud, before the next cell's


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
    reads 0.0 ("reused, not run again"). Failures, and artifact writes
    that fail ("write: ", naming the file), become rows with an 'error'
    column and the sweep continues.

    Unless no_artifacts is set, an evaluated row writes its artifacts as
    <scan>[_<grid value>...]_<name>, e.g. synth_0_gradient_2.5_upscaled.pgm,
    and a copy none; inputs that would write the same files raise
    ValueError before any scan.
    """
    for name in grid:
        if name not in {f.name for f in fields(config)}:
            raise ValueError(f"unknown config field in grid: {name!r}")
        if not grid[name]:
            raise ValueError(f"no values for grid field {name!r}")
    labels: dict[str, str] = {}
    rows: list[dict | None] = []
    groups: dict[tuple, list[tuple[int, str, PipelineConfig, str]]] = {}
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
            scan = spec.replace(":", "_", 1) if spec.startswith("synth:") else Path(spec).stem
            label = "_".join([scan, *map(str, values)])
            if not cell.no_artifacts and labels.setdefault(label, spec) != spec:
                raise ValueError(f"inputs {labels[label]} and {spec} would write the same "
                                 f"artifact files {label}_*; rename one or turn artifacts off")
            groups.setdefault(prefix_key(spec, cell), []).append((len(rows), spec, cell, label))
            rows.append(None)
    if not config.no_artifacts:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    for jobs in groups.values():
        _sweep_scan(jobs, rows)
    return rows
