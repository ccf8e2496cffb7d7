"""Workloads, correctness checks and measurement loops of the riterp
benchmark. ``run.py`` is the command-line entry point; this module holds
everything it runs, so the self-test can drive the same code on a tiny
geometry.

Load shape: a closed loop, one client, one process. Each operation
starts when the previous one (and its checks) has finished.
"""
from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import riterp
import riterp.pipeline as pipeline
from riterp import PipelineConfig, PointCloud, cloud_to_ri, filter_by_range, read_kitti_bin, ri_to_cloud

from spans import EXACT, Tracer, check_guard, layer_metrics, ops_of, unit_of

DEFAULT_SEED = 0
SETUP_REPEATS = 3
NN_QUERIES = 200  # brute-force nearest-neighbour cross-check, per input
QUALITY = ("ssim", "noise_ratio", "densify_count", "chamfer")
RECORDED = QUALITY + ("interp_points", "points_in", "points_out")
REL_TOL = 1e-12
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_seed0.json"

#: spans every traced run of any workload must record
_ALWAYS_USED = ("projection.cloud_to_ri", "projection.ri_to_cloud", "lossy.downsample_ri",
                "metrics.ssim", "metrics.kdtree_build", "metrics.kdtree_query")


@dataclass(frozen=True)
class Workload:
    name: str
    #: PipelineConfig fields shared by every operation
    settings: dict
    #: sweep grid; None means one run_pipeline call per operation
    grid: dict | None
    #: distinct inputs; input i is synth_scene(seed + i), cycled over
    inputs: int
    #: operations in one traced pass (each input at most once)
    trace_ops: int
    #: spans a traced pass must record, else the run fails (trace guard)
    required: tuple = ()
    #: criterion 2: gradient at delta 0.5 without quantization adds no noise
    zero_noise: bool = False

    @property
    def cells_per_op(self) -> int:
        return math.prod(len(values) for values in (self.grid or {}).values())


#: sweep warm-up: one cell that reaches the quantizer and the gradient path
SWEEP_WARMUP_GRID = {"method": ["gradient"], "bits": [10]}


#: Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-exact",
            settings=dict(method="gradient", grad_threshold=0.8, delta=0.5, bits=None,
                          no_artifacts=True),
            grid=None, inputs=5, trace_ops=5, zero_noise=True,
            required=_ALWAYS_USED + ("pointcloud.read_kitti_bin", "pointcloud.filter_by_range",
                                 "gradient.explore_windows", "gradient.interpolate",
                                 "pipeline.run_pipeline"),
        ),
        Workload(
            name="scan-quant",
            settings=dict(method="bilinear", bits=10, delta=0.5, no_artifacts=False),
            grid=None, inputs=5, trace_ops=5,
            required=_ALWAYS_USED + ("pointcloud.read_kitti_bin", "pointcloud.filter_by_range",
                                 "pointcloud.write_ply", "projection.write_pgm", "lossy.quantize",
                                 "baselines.upscale_baseline", "pipeline.run_pipeline",
                                 "pipeline.write_artifacts"),
        ),
        Workload(
            name="sweep-synth",
            settings=dict(delta=0.5, no_artifacts=True),
            grid={"method": ["bilinear", "gradient"], "bits": [None, 10],
                  "grad_threshold": [0.8, 2.5]},
            inputs=3, trace_ops=1,
            required=_ALWAYS_USED + ("synth.synth_scene", "pointcloud.filter_by_range",
                                 "lossy.quantize", "gradient.explore_windows",
                                 "gradient.interpolate", "baselines.upscale_baseline",
                                 "pipeline.sweep"),
        ),
    )
}


# ------------------------------------------------------------------ inputs

class Inputs:
    """The generated inputs of one workload run and the operation on them."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.configs: list[PipelineConfig] = []

    def generate(self) -> None:
        """Write the scans (scan workloads) or name the specs (sweep)."""
        w = self.workload
        base = PipelineConfig(out_dir=str(self.work / "out"), **w.settings)
        self.configs = []
        for i in range(w.inputs):
            if w.grid is None:
                path = self.work / f"scan_{i:02d}.bin"
                riterp.write_kitti_bin(riterp.synth_scene(self.seed + i, base.geometry), path)
                spec = str(path)
            else:
                spec = f"synth:{self.seed + i}"
            self.configs.append(PipelineConfig(inputs=[spec], out_dir=base.out_dir, **w.settings))

    def run(self, i: int, grid: dict | None = None) -> list[dict]:
        """One operation on input i: a run_pipeline call or a sweep call.
        Returns one row per cell; a failed cell has a non-empty 'error'."""
        config = self.configs[i]
        grid = grid or self.workload.grid
        if grid is not None:
            return pipeline.sweep(config, grid)
        try:
            return pipeline.run_pipeline(config)
        except RuntimeError as err:
            return [{**config.echo(), "input": config.inputs[0], "error": str(err)}]

    def warm_up(self) -> None:
        self.run(0, SWEEP_WARMUP_GRID if self.workload.grid else None)

    def source_cloud(self, i: int) -> PointCloud:
        """The cloud the pipeline ingests for input i."""
        if self.workload.grid is None:
            return read_kitti_bin(self.configs[i].inputs[0])
        return riterp.synth_scene(self.seed + i)


def cell_key(i: int, row: dict) -> str:
    return f"{i}|{row.get('method')}|{row.get('bits')}|{row.get('grad_threshold')}"


def cell_ms(row: dict) -> float:
    """A sweep row's own total of its per-stage wall times."""
    return sum(v for k, v in row.items() if k.startswith("time_") and k.endswith("_ms"))


# ------------------------------------------------------------------ checks

class Checker:
    """Output checks applied to every timed cell. A cell that fails any
    check counts as failed; the reasons are kept for the result file."""

    def __init__(self, workload: Workload, inputs: Inputs, reference: dict | None):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.seen: dict[str, tuple] = {}
        self.nn_verdict: dict[int, list[str]] = {}
        self.problems: list[str] = []

    def _fail(self, key: str, reason: str) -> str:
        if len(self.problems) < 50:
            self.problems.append(f"{key}: {reason}")
        return reason

    def cell(self, i: int, row: dict) -> list[str]:
        key = cell_key(i, row)
        if row.get("error"):
            return [self._fail(key, f"error: {row['error']}")]
        reasons = []
        quality = tuple(row[k] for k in QUALITY)
        first = self.seen.setdefault(key, quality)
        if quality != first:
            reasons.append(self._fail(key, f"quality {quality} differs from first run {first}"))
        n, ratio, densify = row["interp_points"], row["noise_ratio"], row["densify_count"]
        noisy = 0 if ratio is None else round(ratio * n)
        if densify + noisy != n or (ratio is not None and abs(ratio * n - noisy) > 1e-9 * n):
            reasons.append(self._fail(key, f"densify {densify} + noisy {ratio}*{n} != {n}"))
        if self.workload.zero_noise and ratio != 0:
            reasons.append(self._fail(key, f"noise_ratio {ratio} != 0 (criterion 2)"))
        if self.reference is not None:
            want = self.reference.get(key)
            if want is None:
                reasons.append(self._fail(key, "no reference numbers for this cell"))
            else:
                for name in RECORDED:
                    got, exp = row[name], want[name]
                    same = (got == exp if not isinstance(exp, float)
                            else abs(got - exp) <= REL_TOL * abs(exp))
                    if not same:
                        reasons.append(self._fail(key, f"{name} {got!r} != reference {exp!r}"))
        return reasons

    def nearest_neighbours(self, i: int) -> list[str]:
        """KdTree.query against a brute-force scan, once per input, on a
        fixed sample of query points of which half are exact reference
        points; distances must be identical (criterion 4). The verdict is
        cached and applies to every cell of the input."""
        if i not in self.nn_verdict:
            config = self.inputs.configs[i]
            cloud = filter_by_range(self.inputs.source_cloud(i), config.range_min, config.range_max)
            ref = ri_to_cloud(cloud_to_ri(cloud, config.geometry)).points
            rng = np.random.default_rng([self.inputs.seed, i])
            queries = ref[rng.choice(len(ref), NN_QUERIES)]
            queries[NN_QUERIES // 2:] += rng.normal(0.0, 0.1, size=(NN_QUERIES - NN_QUERIES // 2, 3))
            brute = np.array([math.sqrt(((ref - q) ** 2).sum(axis=1).min()) for q in queries])
            dist, _ = riterp.KdTree(PointCloud(points=ref)).query(queries)
            bad = int(np.count_nonzero(dist != brute))
            self.nn_verdict[i] = [self._fail(
                f"input {i}", f"KdTree.query differs from brute force on {bad} of {NN_QUERIES} points")
            ] if bad else []
        return self.nn_verdict[i]


def load_reference(workload: Workload, seed: int) -> dict | None:
    """Reference numbers recorded for the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_FILE.read_text())[workload.name]


# ------------------------------------------------------------------ stats

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with fewer than 11 samples, the maximum."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ runs

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    details: dict

    def summary(self) -> dict:
        """The result line's object: exactly these four keys."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _run_op(inputs: Inputs, checker: Checker, i: int, tracer: Tracer | None = None,
            op: str = "") -> tuple[float, list[dict], int]:
    """Time one operation, then check it untimed. Returns (seconds, rows,
    failed cells)."""
    if tracer is not None:
        tracer.op, tracer.active = op, True
    t0 = time.perf_counter()
    try:
        rows = inputs.run(i)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    nn_reasons = checker.nearest_neighbours(i)
    failed = sum(1 for row in rows if checker.cell(i, row) or nn_reasons)
    failed += max(0, inputs.workload.cells_per_op - len(rows))  # missing rows count as failed
    return elapsed, rows, failed


def _setup(workload: Workload, seed: int, work: Path, repeat: int) -> tuple[Inputs, float]:
    t0 = time.perf_counter()
    inputs = Inputs(workload, seed, work / f"setup{repeat}")
    inputs.work.mkdir(parents=True)
    inputs.generate()
    inputs.warm_up()
    return inputs, time.perf_counter() - t0


def run_timed(workload: Workload, seed: int, seconds: float, work: Path,
              import_s: float, reference: dict | None) -> Result:
    """End-to-end metrics, tracing off."""
    setups = []
    for repeat in range(SETUP_REPEATS):
        inputs, setup = _setup(workload, seed, work, repeat)
        setups.append(import_s + setup)
        if repeat + 1 < SETUP_REPEATS:
            shutil.rmtree(inputs.work)
    checker = Checker(workload, inputs, reference)

    samples, busy, cells, failed, ops = [], 0.0, 0, 0, 0
    while busy < seconds:
        i = ops % workload.inputs
        elapsed, rows, bad = _run_op(inputs, checker, i)
        ops += 1
        busy += elapsed
        cells += workload.cells_per_op
        failed += bad
        if workload.grid is None:
            samples.append(elapsed * 1e3)
        else:
            samples.extend(cell_ms(row) for row in rows if not row.get("error"))

    samples = samples or [busy * 1e3 / cells]  # every sweep row failed: no stage times
    p50 = statistics.median(samples)
    tail_ms, tail_pct = tail(samples)
    metrics = {
        "scan_ms_p50": (p50, "ms"),
        "scan_ms_tail": (tail_ms, "ms"),
        "cells_per_s": (cells / busy, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "scan_ms_samples": len(samples),
        "scan_ms_all": samples,
        "scan_ms_tail_percentile": round(tail_pct, 2),
        "operations": ops,
        "timed_s": busy,
        "setup_s_all": setups,
        "error_rate": failed / cells,
        "problems": checker.problems,
    }
    return Result(failed == 0, cells, failed, metrics, details)


def run_traced(workload: Workload, seed: int, seconds: float, work: Path,
               reference: dict | None) -> tuple[Result, list]:
    """Per-layer metrics. Alternates an untraced and a traced pass over
    the first ``trace_ops`` inputs until ``seconds`` have passed; the
    difference in cells per second between them is the tracing overhead.
    Raises RuntimeError if a required span recorded no call."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op, tracer.active = "setup", True
        try:
            inputs, _ = _setup(workload, seed, work, 0)
        finally:
            tracer.active = False
        checker = Checker(workload, inputs, reference)
        cells_per_pass = workload.trace_ops * workload.cells_per_op
        plain_s, traced_s, attempted, failed = [], [], 0, 0
        passes: list[dict] = []
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < seconds:
            p = len(passes)
            for times, trace in ((plain_s, None), (traced_s, tracer)):
                total = 0.0
                for i in range(workload.trace_ops):
                    elapsed, _, bad = _run_op(inputs, checker, i, trace, f"p{p}.op{i}")
                    total += elapsed
                    attempted += workload.cells_per_op
                    failed += bad
                times.append(total)
            picked, selfs = ops_of(tracer.spans, {f"p{p}.op{i}" for i in range(workload.trace_ops)})
            if p == 0:
                missing = check_guard(picked, workload.required)
                if missing:
                    raise RuntimeError(
                        f"trace guard: {workload.name} recorded no call to {', '.join(missing)}; "
                        "the benchmark's wrappers no longer see this layer")
            passes.append(layer_metrics(picked, selfs, cells_per_pass))
    finally:
        tracer.uninstall()

    unsteady = [f"count {name} differs between traced passes: {sorted({m[name] for m in passes})}"
                for name in EXACT if len({m[name] for m in passes}) > 1]
    metrics = {name: (passes[0][name] if name in EXACT else statistics.median(m[name] for m in passes),
                      unit_of(name))
               for name in passes[0]}
    setup_spans = [s for s in tracer.spans if s.op == "setup" and s.name == "synth.synth_scene"]
    metrics["setup.synth_scene.ms"] = (sum(s.ms for s in setup_spans), "ms")
    metrics["setup.synth_scene.calls"] = (len(setup_spans), "count")
    plain = cells_per_pass * len(plain_s) / sum(plain_s)
    traced = cells_per_pass * len(traced_s) / sum(traced_s)
    metrics["trace.overhead_cells_per_s"] = (plain - traced, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (plain - traced) / plain, "%")
    details = {
        "passes": len(passes),
        "cells_per_pass": cells_per_pass,
        "cells_per_s_untraced": plain,
        "cells_per_s_traced": traced,
        "error_rate": failed / attempted,
        "problems": checker.problems + unsteady,
    }
    return Result(failed == 0 and not unsteady, attempted, failed, metrics, details), tracer.spans


def record_reference(seed: int, work: Path) -> dict:
    """Quality numbers of every cell each workload can reach at ``seed``."""
    out = {}
    for workload in WORKLOADS.values():
        inputs = Inputs(workload, seed, work / workload.name)
        inputs.work.mkdir(parents=True)
        inputs.generate()
        cells = {}
        for i in range(workload.inputs):
            for row in inputs.run(i):
                if row.get("error"):
                    raise RuntimeError(f"{workload.name} input {i}: {row['error']}")
                cells[cell_key(i, row)] = {name: row[name] for name in RECORDED}
        out[workload.name] = cells
    return out
