"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping riterp's public functions (and the
``KdTree`` constructor and ``query``) from outside the package: every
``riterp.*`` module global that refers to a wrapped function is swapped
for the wrapper, so the calls ``pipeline`` makes are timed however it
imports them. Nothing in ``src/`` is edited; ``Tracer.uninstall`` puts
the originals back.

Each span holds its name, layer (the riterp module), operation id,
parent span, start and end (``perf_counter_ns``), and the counts measured
at that boundary. Counts are computed after the span's end is taken, so
they cost the traced run time but not the span.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    op: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _count_write_ply(args, kwargs, result) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _count_ri_to_cloud(args, kwargs, result) -> dict:
    return {"points": len(result)}


def _count_explore(args, kwargs, result) -> dict:
    return {"sites": len(result)}


def _count_interpolate(args, kwargs, result) -> dict:
    # odd output columns are the inserted pixels; a fill is never EMPTY
    # because it is the midpoint of two depths >= min_depth > 0
    return {"fills": int(np.count_nonzero(result.depth[:, 1::2]))}


def _count_kdtree_build(args, kwargs, result) -> dict:
    cloud = kwargs.get("cloud", args[1] if len(args) > 1 else None)
    return {"points": len(cloud)}


def _count_kdtree_query(args, kwargs, result) -> dict:
    dist = result[0]
    return {"points": int(dist.size), "nn_zero": int(np.count_nonzero(dist == 0.0))}


#: (module, attribute, span name, counter). Span names are
#: "<layer>.<function>"; the layer is the riterp module the code lives in.
#: Entries whose attribute does not exist are skipped, so a function a
#: later version deletes simply stops being traced; the trace guard
#: (each workload's ``required`` spans) catches the ones it cannot lose.
WRAPPED = (
    ("synth", "synth_scene", "synth.synth_scene", None),
    ("pointcloud", "read_kitti_bin", "pointcloud.read_kitti_bin", None),
    ("pointcloud", "filter_by_range", "pointcloud.filter_by_range", None),
    ("pointcloud", "write_ply", "pointcloud.write_ply", _count_write_ply),
    ("projection", "cloud_to_ri", "projection.cloud_to_ri", None),
    ("projection", "ri_to_cloud", "projection.ri_to_cloud", _count_ri_to_cloud),
    ("projection", "pixel_origins", "projection.pixel_origins", None),
    ("projection", "occupancy", "projection.occupancy", None),
    ("projection", "write_pgm", "projection.write_pgm", None),
    ("lossy", "downsample_ri", "lossy.downsample_ri", None),
    ("lossy", "quantize", "lossy.quantize", None),
    ("gradient", "upscale_gradient", "gradient.upscale_gradient", None),
    ("gradient", "explore_windows", "gradient.explore_windows", _count_explore),
    ("gradient", "interpolate", "gradient.interpolate", _count_interpolate),
    ("baselines", "upscale_baseline", "baselines.upscale_baseline", None),
    ("metrics", "ssim", "metrics.ssim", None),
    ("metrics", "noise_ratio", "metrics.noise_ratio", None),
    ("metrics", "chamfer", "metrics.chamfer", None),
    ("metrics", "KdTree.__init__", "metrics.kdtree_build", _count_kdtree_build),
    ("metrics", "KdTree.query", "metrics.kdtree_query", _count_kdtree_query),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "sweep", "pipeline.sweep", None),
    ("pipeline", "run_scan", "pipeline.run_scan", None),
    ("pipeline", "write_artifacts", "pipeline.write_artifacts", None),
)

LAYERS = ("synth", "pointcloud", "projection", "lossy", "gradient",
          "baselines", "metrics", "pipeline")


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so untimed checks and untraced passes are not recorded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, layer, self.op, parent, time.perf_counter_ns())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every wrapped function for its recording wrapper."""
        import riterp  # noqa: F401  (loads every riterp submodule)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "riterp" or n.startswith("riterp."))]
        for module_name, attr, name, count in WRAPPED:
            owner = sys.modules.get(f"riterp.{module_name}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, method, None) if cls is not None else None
                if original is None:
                    continue
                self._patch(cls, method, self._wrap(original, name, count))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, target, key: str, value) -> None:
        self._patches.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()


def self_ms(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children.
    Spans are single-threaded and properly nested, so children never
    overlap and this is the time not covered by any child."""
    out = [s.ms for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.ms
    return out


def ops_of(spans: list[Span], ops: set[str]) -> tuple[list[Span], list[float]]:
    """The spans of the given operations and their self times. Parent
    indices are re-based onto the selection."""
    keep = [i for i, s in enumerate(spans) if s.op in ops]
    index = {old: new for new, old in enumerate(keep)}
    picked = [Span(s.name, s.layer, s.op, index.get(s.parent, -1), s.start_ns, s.end_ns, s.counts)
              for s in (spans[i] for i in keep)]
    return picked, self_ms(picked)


def layer_metrics(spans: list[Span], selfs: list[float], cells: int) -> dict[str, float]:
    """Per-layer metrics over one traced pass of ``cells`` cells.

    ``.ms`` values are milliseconds per cell; ``.calls``, ``.points``,
    ``.bytes``, ``sites`` and ``fills`` are totals over the pass.
    """
    def total_ms(name):
        return sum(s.ms for s in spans if s.name == name) / cells

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def self_of(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name) / cells

    sites = count("gradient.explore_windows", "sites")
    fills = count("gradient.interpolate", "fills")
    queried = count("metrics.kdtree_query", "points")
    out = {
        "synth.synth_scene.ms": total_ms("synth.synth_scene"),
        "synth.synth_scene.calls": calls("synth.synth_scene"),
        "pointcloud.read_kitti_bin.ms": total_ms("pointcloud.read_kitti_bin"),
        "pointcloud.filter_by_range.ms": total_ms("pointcloud.filter_by_range"),
        "pointcloud.write_ply.ms": total_ms("pointcloud.write_ply"),
        "pointcloud.write_ply.bytes": count("pointcloud.write_ply", "bytes"),
        "projection.cloud_to_ri.ms": total_ms("projection.cloud_to_ri"),
        "projection.cloud_to_ri.calls": calls("projection.cloud_to_ri"),
        "projection.ri_to_cloud.ms": total_ms("projection.ri_to_cloud"),
        "projection.ri_to_cloud.points": count("projection.ri_to_cloud", "points"),
        "projection.write_pgm.ms": total_ms("projection.write_pgm"),
        "lossy.downsample_ri.ms": total_ms("lossy.downsample_ri"),
        "lossy.quantize.ms": total_ms("lossy.quantize"),
        "gradient.explore_windows.ms": total_ms("gradient.explore_windows"),
        "gradient.interpolate.ms": total_ms("gradient.interpolate"),
        "gradient.sites": sites,
        "gradient.fills": fills,
        "gradient.fill_ratio": fills / sites if sites else 0.0,
        "baselines.upscale_baseline.ms": total_ms("baselines.upscale_baseline"),
        "metrics.ssim.ms": total_ms("metrics.ssim"),
        "metrics.kdtree_build.ms": total_ms("metrics.kdtree_build"),
        "metrics.kdtree_build.calls": calls("metrics.kdtree_build"),
        "metrics.kdtree_build.points": count("metrics.kdtree_build", "points"),
        "metrics.kdtree_query.ms": total_ms("metrics.kdtree_query"),
        "metrics.kdtree_query.points": queried,
        "metrics.nn_zero_frac": count("metrics.kdtree_query", "nn_zero") / queried if queried else 0.0,
        "pipeline.run_scan.self_ms": self_of("pipeline.run_scan"),
        "pipeline.sweep.self_ms": self_of("pipeline.sweep"),
        "pipeline.write_artifacts.ms": total_ms("pipeline.write_artifacts"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer) / cells
    return out


def unit_of(name: str) -> str:
    if name.endswith("ms"):
        return "ms/cell"
    if name.endswith("frac") or name.endswith("ratio"):
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


#: Counts (and ratios of counts) that must repeat exactly between traced
#: passes over the same inputs; every other layer metric is a time.
EXACT = tuple(name for name in layer_metrics([], [], 1) if unit_of(name) != "ms/cell")


def check_guard(spans: list[Span], required: tuple[str, ...]) -> list[str]:
    """Names of required spans that recorded no call."""
    seen = {s.name for s in spans}
    return [name for name in required if name not in seen]
