"""Self-test of the benchmark on a tiny geometry: every workload path,
every check and every span type, in seconds.

    python3 -m pytest benchmarks -q
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dict(width=256, height=16)


def tiny(name: str) -> harness.Workload:
    """The workload on a 256x16 image with two inputs. sweep() always
    synthesizes full 2048x64 scenes, so its grid is cut to four cells."""
    w = harness.WORKLOADS[name]
    tiny_w = replace(w, settings={**w.settings, **TINY}, inputs=2, trace_ops=min(w.trace_ops, 2))
    if w.grid is not None:
        tiny_w = replace(tiny_w, inputs=1, grid={"method": ["bilinear", "gradient"], "bits": [None, 10]})
    return tiny_w


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(name, tmp_path):
    result = harness.run_timed(tiny(name), seed=3, seconds=0.2, work=tmp_path,
                               import_s=0.5, reference=None)
    assert result.correct, result.details["problems"]
    assert result.failed == 0 and result.attempted >= 1
    assert {k: u for k, (_, u) in result.metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in result.metrics.values())
    assert set(result.summary()) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_run_reports_every_layer_and_repeats_counts(name, tmp_path):
    w = tiny(name)
    result, recorded = harness.run_traced(w, seed=3, seconds=0.3, work=tmp_path, reference=None)
    assert result.correct, result.details["problems"]
    assert {k: u for k, (_, u) in result.metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert not spans.check_guard(recorded, w.required)
    cells = result.details["cells_per_pass"]
    assert result.metrics["projection.cloud_to_ri.calls"][0] == cells
    assert result.metrics["metrics.kdtree_build.calls"][0] == 2 * cells
    if name == "scan-exact":
        assert result.metrics["metrics.nn_zero_frac"][0] > 0
        assert 0 < result.metrics["gradient.fill_ratio"][0] <= 1
    if name == "scan-quant":
        assert result.metrics["metrics.nn_zero_frac"][0] == 0
        assert result.metrics["pointcloud.write_ply.bytes"][0] > 0


def test_tracer_restores_the_originals(tmp_path):
    import riterp.pipeline

    before = riterp.pipeline.ssim, riterp.KdTree.query, riterp.pipeline.run_scan
    harness.run_traced(tiny("scan-exact"), seed=3, seconds=0, work=tmp_path, reference=None)
    assert (riterp.pipeline.ssim, riterp.KdTree.query, riterp.pipeline.run_scan) == before


def test_trace_guard_fails_loudly(tmp_path):
    w = replace(tiny("scan-exact"), required=("gradient.no_such_function",))
    with pytest.raises(RuntimeError, match="trace guard.*gradient.no_such_function"):
        harness.run_traced(w, seed=3, seconds=0, work=tmp_path, reference=None)


def test_self_time_subtracts_direct_children():
    s = [
        spans.Span("pipeline.run_scan", "pipeline", "op", -1, 0, 100_000_000),
        spans.Span("metrics.chamfer", "metrics", "op", 0, 10_000_000, 70_000_000),
        spans.Span("metrics.kdtree_query", "metrics", "op", 1, 20_000_000, 50_000_000),
        spans.Span("lossy.quantize", "lossy", "op", 0, 80_000_000, 90_000_000),
    ]
    assert spans.self_ms(s) == pytest.approx([30.0, 30.0, 30.0, 10.0])
    picked, selfs = spans.ops_of(s, {"op"})
    m = spans.layer_metrics(picked, selfs, cells=2)
    assert m["pipeline.self_ms"] == pytest.approx(15.0)
    assert m["metrics.self_ms"] == pytest.approx(30.0)


def _row(**over):
    row = dict(method="gradient", bits=None, grad_threshold=0.8, error="", ssim=0.9,
               noise_ratio=0.25, densify_count=3, chamfer=0.01, interp_points=4,
               points_in=10, points_out=8)
    row.update(over)
    return row


def test_checker_flags_each_kind_of_bad_cell():
    w = tiny("scan-exact")
    key = harness.cell_key(0, _row())
    reference = {key: {name: _row()[name] for name in harness.RECORDED}}
    checker = harness.Checker(replace(w, zero_noise=False), inputs=None, reference=reference)
    assert checker.cell(0, _row()) == []
    assert checker.cell(0, _row(chamfer=0.01 * (1 + 1e-13))) != []  # differs from the first run
    fresh = harness.Checker(replace(w, zero_noise=False), inputs=None, reference=reference)
    assert fresh.cell(0, _row(chamfer=0.01 * (1 + 1e-11))) != []  # beyond 1e-12 of the reference
    assert fresh.cell(1, _row()) == ["no reference numbers for this cell"]
    assert harness.Checker(w, None, None).cell(0, _row(densify_count=2)) != []
    assert harness.Checker(w, None, None).cell(0, _row()) == ["noise_ratio 0.25 != 0 (criterion 2)"]
    assert harness.Checker(w, None, None).cell(0, _row(error="stage 'score': boom")) != []


def test_reference_covers_every_cell_of_the_default_seed():
    for w in harness.WORKLOADS.values():
        ref = harness.load_reference(w, harness.DEFAULT_SEED)
        assert len(ref) == w.inputs * w.cells_per_op
    assert harness.load_reference(harness.WORKLOADS["scan-exact"], 1) is None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail(list(range(100))) == (89, 90.0)
    assert harness.tail([5.0, 1.0]) == (5.0, 100.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan-exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
