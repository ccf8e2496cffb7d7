import itertools
import json
import math
import operator
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from riterp import (
    PipelineConfig,
    RiGeometry,
    PointCloud,
    cloud_to_ri,
    downsample_ri,
    filter_by_range,
    KdTree,
    load_ri,
    quantize,
    ri_to_cloud,
    run_scan,
    save_ri,
    ssim,
    sweep,
    synth_scene,
    upscale_gradient,
    write_kitti_bin,
)
from riterp import metrics, pipeline, projection
from riterp.cli import _config_from_args, _config_keys, build_parser, main
from riterp.metrics import noise_split
from riterp.pipeline import (
    INTERP_COLOR,
    METHODS,
    SOURCE_COLOR,
    STAGE_FIELDS,
    STAGES,
    StageError,
    degrade_ri,
    evaluate,
    interp_mask,
    load_scan,
    point_colors,
    prepare_scan,
    run_pipeline,
    upscale_ri,
)

from conftest import count_builds, ladder_left

SMALL = dict(width=256, height=64, delta=0.5, no_artifacts=True)
SRC = Path(__file__).resolve().parents[1] / "src"

#: run in a fresh interpreter: the live threads, whether scipy.spatial is
#: loaded and the points the k-d trees scored, after a gradient-only sweep
#: and then after a bilinear one
_THREADS_AT_SWEEPS = '''
import json, sys, threading
from riterp import PipelineConfig, sweep
config = PipelineConfig(inputs=["synth:0"], grad_threshold=0.8, no_artifacts=True)
seen = {}
for method in ("gradient", "bilinear"):
    rows = sweep(config, {"method": [method]})
    seen[method] = {"threads": threading.active_count(), "scipy": "scipy.spatial" in sys.modules,
                    "tree_points": sum(row["nn_tree_points"] for row in rows)}
print(json.dumps(seen))
'''


def small_config(**kw):
    merged = {**SMALL, **kw}
    return PipelineConfig(**merged)


def strip_times(report: dict) -> dict:
    return {k: v for k, v in report.items() if not k.startswith("time_")}


#: every field of a report row that is not a config echo or a time
RESULT_FIELDS = ("input", "ssim", "noise_ratio", "chamfer", "densify_count", "interp_points",
                 "ref_occupancy", "degraded_occupancy", "test_occupancy", "points_in", "points_out")


def count_loads(monkeypatch) -> list[str]:
    """Record every spec pipeline.load_scan is called with."""
    calls = []
    real = pipeline.load_scan
    monkeypatch.setattr(pipeline, "load_scan", lambda spec: calls.append(spec) or real(spec))
    return calls


def same_stem_scans(tmp_path) -> list[str]:
    """a/scan.bin and b/scan.bin: two inputs with one file stem."""
    specs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        write_kitti_bin(synth_scene(0), tmp_path / sub / "scan.bin")
        specs.append(str(tmp_path / sub / "scan.bin"))
    return specs


def above_fov_scan(tmp_path) -> str:
    """A .bin whose two points pass the range filter but lie above the
    default geometry's pitch_max."""
    path = tmp_path / "above.bin"
    write_kitti_bin(PointCloud(points=[[10.0, 0.0, 10.0], [0.0, 20.0, 30.0]]), path)
    return str(path)


class TestConfigValidation:
    def test_rejects_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            PipelineConfig(method="cubic")

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            PipelineConfig(width=1)

    def test_rejects_bad_quantizer(self):
        with pytest.raises(ValueError):
            PipelineConfig(bits=2)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            PipelineConfig(grad_threshold=-1.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_rejects_delta_not_above_zero(self, delta):
        # a NaN delta would count no point as noisy
        with pytest.raises(ValueError, match=f"^delta must be > 0, got {delta}$"):
            PipelineConfig(delta=delta)

    @pytest.mark.parametrize("key", ["pitch_max", "max_depth"])
    def test_rejects_infinite_geometry(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            PipelineConfig(**{key: math.inf})

    @pytest.mark.parametrize("key, value", [("bits", 10.5), ("factor_x", 2.0), ("factor_y", 1.0),
                                            ("width", 2048.0), ("height", 64.0)])
    def test_rejects_non_integer_setting(self, key, value):
        # before any scan: 10.5 bits ran and scored a quantizer no codec
        # has, factor_x 2.0 failed at stage degrade and width 2048.0 at project
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value}$"):
            PipelineConfig(**{key: value})

    def test_numpy_integer_settings_are_legal(self):
        config = small_config(inputs=["synth:0"], method="bilinear", bits=np.int64(10),
                              factor_x=np.int64(2), width=np.int64(512))
        report, _ = run_scan("synth:0", config)
        assert strip_times(report) == strip_times(run_scan("synth:0", small_config(
            inputs=["synth:0"], method="bilinear", bits=10, factor_x=2, width=512))[0])

    def test_infinite_range_max_is_legal(self):
        assert PipelineConfig(range_max=math.inf).range_max == math.inf

    @pytest.mark.parametrize("bounds", [dict(range_min=math.nan), dict(range_max=math.nan),
                                        dict(range_min=50.0, range_max=10.0), dict(range_min=-1.0),
                                        dict(range_min=5.0, range_max=5.0)])
    def test_rejects_bad_range_filter(self, bounds):
        # the range filter's own rule, named by the config keys
        with pytest.raises(ValueError, match=r"^require 0 <= range_min < range_max"):
            PipelineConfig(**bounds)

    def test_echo_contains_every_field(self):
        config = small_config(inputs=["synth:0", "synth:1"])
        echo = config.echo()
        assert echo["inputs"] == "synth:0;synth:1"
        assert echo["width"] == 256
        assert "grad_threshold" in echo and "delta" in echo

    def test_gradient_requires_2x1_factors(self):
        with pytest.raises(ValueError, match="2x horizontal"):
            PipelineConfig(method="gradient", factor_x=4)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("factors", [dict(factor_x=0), dict(factor_y=0), dict(factor_x=3),
                                         dict(factor_y=3), dict(factor_x=-2)])
    def test_factors_must_divide_the_ri_for_every_method(self, method, factors):
        with pytest.raises(ValueError, match="factors"):
            small_config(method=method, **factors)

    @pytest.mark.parametrize("window", [dict(window_w=3), dict(window_h=3), dict(window_w=1),
                                        dict(window_h=0), dict(width=100)])
    def test_gradient_window_must_tile_degraded_ri(self, window):
        with pytest.raises(ValueError, match="does not tile"):
            PipelineConfig(method="gradient", **window)
        PipelineConfig(method="bilinear", **window)  # no windows without gradient


class TestRunScan:
    def test_gradient_report_fields(self, tmp_path):
        config = small_config(inputs=["synth:0"], method="gradient")
        report, artifacts = run_scan("synth:0", config)
        assert report["input"] == "synth:0"
        assert 0 <= report["ssim"] <= 1
        assert report["noise_ratio"] is not None
        assert report["chamfer"] >= 0
        assert report["interp_points"] > 0
        assert report["points_out"] > report["interp_points"]
        for stage in ("ingest", "filter", "project", "degrade", "interp", "reconstruct", "score"):
            assert f"time_{stage}_ms" in report
        assert artifacts["upscaled"] is not None

    def test_method_none_skips_interpolation(self):
        config = small_config(inputs=["synth:0"], method="none")
        report, artifacts = run_scan("synth:0", config)
        assert report["noise_ratio"] is None
        assert report["interp_points"] == 0
        assert artifacts["upscaled"] is None
        # no quantization: degraded equals the decimated reference exactly
        assert report["ssim"] == 1.0

    def test_method_none_with_quantization(self):
        config = small_config(inputs=["synth:0"], method="none", bits=8)
        report, _ = run_scan("synth:0", config)
        assert report["ssim"] < 1.0

    def test_matches_manual_composition(self):
        config = small_config(inputs=["synth:0"], method="gradient", grad_threshold=1.0)
        report, _ = run_scan("synth:0", config)

        cloud = synth_scene(0)
        geom = config.geometry
        ref = cloud_to_ri(cloud, geom)
        deg = downsample_ri(ref, 2, 1)
        up = upscale_gradient(deg, config.window_w, config.window_h, config.grad_threshold,
                              config.max_fills, config.policy_order)
        ref_cloud = ri_to_cloud(ref)
        test_cloud = ri_to_cloud(up)
        _, cols = np.nonzero(up.occupied)
        interp = test_cloud.points[cols % 2 != 0]
        ratio, densify = noise_split(KdTree(ref_cloud).query(interp)[0], config.delta)

        assert report["ssim"] == ssim(up, ref)
        assert report["noise_ratio"] == ratio
        assert report["densify_count"] == densify
        assert report["interp_points"] == len(interp)

    def test_bilinear_and_gradient_reports_comparable(self):
        r1, _ = run_scan("synth:0", small_config(inputs=["synth:0"], method="bilinear"))
        r2, _ = run_scan("synth:0", small_config(inputs=["synth:0"], method="gradient"))
        for key in ("ssim", "noise_ratio", "chamfer", "densify_count"):
            assert key in r1 and key in r2

    def test_deterministic_reports(self):
        config = small_config(inputs=["synth:1"], method="gradient")
        a, _ = run_scan("synth:1", config)
        b, _ = run_scan("synth:1", config)
        assert strip_times(a) == strip_times(b)

    def test_missing_input_names_stage(self):
        config = small_config(inputs=["nope.bin"])
        with pytest.raises(StageError, match="ingest"):
            run_scan("nope.bin", config)

    @pytest.mark.parametrize("make", ["empty", "out_of_range"])
    def test_empty_after_filter_stops_at_filter(self, make, tmp_path, monkeypatch):
        path = tmp_path / f"{make}.bin"
        cloud = PointCloud(points=np.zeros((0, 3))) if make == "empty" else \
            PointCloud(points=[[200.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        write_kitti_bin(cloud, path)
        scored = []
        monkeypatch.setattr(pipeline, "KdTree", lambda cloud: scored.append(cloud))
        with pytest.raises(StageError, match=str(path)) as err:
            run_scan(str(path), small_config(inputs=[str(path)]))
        assert err.value.stage == "filter"
        assert not scored

    def test_no_point_inside_the_fov_stops_at_project(self, tmp_path, monkeypatch):
        spec = above_fov_scan(tmp_path)
        scored = []
        monkeypatch.setattr(pipeline, "KdTree", lambda cloud: scored.append(cloud))
        with pytest.raises(StageError) as err:
            run_scan(spec, small_config(inputs=[spec]))
        assert err.value.stage == "project"
        assert spec in str(err.value) and "vertical FOV" in str(err.value)
        assert "\n" not in str(err.value)
        assert not scored

    @pytest.mark.parametrize("method", METHODS)
    def test_scoring_accounting_conserves_points(self, method):
        """Window-certified points plus nn_fallback_points are every point
        of both clouds, and the k-d trees resolve at most the fallback
        points (nn_tree_points); method none scores at another geometry,
        so the k-d trees resolve every point. A point is window-certified
        when its exact distance is below its depth times the 3 x 7
        window's radius."""
        report, artifacts = run_scan("synth:3", small_config(inputs=["synth:3"], method=method))
        test_ri = artifacts["degraded"] if artifacts["upscaled"] is None else artifacts["upscaled"]
        ref_ri = artifacts["reference"]
        test_cloud, ref_cloud = test_ri.cloud, ref_ri.cloud
        total = report["points_out"] + len(ref_cloud)
        certified = 0
        if test_ri.geometry == ref_ri.geometry:
            for ri, cloud, other in ((test_ri, test_cloud, ref_cloud), (ref_ri, ref_cloud, test_cloud)):
                left, _ = ladder_left(ri, cKDTree(other.points).query(cloud.points)[0], 0)
                certified += len(cloud) - left
        assert certified + report["nn_fallback_points"] == total
        assert report["nn_tree_points"] <= report["nn_fallback_points"]
        if method == "none":
            assert certified == 0 and report["nn_fallback_points"] == total
            assert report["nn_tree_points"] == total
        else:
            assert 0 < report["nn_fallback_points"] < total // 4

    @pytest.mark.parametrize("method", ["gradient", "bilinear"])
    def test_no_test_cloud_tree_on_a_synth_scan(self, method, monkeypatch):
        """The widening window certifies every reference point the 3 x 7
        window leaves, so scoring builds no k-d tree over the test cloud:
        only the reference's, for the test points left."""
        built = count_builds(monkeypatch)
        config = PipelineConfig(inputs=["synth:0"], method=method, no_artifacts=True)
        report, artifacts = run_scan("synth:0", config)
        assert len(built) == 1 and np.array_equal(built[0], artifacts["reference"].cloud.points)
        assert 0 < report["nn_tree_points"] < report["nn_fallback_points"]

    def test_exact_gradient_scan_builds_no_tree(self, monkeypatch):
        """At threshold 0.8 every gradient fill lies within the test
        cloud's ladder budget of a reference point, and every reference
        point within the reference's, so no k-d tree is built."""
        built = count_builds(monkeypatch)
        config = PipelineConfig(inputs=["synth:0"], method="gradient", grad_threshold=0.8,
                                no_artifacts=True)
        report, _ = run_scan("synth:0", config)
        assert not built
        assert report["nn_tree_points"] == 0 < report["nn_fallback_points"]

    def test_evaluate_rejects_context_of_other_prefix(self):
        ctx = prepare_scan("synth:0", small_config(inputs=["synth:0"]))
        with pytest.raises(ValueError, match="synth:0"):
            evaluate(ctx, small_config(inputs=["synth:0"], range_max=50.0))

    @pytest.mark.parametrize("spec", ["synth:abc", "synth:", "synth:1.5", "synth:-1"])
    def test_bad_synthetic_seed_names_the_input(self, spec):
        with pytest.raises(ValueError, match=f"^{spec}: seed must be a non-negative integer$"):
            load_scan(spec)

    def test_unknown_suffix_rejected(self, tmp_path):
        # 32 bytes would decode as two KITTI records if taken for a .bin
        path = tmp_path / "scan.txt"
        path.write_bytes(bytes(32))
        with pytest.raises(ValueError, match="scan.txt"):
            load_scan(str(path))


@pytest.mark.parametrize("bits", [None, 10])
@pytest.mark.parametrize("method", ["gradient", "bilinear", "none"])
def test_scores_equal_unfused_oracle(method, bits):
    """The fused score stage (one query per direction, coincident pixels
    unqueried, sliding-midpoint trees) reports exactly what default-built
    cKDTrees give with every point queried and the interpolated points
    queried a second time."""
    config = small_config(inputs=["synth:2"], method=method, bits=bits, grad_threshold=1.0)
    report, _ = run_scan("synth:2", config)

    cloud = filter_by_range(synth_scene(2), config.range_min, config.range_max)
    ref_ri = cloud_to_ri(cloud, config.geometry)
    deg_ri = degrade_ri(ref_ri, config.factor_x, config.factor_y, config.bits)
    up_ri = upscale_ri(deg_ri, config)
    test_ri = deg_ri if up_ri is None else up_ri
    ref, test = ri_to_cloud(ref_ri).points, ri_to_cloud(test_ri).points
    d_test, _ = cKDTree(ref).query(test)
    d_ref, _ = cKDTree(test).query(ref)
    assert report["chamfer"] == float(0.5 * (d_test.mean() + d_ref.mean()))
    if up_ri is None:
        assert (report["noise_ratio"], report["densify_count"], report["interp_points"]) == (None, 0, 0)
        return
    d_interp, _ = cKDTree(ref).query(test[interp_mask(test_ri, config.factor_x, config.factor_y)])
    noisy = d_interp > config.delta
    assert report["noise_ratio"] == float(noisy.mean())
    assert report["densify_count"] == int(noisy.size - noisy.sum())
    n = report["interp_points"]
    assert n == d_interp.size > 0
    assert report["densify_count"] + round(report["noise_ratio"] * n) == n


#: the keys riterp score prints for a pair of range images, in order
SCORE_KEYS = ("ssim", "noise_ratio", "chamfer", "densify_count", "interp_points",
              "nn_fallback_points", "nn_tree_points")


@pytest.mark.parametrize("bits", [None, 10])
@pytest.mark.parametrize("method, factor_x", [*((m, 2) for m in METHODS), ("none", 4)])
def test_file_chain_scores_equal_the_pipeline_row(method, factor_x, bits, tmp_path, capsys):
    """convert -> degrade -> interp -> score through .npz files prints
    exactly the pipeline row's scores and counts. Method none skips
    interp and scores the degraded RI, whose geometry sets the
    reference's decimation for SSIM."""
    ri, deg, up = (str(tmp_path / f"{name}.npz") for name in ("ri", "deg", "up"))
    factor = ["--factor-x", str(factor_x)]
    assert main(["convert", "synth:0", ri, "--width", "256", "--height", "64"]) == 0
    assert main(["degrade", ri, deg, *factor, *([] if bits is None else ["--bits", str(bits)])]) == 0
    test = deg
    if method != "none":
        assert main(["interp", deg, up, "--method", method, *factor]) == 0
        test = up
    capsys.readouterr()
    assert main(["score", "--ref-ri", ri, "--test-ri", test, "--method", method, *factor,
                 "--delta", "0.5"]) == 0
    scored = json.loads(capsys.readouterr().out)
    row, _ = run_scan("synth:0", small_config(inputs=["synth:0"], method=method,
                                              factor_x=factor_x, bits=bits))
    assert list(scored) == list(SCORE_KEYS)
    assert scored == {key: row[key] for key in SCORE_KEYS}


@pytest.mark.parametrize("interp", [np.zeros(5, dtype=np.uint8), [0, 1, 0, 1, 1],
                                    np.zeros(4, dtype=bool), np.zeros((5, 1), dtype=bool)])
def test_point_colors_reject_a_mask_that_is_not_count_booleans(interp):
    with pytest.raises(ValueError, match="^interp mask must be 5 booleans, got ") as err:
        point_colors(5, interp)
    assert "\n" not in str(err.value)


def count_projection_calls(monkeypatch, name: str) -> list:
    """Record the image of every call to projection's function `name`,
    through whichever riterp module global calls it."""
    real, calls = getattr(projection, name), []

    def counting(ri):
        calls.append(ri)
        return real(ri)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("riterp") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_score_ris_builds_each_xyz_grid_once(monkeypatch):
    """From two bare images, as from riterp score --ref-ri/--test-ri,
    score_ris builds one xyz grid and one cloud per image, which the
    window search and the k-d trees share."""
    grids = count_projection_calls(monkeypatch, "xyz_grid")
    clouds = count_projection_calls(monkeypatch, "ri_to_cloud")
    config = small_config(method="bilinear")
    ref = cloud_to_ri(synth_scene(0), config.geometry)
    test = upscale_ri(degrade_ri(ref, 2, 1, None), config)
    pipeline.score_ris(test, ref, interp_mask(test, 2, 1), config.delta)
    assert len(grids) == 2 and grids[0] is test and grids[1] is ref
    assert len(clouds) == 2 and clouds[0] is test and clouds[1] is ref


def test_a_scan_builds_one_cloud_per_image(monkeypatch):
    """prepare_scan builds the reference's xyz grid and cloud, and each
    evaluate the test image's: one of each per scan plus one per cell."""
    grids = count_projection_calls(monkeypatch, "xyz_grid")
    clouds = count_projection_calls(monkeypatch, "ri_to_cloud")
    config = small_config(inputs=["synth:0"], method="bilinear")
    ctx = prepare_scan("synth:0", config)
    tests = []
    for cell in (config, replace(config, method="gradient")):
        _, artifacts = evaluate(ctx, cell)
        tests.append(artifacts["upscaled"])
    assert len(clouds) == 3 and all(map(operator.is_, clouds, [ctx.ref_ri, *tests]))
    assert len(grids) == 3 and all(map(operator.is_, grids, clouds))


class TestRunPipeline:
    def test_writes_report_and_artifacts(self, tmp_path):
        out = tmp_path / "run"
        config = small_config(inputs=["synth:0"], out_dir=str(out), no_artifacts=False)
        reports = run_pipeline(config)
        assert len(reports) == 1
        data = json.loads((out / "report.json").read_text())
        assert data[0]["input"] == "synth:0"
        # reports are self-describing: full config echo rides along
        for key in ("width", "grad_threshold", "delta", "method", "factor_x"):
            assert key in data[0]
        assert (out / "synth_0_reference.pgm").exists()
        assert (out / "synth_0_degraded.pgm").exists()
        assert (out / "synth_0_upscaled.pgm").exists()
        assert (out / "synth_0_test_cloud.ply").exists()

    def test_failing_scan_does_not_stop_others(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = small_config(inputs=["missing.bin", "synth:0"], out_dir=str(out))
        with pytest.raises(RuntimeError, match="missing.bin"):
            run_pipeline(config)
        err = capsys.readouterr().err
        assert "missing.bin" in err and "ingest" in err
        data = json.loads((out / "report.json").read_text())
        assert len(data) == 1 and data[0]["input"] == "synth:0"

    def test_reports_sorted_by_input(self, tmp_path):
        config = small_config(inputs=["synth:1", "synth:0"], out_dir=str(tmp_path / "s"))
        reports = run_pipeline(config)
        assert [r["input"] for r in reports] == ["synth:0", "synth:1"]

    def test_same_stem_inputs_rejected_before_any_scan(self, tmp_path):
        specs = same_stem_scans(tmp_path)
        out = tmp_path / "run"
        config = small_config(inputs=specs, out_dir=str(out), no_artifacts=False)
        with pytest.raises(ValueError) as err:
            run_pipeline(config)
        message = str(err.value)
        assert "\n" not in message and all(spec in message for spec in specs)
        assert not out.exists()  # failed before any scan ran or wrote

    def test_same_stem_inputs_allowed_without_artifacts(self, tmp_path):
        specs = same_stem_scans(tmp_path)
        config = small_config(inputs=specs, out_dir=str(tmp_path / "run"))
        assert len(run_pipeline(config)) == 2

    def test_rows_have_the_keys_of_a_scan_report(self, tmp_path):
        config = small_config(inputs=["synth:0"], out_dir=str(tmp_path / "run"))
        reports = run_pipeline(config)
        fresh, _ = run_scan("synth:0", config)
        assert [list(report) for report in reports] == [list(fresh)]
        assert strip_times(reports[0]) == strip_times(fresh)

    @pytest.mark.parametrize("no_artifacts", [True, False])
    def test_repeated_input_gives_a_copied_row(self, tmp_path, no_artifacts):
        out = tmp_path / "run"
        config = small_config(inputs=["synth:0", "synth:0"], out_dir=str(out),
                              no_artifacts=no_artifacts)
        first, second = run_pipeline(config)
        assert strip_times(second) == strip_times(first) and second is not first
        assert not is_copy(first) and is_copy(second)
        # the copy writes no artifacts, so the repeat clashes with nothing
        assert len(list(out.glob("synth_0_*"))) == (0 if no_artifacts else 5)


#: sweep-synth's grid: each bilinear cell appears at two thresholds
SYNTH_GRID = {"method": ["bilinear", "gradient"], "bits": [None, 10], "grad_threshold": [0.8, 2.5]}


def count_evaluates(monkeypatch) -> list[tuple[str, dict]]:
    """Record (spec, config echo) of every cell pipeline.evaluate runs."""
    calls = []
    real = pipeline.evaluate

    def counting(ctx, config):
        calls.append((ctx.spec, config.echo()))
        return real(ctx, config)

    monkeypatch.setattr(pipeline, "evaluate", counting)
    return calls


def is_copy(row: dict) -> bool:
    return all(v == 0.0 for k, v in row.items() if k.startswith("time_"))


class TestSweep:
    def test_stage_table_names_every_field_once(self):
        named = [name for names in STAGE_FIELDS.values() for name in names]
        assert sorted(named) == sorted(f.name for f in fields(PipelineConfig))

    def test_each_distinct_cell_evaluated_once_per_scan(self, monkeypatch):
        calls = count_evaluates(monkeypatch)
        rows = sweep(small_config(inputs=["synth:0", "synth:1"]), SYNTH_GRID)
        assert len(rows) == 16 and not any(row["error"] for row in rows)
        for spec in ("synth:0", "synth:1"):
            mine = [echo for evaluated, echo in calls if evaluated == spec]
            assert len(mine) == 6
            # the bilinear cells run at the first threshold only
            assert {e["grad_threshold"] for e in mine if e["method"] == "bilinear"} == {0.8}
        assert sum(map(is_copy, rows)) == 4

    def test_copied_rows_equal_a_fresh_evaluate(self):
        config = small_config(inputs=["synth:0"])
        rows = sweep(config, SYNTH_GRID)
        assert len({id(row) for row in rows}) == len(rows)
        copies = [row for row in rows if is_copy(row)]
        assert [(row["method"], row["grad_threshold"]) for row in copies] == [("bilinear", 2.5)] * 2
        for row in copies:
            # the copy's own cell: its echo differs from its source row's
            cell = replace(config, method=row["method"], bits=row["bits"],
                           grad_threshold=row["grad_threshold"])
            fresh, _ = run_scan("synth:0", cell)
            assert list(row) == [*fresh, "error"]
            assert strip_times(row) == {**strip_times(fresh), "error": ""}

    @pytest.mark.parametrize("max_fills, evaluated", [(None, 1), (2, 2)])
    def test_order_counts_only_under_a_budget(self, monkeypatch, max_fills, evaluated):
        calls = count_evaluates(monkeypatch)
        config = small_config(inputs=["synth:0"], method="gradient", max_fills=max_fills)
        rows = sweep(config, {"policy_order": ["ascending_depth", "descending_depth"]})
        assert [echo["policy_order"] for _, echo in calls] == [
            "ascending_depth", "descending_depth"][:evaluated]
        assert [row["policy_order"] for row in rows] == ["ascending_depth", "descending_depth"]
        for row in rows:
            fresh, _ = run_scan("synth:0", replace(config, policy_order=row["policy_order"]))
            assert {k: row[k] for k in RESULT_FIELDS} == {k: fresh[k] for k in RESULT_FIELDS}

    def test_degenerate_grid_matches_pipeline(self):
        config = small_config(inputs=["synth:0"], method="gradient")
        rows = sweep(config, {"method": ["gradient"]})
        single, _ = run_scan("synth:0", config)
        assert strip_times({**rows[0], "error": ""}) == strip_times({**single, "error": ""})

    def test_grid_cardinality(self):
        config = small_config(inputs=["synth:0"])
        rows = sweep(config, {"grad_threshold": [1.0, 2.5],
                              "policy_order": ["ascending_depth", "descending_depth"]})
        assert len(rows) == 4

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            sweep(small_config(inputs=["synth:0"]), {"windows": [1]})

    def test_empty_axis_rejected_before_any_scan(self, monkeypatch):
        calls = count_loads(monkeypatch)
        with pytest.raises(ValueError, match="no values for grid field 'method'"):
            sweep(small_config(inputs=["synth:0"]), {"bits": [None, 10], "method": []})
        assert not calls

    def test_failures_become_rows(self):
        config = small_config(inputs=["missing.bin"])
        rows = sweep(config, {"method": ["bilinear"]})
        assert len(rows) == 1
        assert "ingest" in rows[0]["error"]

    def test_bad_range_filter_cell_becomes_row(self, monkeypatch):
        calls = count_loads(monkeypatch)
        config = small_config(inputs=["synth:0"], method="bilinear", range_max=60.0)
        rows = sweep(config, {"range_min": [2.0, 80.0]})
        assert [row["range_min"] for row in rows] == [2.0, 80.0]
        assert rows[0]["error"] == ""
        assert rows[1]["error"].startswith("config: require 0 <= range_min < range_max")
        assert calls == ["synth:0"]  # the bad cell prepares no scan

    @pytest.mark.parametrize("key, value", [("bits", 10.5), ("factor_x", 2.0), ("width", 512.0)])
    def test_non_integer_cell_becomes_config_row(self, key, value, monkeypatch):
        calls = count_loads(monkeypatch)
        config = small_config(inputs=["synth:0"], method="bilinear")
        rows = sweep(config, {key: [value]})
        assert [row["error"] for row in rows] == [f"config: {key} must be an integer, got {value}"]
        assert calls == []  # the bad cell prepares no scan

    def test_invalid_cell_becomes_row(self):
        config = small_config(inputs=["synth:0"], method="bilinear", factor_x=4)
        rows = sweep(config, {"method": ["bilinear", "gradient"]})
        assert len(rows) == 2
        by_method = {row["method"]: row for row in rows}
        assert by_method["bilinear"]["error"] == ""
        assert "config" in by_method["gradient"]["error"]

    @pytest.mark.parametrize("grid", [
        {"method": ["bilinear", "gradient"], "bits": [None, 10], "grad_threshold": [0.8, 2.5]},
        {"width": [256, 512], "method": ["none", "gradient"]},
    ], ids=["cells", "width"])
    def test_rows_equal_per_cell_run_scan(self, grid):
        config = small_config(inputs=["synth:1", "synth:0"])
        rows = sweep(config, grid)
        names = list(grid)
        expected = []
        for values in itertools.product(*grid.values()):
            cell = small_config(inputs=["synth:1", "synth:0"], **dict(zip(names, values)))
            expected += [run_scan(spec, cell)[0] for spec in ("synth:0", "synth:1")]
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert row["error"] == ""
            assert {k: row[k] for k in RESULT_FIELDS} == {k: want[k] for k in RESULT_FIELDS}
            assert row.keys() - {"error"} == want.keys()

    def test_one_load_per_prefix_group(self, monkeypatch):
        calls = count_loads(monkeypatch)
        config = small_config(inputs=["synth:0", "synth:1"])
        rows = sweep(config, {"width": [256, 512], "method": ["bilinear", "gradient"],
                              "grad_threshold": [1.0, 2.5]})
        assert len(rows) == 16 and not any(row["error"] for row in rows)
        assert sorted(calls) == ["synth:0", "synth:0", "synth:1", "synth:1"]

    def test_one_reference_tree_per_scan(self, monkeypatch):
        """A scan with a baseline cell builds its reference tree once, on
        the helper thread, while its cells run: the gradient cells at
        threshold 0.8 leave no test point to it, the bilinear cells after
        them share the one build."""
        config = PipelineConfig(inputs=["synth:0", "synth:1"], grad_threshold=0.8, no_artifacts=True)
        refs = [prepare_scan(spec, config).ref_ri.cloud.points for spec in config.inputs]
        threads = []
        built = count_builds(monkeypatch, threads)
        rows = sweep(config, {"method": ["gradient", "bilinear"], "bits": [None, 10]})
        assert not any(row["error"] for row in rows)
        assert all((row["nn_tree_points"] > 0) == (row["method"] == "bilinear") for row in rows)
        assert len(built) == len(refs) and all(map(np.array_equal, built, refs))
        assert len(set(threads)) == 1 and threads[0] is not threading.current_thread()

    def test_only_a_baseline_sweep_starts_the_helper_thread(self):
        """A gradient-only scan keeps the lazy build: when its ladders
        certify every point it builds no tree, starts no thread and loads
        no scipy."""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", _THREADS_AT_SWEEPS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert seen["gradient"] == {"threads": 1, "scipy": False, "tree_points": 0}
        assert seen["bilinear"]["threads"] == 2 and seen["bilinear"]["scipy"]
        assert seen["bilinear"]["tree_points"] > 0

    def test_failed_reference_build_is_that_cells_score_error(self, monkeypatch):
        """A reference tree that fails to build on the helper gives its
        scan's cells the error row the lazy build gives, and the later
        scans run."""
        config = PipelineConfig(inputs=["synth:0", "synth:1"], method="bilinear", no_artifacts=True)
        failing = len(prepare_scan("synth:0", config).ref_ri.cloud)
        assert len(prepare_scan("synth:1", config).ref_ri.cloud) != failing
        real = metrics._build_tree

        def build(points):
            if len(points) == failing:
                raise MemoryError("no room for the tree")
            return real(points)

        monkeypatch.setattr(metrics, "_build_tree", build)
        with pytest.raises(StageError) as lazy:
            run_scan("synth:0", config)
        rows = sweep(config, {"bits": [None, 10]})
        assert [row["input"] for row in rows] == ["synth:0", "synth:1"] * 2
        assert [row["error"] for row in rows] == [str(lazy.value), "", str(lazy.value), ""]
        assert str(lazy.value) == "stage 'score': no room for the tree"
        assert all(row["nn_tree_points"] > 0 for row in rows[1::2])

    def test_reused_stages_read_zero(self):
        config = small_config(inputs=["synth:0", "synth:1"])
        t0 = time.perf_counter()
        rows = sweep(config, {"method": ["bilinear", "gradient"], "bits": [None, 10]})
        wall_ms = (time.perf_counter() - t0) * 1e3
        assert all(list(k for k in row if k.startswith("time_")) == [f"time_{s}_ms" for s in STAGES]
                   for row in rows)
        assert sum(v for row in rows for k, v in row.items() if k.startswith("time_")) <= wall_ms
        for spec in ("synth:0", "synth:1"):
            mine = [row for row in rows if row["input"] == spec]
            charged = [row for row in mine if row["time_ingest_ms"] > 0]
            assert charged == [mine[0]]  # the first row evaluated from the context
            assert all(row[f"time_{s}_ms"] > 0 for s in STAGES for row in charged)
            for row in mine[1:]:
                assert row["time_ingest_ms"] == row["time_filter_ms"] == row["time_project_ms"] == 0.0
                assert row["time_reconstruct_ms"] > 0 and row["time_score_ms"] > 0

    def test_prefix_failure_gives_error_row_per_cell(self, monkeypatch):
        calls = count_loads(monkeypatch)
        config = small_config(inputs=["synth:0", "missing.bin"])
        rows = sweep(config, {"method": ["bilinear", "gradient"], "bits": [None, 10]})
        assert [row["input"] for row in rows] == ["missing.bin", "synth:0"] * 4
        for row in rows[::2]:
            assert "stage 'ingest'" in row["error"] and "missing.bin" in row["error"]
        assert all(row["error"] == "" and row["ssim"] > 0 for row in rows[1::2])
        assert sorted(calls) == ["missing.bin", "synth:0"]

    def test_invalid_window_cell_prepares_no_scan(self, monkeypatch):
        calls = count_loads(monkeypatch)
        config = small_config(inputs=["synth:0"], method="gradient")
        rows = sweep(config, {"window_w": [3, 32]})
        assert rows[0]["error"].startswith("config:") and "does not tile" in rows[0]["error"]
        assert rows[1]["error"] == ""
        assert calls == ["synth:0"]

    def test_invalid_factor_cell_prepares_no_scan(self, monkeypatch):
        calls = count_loads(monkeypatch)
        config = small_config(inputs=["synth:0"], method="bilinear")
        rows = sweep(config, {"factor_x": [3, 2]})
        assert rows[0]["error"].startswith("config:") and "factors" in rows[0]["error"]
        assert rows[1]["error"] == ""
        assert calls == ["synth:0"]

    def test_no_point_inside_the_fov_gives_error_row_per_cell(self, tmp_path, monkeypatch):
        spec = above_fov_scan(tmp_path)
        evaluated = []
        monkeypatch.setattr(pipeline, "evaluate", lambda *args: evaluated.append(args))
        rows = sweep(small_config(inputs=[spec]), {"method": ["bilinear", "gradient"]})
        assert len(rows) == 2 and not evaluated
        for row in rows:
            assert "stage 'project'" in row["error"] and spec in row["error"]

    def test_writes_artifacts_per_evaluated_cell(self, tmp_path):
        out = tmp_path / "out"
        config = small_config(inputs=["synth:0"], out_dir=str(out), no_artifacts=False)
        rows = sweep(config, {"method": ["bilinear", "gradient"], "grad_threshold": [0.8, 2.5]})
        assert [is_copy(row) for row in rows] == [False, True, False, False]  # bilinear at 2.5
        names = ("reference.pgm", "degraded.pgm", "upscaled.pgm", "ref_cloud.ply", "test_cloud.ply")
        labels = ("synth_0_bilinear_0.8", "synth_0_gradient_0.8", "synth_0_gradient_2.5")
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{label}_{name}" for label in labels for name in names)
        # each set is the one a pipeline run of that cell writes
        single = tmp_path / "single"
        run_pipeline(replace(config, method="gradient", grad_threshold=2.5, out_dir=str(single)))
        for name in names:
            assert (out / f"synth_0_gradient_2.5_{name}").read_bytes() == (
                single / f"synth_0_{name}").read_bytes()

    def test_no_artifacts_creates_no_directory(self, tmp_path):
        out = tmp_path / "out"
        rows = sweep(small_config(inputs=["synth:0"], out_dir=str(out)), {"method": ["bilinear"]})
        assert rows[0]["error"] == "" and not out.exists()

    def test_same_stem_inputs_rejected_before_any_scan(self, tmp_path, monkeypatch):
        specs = same_stem_scans(tmp_path)
        calls = count_loads(monkeypatch)
        out = tmp_path / "out"
        config = small_config(inputs=specs, out_dir=str(out), no_artifacts=False)
        with pytest.raises(ValueError, match="same artifact files"):
            sweep(config, {"method": ["bilinear", "gradient"]})
        assert not calls and not out.exists()

    def test_noise_monotone_in_threshold(self):
        # stricter thresholds admit fewer risky fills
        config = small_config(inputs=["synth:0"], method="gradient")
        thresholds = [0.5, 1.0, 2.5, 5.0]
        rows = sweep(config, {"grad_threshold": thresholds})
        ratios = {row["grad_threshold"]: row["noise_ratio"] for row in rows}
        ordered = [ratios[t] for t in thresholds]
        assert all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))


class TestCli:
    @pytest.mark.parametrize("command, positional", [
        ("convert", ["in", "out"]), ("degrade", ["in", "out"]), ("interp", ["in", "out"]),
        ("reconstruct", ["in", "out"]), ("score", []), ("pipeline", ["synth:0"]),
        ("sweep", ["synth:0"])])
    def test_field_flags_default_to_the_config(self, command, positional):
        parser, commands = build_parser()
        args = parser.parse_args([command, *positional])
        names = {f.name for f in fields(PipelineConfig)}
        flagged = {a.dest for a in commands[command]._actions if a.option_strings} & names
        assert flagged
        for name in flagged:
            assert getattr(args, name) == getattr(PipelineConfig(), name), name

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    def test_every_field_but_inputs_has_a_flag_and_a_config_key(self, command):
        _, commands = build_parser()
        names = {f.name for f in fields(PipelineConfig)} - {"inputs"}
        assert names <= {a.dest for a in commands[command]._actions if a.option_strings}
        assert names <= set(_config_keys(commands[command]))

    def test_default_flags_give_the_default_config(self):
        parser, _ = build_parser()
        args = parser.parse_args(["pipeline", "synth:0"])
        assert _config_from_args(args) == PipelineConfig(inputs=["synth:0"])

    def test_pipeline_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cli"
        code = main(["pipeline", "synth:0", "--width", "256", "--height", "64",
                     "--method", "bilinear", "--out-dir", str(out), "--no-artifacts"])
        assert code == 0
        assert (out / "report.json").exists()
        assert "ssim" in capsys.readouterr().out

    def test_nonexistent_input_fails_with_path(self, tmp_path, capsys):
        code = main(["pipeline", "does-not-exist.bin", "--width", "256",
                     "--out-dir", str(tmp_path / "x"), "--no-artifacts"])
        assert code != 0
        assert "does-not-exist.bin" in capsys.readouterr().err

    def test_failing_scan_stderr_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "cli"
        code = main(["pipeline", "missing.bin", "synth:0", "--width", "256", "--height", "64",
                     "--out-dir", str(out), "--no-artifacts"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: scan missing.bin: stage 'ingest': input not found: missing.bin",
            "error: 1 scan(s) failed: missing.bin",
        ]
        assert [row["input"] for row in json.loads((out / "report.json").read_text())] == ["synth:0"]

    def test_config_file_with_cli_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("width = 256\nheight = 64\nmethod = bilinear\nno-artifacts = true\n")
        out = tmp_path / "out"
        code = main(["pipeline", "synth:0", "--config", str(cfg),
                     "--method", "gradient", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())[0]
        assert report["width"] == 256          # from config file
        assert report["method"] == "gradient"  # CLI wins

    def test_synth_convert_degrade_interp_reconstruct_score(self, tmp_path, capsys):
        scan = tmp_path / "scan.bin"
        assert main(["synth", "--seed", "0", str(scan)]) == 0

        ri = tmp_path / "ri.npz"
        assert main(["convert", str(scan), str(ri), "--width", "512", "--height", "64"]) == 0

        deg = tmp_path / "deg.npz"
        assert main(["degrade", str(ri), str(deg), "--factor-x", "2"]) == 0

        up = tmp_path / "up.npz"
        assert main(["interp", str(deg), str(up), "--method", "gradient",
                     "--window-w", "32", "--window-h", "4"]) == 0

        ply = tmp_path / "up.ply"
        assert main(["reconstruct", str(up), str(ply), "--mark-interp"]) == 0
        assert ply.exists()

        capsys.readouterr()
        assert main(["score", "--ref-ri", str(ri), "--test-ri", str(up)]) == 0
        out = capsys.readouterr().out
        assert "ssim" in out
        score = json.loads(out)
        assert 0.0 <= score["ssim"] <= 1.0

    def test_stage_commands_print_the_npz_they_wrote(self, tmp_path, capsys):
        """An RI written to a path without .npz gets the suffix; degrade and
        interp print the file that holds it, which the next stage reads."""
        ri = str(tmp_path / "ri.npz")
        assert main(["convert", "synth:0", ri, "--width", "256", "--height", "16"]) == 0
        assert capsys.readouterr().out == f"wrote {ri}\n"
        assert main(["degrade", ri, str(tmp_path / "deg")]) == 0
        deg = capsys.readouterr().out.removeprefix("wrote ").rstrip("\n")
        assert deg == str(tmp_path / "deg.npz")
        assert main(["interp", deg, str(tmp_path / "up"), "--method", "bilinear"]) == 0
        up = capsys.readouterr().out.removeprefix("wrote ").rstrip("\n")
        assert up == str(tmp_path / "up.npz") and load_ri(up).geometry.width == 256

    @pytest.mark.parametrize("output, archive", [("deg.v2", "deg.v2.npz"), ("deg", "deg.npz"),
                                                 ("deg.NPZ", "deg.NPZ")])
    def test_pgm_view_is_named_from_the_archive(self, output, archive, tmp_path, capsys):
        """degrade and interp --pgm write the view beside the archive, under
        its name with .pgm for its suffix, and print both paths."""
        ri = str(tmp_path / "ri.npz")
        assert main(["convert", "synth:0", ri, "--width", "256", "--height", "16"]) == 0
        capsys.readouterr()
        assert main(["degrade", ri, str(tmp_path / output), "--pgm"]) == 0
        view = archive.rsplit(".", 1)[0] + ".pgm"
        assert capsys.readouterr().out == f"wrote {tmp_path / archive}\nwrote {tmp_path / view}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["ri.npz", archive, view])
        with open(tmp_path / view, "rb") as fh:
            assert fh.read(2) == b"P5"

    @pytest.mark.parametrize("name", ["out.PLY", "out.Bin", "out.NPZ", "out.pGm"])
    def test_convert_matches_output_suffixes_in_any_case(self, name, tmp_path, capsys):
        out = str(tmp_path / name)
        assert main(["convert", "synth:0", out, "--width", "256", "--height", "16"]) == 0
        written = capsys.readouterr().out.removeprefix("wrote ").rstrip("\n")
        suffix = name.rsplit(".", 1)[1].lower()
        assert written == out and [p.name for p in tmp_path.iterdir()] == [name]
        if suffix == "npz":
            assert load_ri(written).geometry.width == 256
        elif suffix == "pgm":
            with open(written, "rb") as fh:
                assert fh.read(2) == b"P5"
        else:
            assert len(load_scan(written)) > 0

    @pytest.mark.parametrize("line", ["grad_treshold = 9.0", "inputs = synth:1", "config = x.cfg"])
    def test_config_file_unknown_key_rejected(self, line, tmp_path, capsys, monkeypatch):
        calls = count_loads(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"width = 256\n{line}\n")
        code = main(["pipeline", "synth:0", "--config", str(cfg), "--no-artifacts",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        key = line.split("=")[0].strip()
        assert "\n" not in err and str(cfg) in err and repr(key) in err
        assert not calls

    @pytest.mark.parametrize("line", ["policy = desc", "policy_order = desc", "policy-order = desc"])
    def test_config_file_policy_spellings(self, line, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"width = 256\n{line}\nno-artifacts = true\n")
        out = tmp_path / "out"
        assert main(["pipeline", "synth:0", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())[0]
        assert report["policy_order"] == "descending_depth"

    @pytest.mark.parametrize("value, written", [("TRUE", False), ("Yes", False), ("1", False),
                                                ("no", True)])
    def test_config_file_on_off_spellings(self, value, written, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"width = 256\nno_artifacts = {value}\n")
        out = tmp_path / "out"
        assert main(["pipeline", "synth:0", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "synth_0_reference.pgm").exists() == written

    @pytest.mark.parametrize("value", ["ture", "on", ""])
    def test_config_file_bad_on_off_value_rejected(self, value, tmp_path, capsys, monkeypatch):
        calls = count_loads(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"width = 256\nno_artifacts = {value}\n")
        out = tmp_path / "out"
        assert main(["pipeline", "synth:0", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and str(cfg) in err and "no_artifacts" in err
        assert not calls and not out.exists()

    def test_config_file_bad_value_names_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("policy = sideways\n")
        assert main(["pipeline", "synth:0", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "policy" in err and "sideways" in err

    def test_untileable_window_fails_before_any_scan(self, tmp_path, capsys, monkeypatch):
        calls = count_loads(monkeypatch)
        out = tmp_path / "out"
        code = main(["pipeline", "synth:0", "--width", "256", "--window-w", "3",
                     "--out-dir", str(out), "--no-artifacts"])
        assert code == 1
        assert "does not tile" in capsys.readouterr().err
        assert not calls and not out.exists()

    @pytest.mark.parametrize("flags", [["--range-min", "nan"], ["--range-min", "50", "--range-max", "10"]])
    def test_bad_range_filter_fails_before_any_scan(self, tmp_path, capsys, monkeypatch, flags):
        calls = count_loads(monkeypatch)
        out = tmp_path / "out"
        code = main(["pipeline", "synth:0", *flags, "--out-dir", str(out), "--no-artifacts"])
        assert code == 1
        assert "range_min < range_max" in capsys.readouterr().err
        assert not calls and not out.exists()

    def test_indivisible_factor_fails_before_any_scan(self, tmp_path, capsys, monkeypatch):
        calls = count_loads(monkeypatch)
        out = tmp_path / "out"
        code = main(["pipeline", "synth:0", "--method", "bilinear", "--factor-x", "3",
                     "--out-dir", str(out), "--no-artifacts"])
        assert code == 1
        assert "factors" in capsys.readouterr().err
        assert not calls and not out.exists()

    def test_interp_checks_tiling_on_the_loaded_ri(self, tmp_path):
        ri = tmp_path / "ri.npz"
        assert main(["convert", "synth:0", str(ri), "--width", "400", "--height", "16"]) == 0
        deg = tmp_path / "deg.npz"
        assert main(["degrade", str(ri), str(deg)]) == 0
        # 200 columns tile with 40-wide windows; 1024 (the default width / 2) would not
        assert main(["interp", str(deg), str(tmp_path / "up.npz"), "--window-w", "40"]) == 0
        assert main(["interp", str(deg), str(tmp_path / "up.npz"), "--window-w", "64"]) == 1

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "synth:0", "--width", "256", "--height", "64",
                     "--method", "bilinear", "gradient", "--grad-threshold", "1.0", "2.5",
                     "--report-format", "csv", "--out-dir", str(out), "--no-artifacts"])
        assert code == 0
        text = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(text) == 1 + 4  # header + 2 methods x 2 thresholds

    def test_sweep_bad_out_dir_fails_before_any_scan(self, tmp_path, capsys, monkeypatch):
        calls = count_evaluates(monkeypatch)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["sweep", "synth:0", "synth:1", "--width", "256", "--height", "64",
                     "--method", "bilinear", "--out-dir", str(blocker / "out"), "--no-artifacts"])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and str(blocker / "out") in err
        assert not calls

    def test_sweep_writes_its_report_format(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "synth:0", "--width", "256", "--height", "64",
                     "--method", "bilinear", "gradient", "--report-format", "json",
                     "--out-dir", str(out), "--no-artifacts"])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["sweep.json"]
        rows = json.loads((out / "sweep.json").read_text())
        assert [row["method"] for row in rows] == ["bilinear", "gradient"]
        assert all(row["error"] == "" and row["report_format"] == "json" for row in rows)
        assert f"wrote {out / 'sweep.json'} (2 rows, 0 errors)" in capsys.readouterr().out

    def test_sweep_artifact_write_failure_is_that_cells_error_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        blocked = out / "synth_1_bilinear_reference.pgm"
        blocked.mkdir(parents=True)
        code = main(["sweep", "synth:0", "synth:1", "--width", "256", "--height", "64",
                     "--method", "bilinear", "gradient", "--out-dir", str(out)])
        assert code == 1
        rows = json.loads((out / "sweep.json").read_text())
        assert [(row["method"], row["input"]) for row in rows] == [
            ("bilinear", "synth:0"), ("bilinear", "synth:1"),
            ("gradient", "synth:0"), ("gradient", "synth:1")]
        errors = [row["error"] for row in rows]
        assert errors[0] == errors[2] == errors[3] == ""
        assert str(blocked) in errors[1] and "\n" not in errors[1]
        assert (out / "synth_1_gradient_test_cloud.ply").exists()  # the later cells went on
        assert f"wrote {out / 'sweep.json'} (4 rows, 1 errors)" in capsys.readouterr().out

    def test_sweep_copy_keeps_its_numbers_after_a_failed_write(self, tmp_path, capsys):
        """The 2.5 cell copies the 0.8 cell's numbers; only the cell that
        wrote gets the write error, added to its evaluated row, which keeps
        its scores and the scan's prefix stage times."""
        out = tmp_path / "out"
        blocked = out / "synth_0_bilinear_0.8_reference.pgm"
        blocked.mkdir(parents=True)
        code = main(["sweep", "synth:0", "--width", "256", "--method", "bilinear",
                     "--grad-threshold", "0.8", "2.5", "--out-dir", str(out)])
        assert code == 1
        rows = json.loads((out / "sweep.json").read_text())
        assert [row["grad_threshold"] for row in rows] == [0.8, 2.5]
        assert rows[0]["error"].startswith("write: ") and str(blocked) in rows[0]["error"]
        assert rows[1]["error"] == "" and is_copy(rows[1])
        fresh, _ = run_scan("synth:0", small_config(inputs=["synth:0"], method="bilinear",
                                                    grad_threshold=2.5, no_artifacts=False,
                                                    out_dir=str(out)))
        assert strip_times(rows[1]) == {**strip_times(fresh), "error": ""}
        assert strip_times(rows[0]) == {**strip_times(fresh), "grad_threshold": 0.8,
                                        "error": rows[0]["error"]}
        assert rows[0]["ssim"] is not None and rows[0]["time_ingest_ms"] > 0
        assert [k for k in rows[0] if k.startswith("time_")] == [f"time_{s}_ms" for s in STAGES]
        assert f"wrote {out / 'sweep.json'} (2 rows, 1 errors)" in capsys.readouterr().out

    def test_pipeline_artifact_write_failure_fails_that_scan(self, tmp_path, capsys):
        out = tmp_path / "out"
        blocked = out / "synth_0_reference.pgm"
        blocked.mkdir(parents=True)
        code = main(["pipeline", "synth:0", "synth:1", "--width", "256", "--height", "64",
                     "--method", "bilinear", "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("error: scan synth:0: ") and str(blocked) in err[0]
        assert err[1] == "error: 1 scan(s) failed: synth:0"
        assert [row["input"] for row in json.loads((out / "report.json").read_text())] == ["synth:1"]

    def test_csv_header_does_not_depend_on_failed_rows(self, tmp_path):
        headers = []
        for inputs in (["synth:0"], ["missing.bin", "synth:0"]):  # the missing scan's rows come first
            out = tmp_path / str(len(inputs))
            main(["sweep", *inputs, "--width", "256", "--height", "64", "--method", "bilinear",
                  "--report-format", "csv", "--out-dir", str(out), "--no-artifacts"])
            headers.append((out / "sweep.csv").read_text().splitlines()[0])
        assert headers[0] == headers[1]
        assert headers[0].endswith(",error")

    @pytest.mark.parametrize("name", ["x.npz", "x.pgm", "x"])
    def test_synth_rejects_an_unknown_output_suffix(self, name, tmp_path, capsys):
        out = tmp_path / name
        assert main(["synth", "--seed", "1", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and str(out) in err
        assert not out.exists()

    def test_synth_rejects_a_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "s.bin"
        assert main(["synth", "--seed", "-1", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "--seed" in err
        assert not out.exists()

    @pytest.fixture
    def ri_512x16(self, tmp_path):
        geom = RiGeometry(width=512, height=16, pitch_max=2.0, pitch_min=-24.8,
                          min_depth=2.0, max_depth=120.0)
        ri = cloud_to_ri(synth_scene(0), geom)
        path = tmp_path / "ri.npz"
        save_ri(ri, path)
        return ri, path

    @pytest.mark.parametrize("bits", [None, 8])
    def test_degrade_any_factors(self, ri_512x16, bits, tmp_path):
        ri, path = ri_512x16
        out = tmp_path / "deg.npz"
        argv = ["degrade", str(path), str(out), "--factor-x", "4", "--factor-y", "2"]
        assert main(argv + ([] if bits is None else ["--bits", str(bits)])) == 0
        expected = downsample_ri(ri, 4, 2)
        if bits is not None:
            expected = quantize(expected, bits)
        assert np.array_equal(load_ri(out).depth, expected.depth)
        assert load_ri(out).geometry == expected.geometry

    def test_reconstruct_marks_interp_at_any_factors(self, ri_512x16, tmp_path):
        ri, path = ri_512x16
        ply = tmp_path / "marked.ply"
        assert main(["reconstruct", str(path), str(ply), "--mark-interp", "--factor-x", "4"]) == 0
        raw = ply.read_bytes()
        body = raw[raw.index(b"end_header\n") + len(b"end_header\n"):]
        vertex = np.frombuffer(body, dtype=[("xyz", "<f4", 3), ("rgb", "u1", 3)])
        _, cols = np.nonzero(ri.occupied)
        expected = np.where((cols % 4 != 0)[:, None], INTERP_COLOR, SOURCE_COLOR)
        assert np.array_equal(vertex["rgb"], expected)

    def test_reconstruct_rejects_a_zero_factor(self, ri_512x16, tmp_path, capsys):
        _, path = ri_512x16
        argv = ["reconstruct", str(path), str(tmp_path / "m.ply"), "--mark-interp", "--factor-x", "0"]
        assert main(argv) == 1
        assert "factors must be >= 1" in capsys.readouterr().err

    def test_score_without_pairs_fails(self):
        with pytest.raises(SystemExit):
            main(["score"])

    @pytest.mark.parametrize("other_pair", [False, True])
    @pytest.mark.parametrize("given, missing", [
        ("--ref-ri", "--test-ri"), ("--test-ri", "--ref-ri"),
        ("--ref-cloud", "--test-cloud"), ("--test-cloud", "--ref-cloud")])
    def test_score_rejects_half_a_pair(self, given, missing, other_pair, ri_512x16, tmp_path,
                                       capsys):
        _, ri = ri_512x16
        cloud = tmp_path / "c.ply"
        assert main(["reconstruct", str(ri), str(cloud)]) == 0
        argv = ["score", given, str(cloud if "cloud" in given else ri)]
        if other_pair:  # a complete pair of the other kind does not excuse the half one
            argv += ["--ref-ri", str(ri), "--test-ri", str(ri)] if "cloud" in given else \
                ["--ref-cloud", str(cloud), "--test-cloud", str(cloud)]
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "\n" not in err.strip() and missing in err and given in err

    def test_score_takes_one_kind_of_pair(self, ri_512x16, tmp_path, capsys):
        """Both kinds print a chamfer, so one call scores one kind."""
        _, ri = ri_512x16
        cloud = tmp_path / "c.ply"
        assert main(["reconstruct", str(ri), str(cloud)]) == 0
        capsys.readouterr()
        assert main(["score", "--ref-ri", str(ri), "--test-ri", str(ri),
                     "--ref-cloud", str(cloud), "--test-cloud", str(cloud)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "\n" not in err.strip() and "--ref-ri" in err and "--ref-cloud" in err

    @pytest.mark.parametrize("delta", ["0", "nan"])
    def test_score_rejects_a_bad_delta_by_the_config_rule(self, delta, ri_512x16, capsys):
        _, path = ri_512x16
        with pytest.raises(ValueError) as rule:
            PipelineConfig(delta=float(delta))
        assert main(["score", "--ref-ri", str(path), "--test-ri", str(path), "--delta", delta]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {rule.value}\n"

    def test_score_reads_no_window(self, tmp_path, capsys):
        """A 400x16 pair upscaled with 40-wide windows scores as gradient:
        the default 32-wide window, which does not tile 200 columns, is not
        the score step's business."""
        ri, deg, up = (str(tmp_path / f"{name}.npz") for name in ("ri", "deg", "up"))
        assert main(["convert", "synth:0", ri, "--width", "400", "--height", "16"]) == 0
        assert main(["degrade", ri, deg]) == 0
        assert main(["interp", deg, up, "--window-w", "40"]) == 0
        capsys.readouterr()
        assert main(["score", "--ref-ri", ri, "--test-ri", up, "--method", "gradient"]) == 0
        assert json.loads(capsys.readouterr().out)["interp_points"] > 0

    def test_interp_baseline_reads_no_gradient_knob(self, ri_512x16, tmp_path):
        ri, path = ri_512x16
        up = tmp_path / "up.npz"
        assert main(["interp", str(path), str(up), "--method", "bilinear", "--grad-threshold", "0",
                     "--window-w", "3"]) == 0
        assert load_ri(up).geometry.width == 2 * ri.geometry.width

    def test_interp_gradient_factor_rule_is_the_configs(self, ri_512x16, tmp_path, capsys):
        _, path = ri_512x16
        with pytest.raises(ValueError) as rule:
            PipelineConfig(factor_x=4)
        assert main(["interp", str(path), str(tmp_path / "up.npz"), "--method", "gradient",
                     "--factor-x", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {rule.value}\n"

    @pytest.mark.parametrize("command, positional", [
        ("interp", ["in", "out"]), ("pipeline", ["synth:0"]), ("sweep", ["synth:0"])])
    @pytest.mark.parametrize("short, name", [("asc", "ascending_depth"), ("desc", "descending_depth")])
    def test_policy_short_names_parse_to_the_canonical_ones(self, command, positional, short, name):
        parser, _ = build_parser()
        args = parser.parse_args([command, *positional, "--policy", short])
        assert args.policy_order == ([name] if command == "sweep" else name)

    def test_policy_help_shows_the_short_names(self):
        _, commands = build_parser()
        text = commands["interp"].format_help()
        assert "asc" in text.replace("ascending", "") and "desc" in text.replace("descending", "")

    @pytest.mark.parametrize("made, flags", [("deg", []), ("up", ["--method", "none"])])
    def test_score_rejects_a_pair_its_flags_do_not_describe(self, made, flags, ri_512x16, tmp_path,
                                                            capsys):
        """The degraded image under the default gradient, and an upscaled
        one under none: neither is what the flags say made it."""
        _, ri = ri_512x16
        deg, up = tmp_path / "deg.npz", tmp_path / "up.npz"
        assert main(["degrade", str(ri), str(deg)]) == 0
        assert main(["interp", str(deg), str(up), "--method", "bilinear"]) == 0
        test = {"deg": deg, "up": up}[made]
        capsys.readouterr()
        assert main(["score", "--ref-ri", str(ri), "--test-ri", str(test), *flags]) == 1
        out, err = capsys.readouterr()
        size = {"deg": "256x16", "up": "512x16"}[made]
        expected = {"deg": "512x16", "up": "256x16"}[made]
        assert out == "" and "\n" not in err.strip() and "--test-ri" in err
        assert size in err and expected in err

    @pytest.mark.parametrize("command", ["interp", "score"])
    def test_ri_without_geometry_keys_fails_with_file_and_key(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        np.savez(bad, depth=np.zeros((4, 16)))
        argv = {"interp": ["interp", str(bad), str(tmp_path / "out.npz")],
                "score": ["score", "--ref-ri", str(bad), "--test-ri", str(bad)]}[command]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and str(bad) in err and "'width'" in err

    @pytest.mark.parametrize("content", ["text", "cut", "empty"])
    def test_unreadable_ri_archive_fails_with_the_file(self, content, ri_512x16, tmp_path, capsys):
        _, path = ri_512x16
        bad = tmp_path / "bad.npz"
        bad.write_bytes({"text": b"not an archive\n", "cut": path.read_bytes()[:3000],
                         "empty": b""}[content])
        assert main(["interp", str(bad), str(tmp_path / "out.npz")]) == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and str(bad) in err and "npz" in err

    def test_degrade_missing_input_fails(self, tmp_path, capsys):
        code = main(["degrade", str(tmp_path / "no.npz"), str(tmp_path / "o.npz")])
        assert code != 0
        assert "no.npz" in capsys.readouterr().err

    def test_convert_bin_to_ply_roundtrip(self, tmp_path):
        scan = tmp_path / "s.bin"
        assert main(["synth", "--seed", "1", str(scan)]) == 0
        ply = tmp_path / "s.ply"
        assert main(["convert", str(scan), str(ply)]) == 0
        back = tmp_path / "s2.bin"
        assert main(["convert", str(ply), str(back)]) == 0
        from riterp import read_kitti_bin
        a = read_kitti_bin(scan)
        b = read_kitti_bin(back)
        assert np.array_equal(a.points, b.points)
