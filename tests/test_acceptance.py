"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.

No KITTI scans ship with the repository, so the experiments run on the
deterministic synthetic scenes (seeds 0-4); point RITERP_KITTI_DIR at a
directory of Velodyne .bin files to add real scans to criteria 1/2/5.

The gradient runs use gradient_threshold = 0.8 (well under the 2.5 the
noise criterion allows): the boundary-safety invariant then caps every
fill's radial error at 0.4 m, which keeps interpolated points within
delta = 0.5 m of the reference surface and makes the zero-noise outcome
analytically expected rather than a tuning accident.
"""
import time

import numpy as np
import pytest

from riterp import (
    KdTree,
    PipelineConfig,
    PointCloud,
    QuantizerSpec,
    RangeImage,
    RiGeometry,
    UpscaleSpec,
    cloud_to_ri,
    quantize,
    ri_to_cloud,
    run_scan,
    ssim,
    upscale_baseline,
    upscale_gradient,
)
from riterp import filter_by_range
from riterp.gradient import InterpPolicy
from riterp.pipeline import degrade_ri, interp_mask, load_scan

from conftest import kitti_scans, random_ri
from oracles import brute_nn_dists, brute_upscale

SEEDS = ["synth:0", "synth:1", "synth:2", "synth:3", "synth:4"]
GRAD_THRESHOLD = 0.8
DELTA = 0.5

BASELINE_SSIM_RANGE = (0.80, 1.0)
GRADIENT_SSIM_RANGE = (0.75, 1.0)


def acceptance_inputs() -> list[str]:
    scans = [str(p) for p in kitti_scans()[:5]]
    return scans if len(scans) >= 5 else SEEDS


def acceptance_config(method: str) -> PipelineConfig:
    return PipelineConfig(
        inputs=acceptance_inputs(), width=2048, height=64,
        factor_x=2, factor_y=1, bits=None, method=method,
        grad_threshold=GRAD_THRESHOLD, delta=DELTA, no_artifacts=True,
    )


@pytest.fixture(scope="module")
def experiment():
    """Reports for every (scan, method), via the real pipeline."""
    t0 = time.perf_counter()
    reports: dict[str, dict[str, dict]] = {}
    for method in ("bilinear", "bicubic", "lanczos3", "gradient"):
        config = acceptance_config(method)
        for spec in config.inputs:
            report, _ = run_scan(spec, config)
            reports.setdefault(spec, {})[method] = report
    reports["_elapsed_s"] = time.perf_counter() - t0
    return reports


def test_criterion_1_ssim_method_ordering(experiment):
    """Bilinear beats bicubic and lanczos, gradient scores below bilinear,
    per scan; absolute values inside the expected bands."""
    for spec in acceptance_inputs():
        r = experiment[spec]
        bil, bic = r["bilinear"]["ssim"], r["bicubic"]["ssim"]
        lan, grad = r["lanczos3"]["ssim"], r["gradient"]["ssim"]
        assert bil > bic, f"{spec}: bilinear {bil} !> bicubic {bic}"
        assert bil > lan, f"{spec}: bilinear {bil} !> lanczos3 {lan}"
        assert grad < bil, f"{spec}: gradient {grad} !< bilinear {bil}"
        for value in (bil, bic, lan):
            assert BASELINE_SSIM_RANGE[0] <= value <= BASELINE_SSIM_RANGE[1]
        assert GRADIENT_SSIM_RANGE[0] <= grad <= GRADIENT_SSIM_RANGE[1]
    elapsed = experiment["_elapsed_s"]
    assert elapsed < 120, f"experiment took {elapsed:.0f}s, budget is 120s"
    print(f"\nACCEPTANCE 1 (SSIM method ordering on {len(acceptance_inputs())} scans, "
          f"{elapsed:.0f}s): PASS")


def test_criterion_2_noise_ratio(experiment):
    """Gradient reconstructions add no noisy points (ratio exactly 0) and
    beat bilinear on every scan; KdTree distances cross-checked against a
    brute-force scan on one scan."""
    for spec in acceptance_inputs():
        r = experiment[spec]
        grad, bil = r["gradient"]["noise_ratio"], r["bilinear"]["noise_ratio"]
        assert grad < bil, f"{spec}: gradient {grad} !< bilinear {bil}"
        assert grad == 0.0, f"{spec}: gradient noise_ratio {grad} != 0"

    # independent brute-force NN oracle cross-check on the first scan
    config = acceptance_config("gradient")
    spec = acceptance_inputs()[0]
    cloud = filter_by_range(load_scan(spec), config.range_min, config.range_max)
    ref_ri = cloud_to_ri(cloud, config.geometry)
    deg = degrade_ri(ref_ri, config)
    up = upscale_gradient(deg, config.window_w, config.window_h, config.policy)
    ref_cloud = ri_to_cloud(ref_ri)
    test_cloud = ri_to_cloud(up)
    mask = interp_mask(up, config)
    interp_points = test_cloud.points[mask][:2000]
    tree_dists, _ = KdTree(ref_cloud).query(interp_points)
    brute = brute_nn_dists(interp_points, ref_cloud.points)
    assert np.array_equal(tree_dists, brute)
    assert (brute <= DELTA).all()
    print(f"\nACCEPTANCE 2 (zero gradient noise at delta={DELTA}, threshold="
          f"{GRAD_THRESHOLD} <= 2.5; brute-force NN cross-check): PASS")


def test_criterion_3_boundary_safety_randomized():
    """1000 randomized small RIs: every interpolated pixel has two
    non-EMPTY source neighbors within the gradient threshold."""
    rng = np.random.default_rng(2024)
    violations = 0
    t0 = time.perf_counter()
    for trial in range(1000):
        width = int(rng.choice([8, 16, 32, 64]))
        height = int(rng.choice([4, 8]))
        window_w = int(rng.choice([w for w in (2, 4, 8) if width % w == 0]))
        window_h = int(rng.choice([h for h in (2, 4) if height % h == 0]))
        threshold = float(rng.uniform(0.3, 6.0))
        geom = RiGeometry(width=width, height=height, pitch_max=2.0,
                          pitch_min=-24.8, min_depth=2.0, max_depth=120.0)
        ri = random_ri(rng, geom, empty_fraction=float(rng.uniform(0.05, 0.9)))
        out = upscale_gradient(ri, window_w, window_h,
                               InterpPolicy(gradient_threshold=threshold))
        fills = out.depth[:, 1::2]
        rows, gaps = np.nonzero(fills != 0.0)
        left = ri.depth[rows, gaps]
        right_ok = gaps + 1 < width
        if not right_ok.all():
            violations += int((~right_ok).sum())
            continue
        right = ri.depth[rows, gaps + 1]
        bad = (left == 0.0) | (right == 0.0) | (np.abs(right - left) > threshold)
        violations += int(bad.sum())
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60
    print(f"\nACCEPTANCE 3 (boundary safety, 1000 randomized RIs, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_4_oracle_equivalence():
    """Baselines match brute-force convolution within 1e-5 on 100 random
    16x4 RIs; KdTree equals brute force on 100 random clouds; SSIM
    self-score is exactly 1.0 and symmetric to 1e-9."""
    rng = np.random.default_rng(404)
    geom = RiGeometry(width=16, height=4, pitch_max=2.0, pitch_min=-24.8,
                      min_depth=2.0, max_depth=120.0)
    worst = 0.0
    for trial in range(100):
        ri = random_ri(rng, geom, empty_fraction=float(rng.uniform(0.1, 0.6)))
        method = ("bilinear", "bicubic", "lanczos3")[trial % 3]
        got = upscale_baseline(ri, UpscaleSpec(2, 1, method)).depth
        want = brute_upscale(ri.depth, 2, 1, method, geom.min_depth, geom.max_depth)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-5

    for trial in range(100):
        n = int(rng.integers(1, 1001))
        ref = rng.uniform(-60, 60, size=(n, 3))
        queries = rng.uniform(-60, 60, size=(50, 3))
        dist, _ = KdTree(PointCloud(points=ref)).query(queries)
        assert np.array_equal(dist, brute_nn_dists(queries, ref))

    ssim_geom = RiGeometry(width=32, height=16, pitch_max=2.0, pitch_min=-24.8,
                           min_depth=2.0, max_depth=120.0)
    for _ in range(20):
        a = random_ri(rng, ssim_geom)
        b = random_ri(rng, ssim_geom)
        assert ssim(a, a) == 1.0
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-9
    print(f"\nACCEPTANCE 4 (oracle equivalence; worst baseline deviation "
          f"{worst:.2e}): PASS")


def test_criterion_5_projection_roundtrip_fixed_point():
    """cloud_to_ri -> ri_to_cloud -> cloud_to_ri reproduces the RI
    bit-identically on 5 scans; depths survive exactly."""
    config = acceptance_config("none")
    for spec in acceptance_inputs():
        cloud = filter_by_range(load_scan(spec), config.range_min, config.range_max)
        r1 = cloud_to_ri(cloud, config.geometry)
        c1 = ri_to_cloud(r1)
        r2 = cloud_to_ri(c1, config.geometry)
        assert np.array_equal(r1.depth, r2.depth), f"{spec}: round trip not a fixed point"
        v, u = np.nonzero(r1.occupied)
        ranges = np.linalg.norm(c1.points, axis=1).astype(np.float32).astype(np.float64)
        assert np.array_equal(ranges, r1.depth[v, u]), f"{spec}: depths changed"
    print("\nACCEPTANCE 5 (projection round trip bit-identical on "
          f"{len(acceptance_inputs())} scans): PASS")


@pytest.mark.parametrize("bits", [8, 10, 12])
def test_criterion_6_quantization_bound(bits):
    """Reconstruction error never exceeds half a quantizer step."""
    q = QuantizerSpec(bits=bits, min_depth=2.0, max_depth=120.0)
    rng = np.random.default_rng(bits)
    levels = 2.0 + np.arange(2**bits - 1) * 118.0 / (2**bits - 2)
    midpoints = (levels[:-1] + levels[1:]) / 2
    depths = np.concatenate([
        rng.uniform(2.0, 120.0, 400_000),
        levels, midpoints - 1e-9, midpoints + 1e-9,
        np.array([2.0, 120.0]),
    ])
    geom = RiGeometry(width=depths.size, height=2, pitch_max=2.0, pitch_min=-24.8,
                      min_depth=2.0, max_depth=120.0)
    out = quantize(RangeImage(geom, np.vstack([depths, depths])), q)
    err = float(np.abs(out.depth[0] - depths).max())
    assert err <= q.step / 2
    print(f"\nACCEPTANCE 6 (quantization bound, bits={bits}: max err "
          f"{err:.6f} <= {q.step / 2:.6f}): PASS")


def test_criterion_7_latency_soft():
    """Full pipeline on one 64-beam scan in under 500 ms single-threaded:
    reported, and a miss is a warning rather than a failure."""
    config = acceptance_config("gradient")
    spec = acceptance_inputs()[0]
    report, _ = run_scan(spec, config)  # warm caches/JITs, then measure
    report, _ = run_scan(spec, config)
    stages = ("project", "degrade", "interp", "reconstruct", "score")
    total_ms = sum(report[f"time_{s}_ms"] for s in stages)
    breakdown = ", ".join(f"{s}={report[f'time_{s}_ms']:.0f}ms" for s in stages)
    if total_ms < 500:
        print(f"\nACCEPTANCE 7 (latency {total_ms:.0f}ms: {breakdown}): PASS")
    else:
        print(f"\nACCEPTANCE 7 (latency {total_ms:.0f}ms: {breakdown}): WARN (soft bound)")
        import warnings
        warnings.warn(f"pipeline took {total_ms:.0f}ms, soft budget is 500ms")
