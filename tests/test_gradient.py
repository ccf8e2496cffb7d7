import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riterp import (
    ASCENDING,
    DESCENDING,
    EMPTY,
    PipelineConfig,
    RangeImage,
    RiGeometry,
    downsample_ri,
    explore_windows,
    interpolate,
    quantize,
    ri_to_cloud,
    upscale_gradient,
)
from riterp.gradient import check_policy

from conftest import random_ri
from oracles import brute_best_k_per_window


def row_geometry(width, height=2):
    return RiGeometry(width=width, height=height, pitch_max=2.0, pitch_min=-24.8,
                      min_depth=2.0, max_depth=120.0)


def row_ri(values, height=2):
    grid = np.tile(np.asarray(values, dtype=np.float64), (height, 1))
    return RangeImage(row_geometry(len(values), height), grid)


BAD_POLICIES = [
    (dict(policy_order="sideways"), "policy_order"),
    (dict(grad_threshold=0.0), "grad_threshold"),
    (dict(grad_threshold=float("nan")), "grad_threshold"),
    (dict(max_fills=-1), "max_fills"),
    (dict(max_fills=2.5), "max_fills"),
]


class TestPolicyValidation:
    @pytest.mark.parametrize("bad, name", BAD_POLICIES)
    def test_check_policy_rejects(self, bad, name):
        with pytest.raises(ValueError, match=name):
            check_policy(**bad)

    @pytest.mark.parametrize("method", ["gradient", "bilinear"])
    @pytest.mark.parametrize("bad, name", BAD_POLICIES)
    def test_config_rejects_for_every_method(self, method, bad, name):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(method=method, **bad)

    @pytest.mark.parametrize("bad, name", BAD_POLICIES)
    def test_upscale_gradient_rejects(self, small_geometry, bad, name):
        ri = random_ri(np.random.default_rng(0), small_geometry)
        with pytest.raises(ValueError, match=name):
            upscale_gradient(ri, 4, 2, **bad)

    def test_accepts_every_order_and_budget(self):
        for order in (ASCENDING, DESCENDING):
            for max_fills in (None, 0, 5):
                check_policy(0.1, max_fills, order)


class TestExploreWindows:
    # plans are indexed [r, k, i, j]: window row r, window column k, row i
    # and pair (j, j + 1) inside the window

    def test_small_gradient_pair_is_valid(self):
        ri = row_ri([4.0, 4.2])
        plan = explore_windows(ri, window_w=2, window_h=1, grad_threshold=2.5)
        assert plan.valid.shape == (2, 1, 1, 1)  # one site per row
        assert plan.valid[0, 0, 0, 0]
        assert plan.fill_value[0, 0, 0, 0] == pytest.approx(4.1)
        assert plan.neighbor_depth[0, 0, 0, 0] == 4.0

    def test_empty_neighbor_invalidates(self):
        ri = row_ri([4.0, EMPTY])
        plan = explore_windows(ri, 2, 1)
        assert plan.valid.shape == (2, 1, 1, 1)
        assert not plan.valid[0, 0, 0, 0]

    def test_threshold_gates_validity(self):
        ri = row_ri([4.0, 10.0])
        strict = explore_windows(ri, 2, 1, grad_threshold=2.5)
        assert not strict.valid.any()
        loose = explore_windows(ri, 2, 1, grad_threshold=10.0)
        assert loose.valid[0, 0, 0, 0]
        assert loose.fill_value[0, 0, 0, 0] == pytest.approx(7.0)

    def test_window_border_pairs_excluded(self):
        ri = row_ri([10.0, 11.0, 12.0, 13.0])
        plan = explore_windows(ri, window_w=2, window_h=1)
        # the sites (0, 0) and (0, 2); pair (1, 2) crosses the window border
        assert plan.fill_value.shape == (2, 2, 1, 1)
        assert plan.fill_value[0, :, 0, 0].tolist() == [10.5, 12.5]

    def test_non_tiling_window_rejected(self):
        ri = row_ri([4.0, 4.0, 4.0])
        with pytest.raises(ValueError, match="tile"):
            explore_windows(ri, window_w=2, window_h=1)

    def test_window_too_narrow_rejected(self):
        ri = row_ri([4.0, 4.0])
        with pytest.raises(ValueError, match="window_w"):
            explore_windows(ri, window_w=1, window_h=1)

    @pytest.mark.parametrize("window_h", [0, -4])
    def test_window_without_rows_rejected(self, window_h):
        ri = random_ri(np.random.default_rng(0), row_geometry(64, height=4))
        with pytest.raises(ValueError, match="does not tile"):
            upscale_gradient(ri, 32, window_h)

    @pytest.mark.parametrize("window", [(32.0, 4), (32, 4.0)])
    def test_non_integer_window_rejected(self, window):
        ri = random_ri(np.random.default_rng(0), row_geometry(64, height=4))
        with pytest.raises(ValueError, match="integer"):
            upscale_gradient(ri, *window)

    def test_plan_covers_all_inside_pairs(self, synth_ri):
        deg = downsample_ri(synth_ri, 2, 1)
        plan = explore_windows(deg, 32, 4)
        g = deg.geometry
        expected = g.height * (g.width - g.width // 32)
        assert len(plan) == expected


@st.composite
def plan_cases(draw):
    """(ri, window_w, window_h, grad_threshold, max_fills, policy_order):
    windows that tile a small random image, a threshold, a budget and an
    order; the image is optionally quantized to 4-8 bits, which makes
    many equal non-EMPTY depths."""
    window_w = draw(st.integers(2, 6))
    window_h = draw(st.integers(1, 3))
    width = window_w * draw(st.integers(1, 8))
    height = window_h * draw(st.integers(max(1, math.ceil(2 / window_h)), 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ri = random_ri(rng, row_geometry(width, height), empty_fraction=draw(st.floats(0.0, 0.8)))
    bits = draw(st.one_of(st.none(), st.integers(4, 8)))
    if bits is not None:
        ri = quantize(ri, bits)
    return (ri, window_w, window_h, draw(st.floats(0.5, 80.0)),
            draw(st.one_of(st.none(), st.integers(0, 3))), draw(st.sampled_from([ASCENDING, DESCENDING])))


class TestPlanProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(plan_cases())
    def test_plan_and_output(self, case):
        ri, window_w, window_h, grad_threshold, max_fills, policy_order = case
        plan = explore_windows(ri, window_w, window_h, grad_threshold)
        assert_plan_is_windows(ri, plan, window_w, window_h)
        out = interpolate(ri, plan, max_fills, policy_order)
        assert_boundary_safe(ri, out, grad_threshold)
        assert filled_sites(out) == brute_best_k_per_window(ri.depth, window_w, window_h, grad_threshold,
                                                            max_fills, policy_order)
        if max_fills is None:
            # without a budget the order decides nothing
            other = DESCENDING if policy_order == ASCENDING else ASCENDING
            flipped = upscale_gradient(ri, window_w, window_h, grad_threshold, None, other)
            assert np.array_equal(flipped.depth, out.depth)


class TestInterpolate:
    def test_worked_row_example(self):
        # [4.0, 4.2, EMPTY, 10.0], window 4, threshold 2.5:
        # site (0,1) valid fill 4.1; (1,2) and (2,3) invalid via EMPTY;
        # odd column 7 is the window's last odd column -> EMPTY
        ri = row_ri([4.0, 4.2, EMPTY, 10.0])
        out = upscale_gradient(ri, window_w=4, window_h=1, grad_threshold=2.5)
        np.testing.assert_allclose(
            out.depth[0], [4.0, 4.1, 4.2, EMPTY, EMPTY, EMPTY, 10.0, EMPTY])

    def test_all_empty_stays_empty(self, small_geometry):
        ri = RangeImage(small_geometry, np.zeros((4, 16)))
        out = upscale_gradient(ri, 4, 2)
        assert out.geometry.width == 32
        assert not out.occupied.any()

    def test_budget_prefers_policy_order(self):
        # window holds two valid sites with neighbor depths {3, 7}: under
        # ascending order and budget 1 only the depth-3 site fills
        ri = row_ri([7.0, 7.4, 3.0, 3.2])
        out = upscale_gradient(ri, window_w=4, window_h=1, max_fills=1, policy_order=ASCENDING)
        assert out.depth[0, 5] == pytest.approx(3.1)  # depth-3 site filled
        assert out.depth[0, 1] == EMPTY               # depth-7 site truncated

    def test_budget_descending(self):
        ri = row_ri([7.0, 7.4, 3.0, 3.2])
        out = upscale_gradient(ri, window_w=4, window_h=1, max_fills=1, policy_order=DESCENDING)
        assert out.depth[0, 1] == pytest.approx(7.2)
        assert out.depth[0, 5] == EMPTY

    def test_zero_budget_fills_nothing(self, small_geometry):
        ri = random_ri(np.random.default_rng(1), small_geometry)
        out = upscale_gradient(ri, 4, 2, max_fills=0)
        assert np.array_equal(out.depth[:, 0::2], ri.depth)
        assert (out.depth[:, 1::2] == EMPTY).all()

    def test_budget_selection_matches_brute_force(self, small_geometry):
        rng = np.random.default_rng(5)
        for order in (ASCENDING, DESCENDING):
            for k in (1, 2, 3):
                ri = random_ri(rng, small_geometry, empty_fraction=0.2)
                plan = explore_windows(ri, 4, 2, grad_threshold=40.0)
                out = interpolate(ri, plan, k, order)
                assert filled_sites(out) == brute_best_k_per_window(ri.depth, 4, 2, 40.0, k, order)

    @pytest.mark.parametrize("order", [ASCENDING, DESCENDING])
    def test_production_window_budget_matches_brute_force(self, synth_ri, order):
        # a 32x4 window holds 124 sites, and 10-bit depths tie often
        deg = quantize(downsample_ri(synth_ri, 2, 1), 10)
        out = upscale_gradient(deg, 32, 4, 2.5, 3, order)
        assert filled_sites(out) == brute_best_k_per_window(deg.depth, 32, 4, 2.5, 3, order)

    def test_plan_mismatch_rejected(self, small_geometry):
        ri = random_ri(np.random.default_rng(2), small_geometry)
        plan = explore_windows(ri, 4, 2)
        other = random_ri(np.random.default_rng(3), row_geometry(8, 2))
        with pytest.raises(ValueError, match="plan"):
            interpolate(other, plan)

    def test_composition_equals_phases(self, synth_ri):
        deg = downsample_ri(synth_ri, 2, 1)
        combined = upscale_gradient(deg, 32, 4, 1.5, 3, DESCENDING)
        staged = interpolate(deg, explore_windows(deg, 32, 4, 1.5), 3, DESCENDING)
        assert np.array_equal(combined.depth, staged.depth)

    def test_paper_resolution_chain(self, synth_ri):
        # 1024x64 source doubles to 2048x64
        deg = downsample_ri(synth_ri, 2, 1)
        assert (deg.geometry.width, deg.geometry.height) == (1024, 64)
        out = upscale_gradient(deg)
        assert (out.geometry.width, out.geometry.height) == (2048, 64)


class TestInvariants:
    def test_source_preservation(self, small_geometry):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ri = random_ri(rng, small_geometry)
            out = upscale_gradient(ri, 4, 2)
            assert np.array_equal(out.depth[:, 0::2], ri.depth)

    def test_occupancy_at_least_half_of_input(self, synth_ri):
        from riterp import occupancy
        deg = downsample_ri(synth_ri, 2, 1)
        out = upscale_gradient(deg)
        assert occupancy(out) >= occupancy(deg) / 2

    def test_filled_values_between_neighbors(self, synth_ri):
        deg = downsample_ri(synth_ri, 2, 1)
        out = upscale_gradient(deg)
        d = out.depth
        fills = d[:, 1::2]
        left = d[:, 0::2]
        right = np.empty_like(left)
        right[:, :-1] = left[:, 1:]
        right[:, -1] = EMPTY
        mask = fills != EMPTY
        lo = np.minimum(left, right)[mask]
        hi = np.maximum(left, right)[mask]
        assert (fills[mask] >= lo).all() and (fills[mask] <= hi).all()

    def test_determinism(self, synth_ri):
        deg = downsample_ri(synth_ri, 2, 1)
        a = upscale_gradient(deg)
        b = upscale_gradient(deg)
        assert np.array_equal(a.depth, b.depth)

    def test_boundary_safety_randomized(self):
        # acceptance criterion 3 at small scale lives in test_acceptance;
        # here a quick spot check on a few random grids
        rng = np.random.default_rng(123)
        thr = 2.5
        for _ in range(50):
            geom = row_geometry(16, height=4)
            ri = random_ri(rng, geom, empty_fraction=rng.uniform(0.1, 0.8))
            out = upscale_gradient(ri, 4, 2, grad_threshold=thr)
            assert_boundary_safe(ri, out, thr)

    def test_3d_locality_of_fills(self, synth_ri):
        # each interpolated point stays within threshold/2 plus the
        # half-pixel arc of one of its source neighbors' reconstructions
        thr = 2.5
        deg = downsample_ri(synth_ri, 2, 1)
        out = upscale_gradient(deg, 32, 4, grad_threshold=thr)
        cloud = ri_to_cloud(out)
        rows, cols = np.nonzero(out.occupied)
        pts = cloud.points
        index = {(r, c): i for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist()))}
        arc_step = math.pi / deg.geometry.width
        checked = 0
        for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
            if c % 2 == 0:
                continue
            best = math.inf
            for nc in (c - 1, c + 1):
                j = index.get((r, nc))
                if j is not None:
                    d = float(np.linalg.norm(pts[i] - pts[j]))
                    radius = float(np.linalg.norm(pts[j]))
                    best = min(best, d - (thr / 2 + radius * arc_step))
            assert best <= 1e-9
            checked += 1
        assert checked > 1000


def filled_sites(out: RangeImage) -> set:
    """(row, col) of every filled site: output column 2c + 1 holds the
    site between source columns c and c + 1."""
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(out.depth[:, 1::2] != EMPTY))}


def assert_plan_is_windows(ri: RangeImage, plan, window_w: int, window_h: int):
    """plan[r, k, i, j] is the site between pixels (v, u) and (v, u + 1),
    v = r * window_h + i, u = k * window_w + j, for every pair inside a
    window and no other."""
    g = ri.geometry
    assert plan.valid.shape == (g.height // window_h, g.width // window_w, window_h, window_w - 1)
    assert plan.fill_value.shape == plan.neighbor_depth.shape == plan.valid.shape
    grid = ri.depth.tolist()
    fill, near = plan.fill_value.tolist(), plan.neighbor_depth.tolist()
    for r, k, i, j in np.ndindex(plan.valid.shape):
        a, b = grid[r * window_h + i][k * window_w + j: k * window_w + j + 2]
        assert (fill[r][k][i][j], near[r][k][i][j]) == (a + (b - a) / 2.0, min(a, b))


def assert_boundary_safe(src: RangeImage, out: RangeImage, threshold: float):
    """Every filled odd column has two non-EMPTY source neighbors whose
    depths differ by at most the threshold."""
    fills = out.depth[:, 1::2]
    rows, gaps = np.nonzero(fills != EMPTY)
    left = src.depth[rows, gaps]
    right_col = gaps + 1
    assert (right_col < src.geometry.width).all()
    right = src.depth[rows, right_col]
    assert (left != EMPTY).all()
    assert (right != EMPTY).all()
    assert (np.abs(right - left) <= threshold).all()
