import numpy as np
import pytest

from riterp import EMPTY, SUPPORT, RangeImage, RiGeometry, upscale_baseline
from riterp.baselines import _axis_taps, _kernel

from conftest import random_ri
from oracles import brute_upscale

METHODS = ("bilinear", "bicubic", "lanczos3")


class TestRejections:
    def test_rejects_unknown_method(self, small_geometry):
        ri = random_ri(np.random.default_rng(0), small_geometry)
        with pytest.raises(ValueError, match="method.*'nearest'"):
            upscale_baseline(ri, "nearest", 2, 1)

    @pytest.mark.parametrize("factor_x, factor_y", [(0, 1), (2, 0), (-2, 1)])
    def test_rejects_bad_factor(self, small_geometry, factor_x, factor_y):
        ri = random_ri(np.random.default_rng(0), small_geometry)
        with pytest.raises(ValueError, match="factors"):
            upscale_baseline(ri, "bilinear", factor_x, factor_y)


def taps_at(method: str, phase: float) -> np.ndarray:
    """Raw kernel at phase minus each tap offset, taps left to right."""
    return _kernel(method, phase - np.arange(1 - SUPPORT[method], SUPPORT[method] + 1))


class TestKernelWeights:
    def test_lengths(self):
        for method, n in [("bilinear", 2), ("bicubic", 4), ("lanczos3", 6)]:
            for factor in (1, 2, 3):
                idx, w = _axis_taps(8, factor, method)
                assert idx.shape == w.shape == (8 * factor, n)

    def test_weights_sum_to_one(self):
        for method in METHODS:
            for factor in range(1, 8):
                _, w = _axis_taps(8, factor, method)
                np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_bilinear_phase_zero(self):
        # tap order is left to right: phase 0 weights the base pixel fully
        np.testing.assert_array_equal(taps_at("bilinear", 0.0), [1.0, 0.0])
        idx, w = _axis_taps(4, 1, "bilinear")
        np.testing.assert_array_equal(w, [[1.0, 0.0]] * 4)
        np.testing.assert_array_equal(idx[:, 0], np.arange(4))

    def test_bilinear_midpoint_of_pair(self):
        # the interpolant evaluated midway between 4.0 and 8.0 gives 6.0
        assert float(taps_at("bilinear", 0.5) @ [4.0, 8.0]) == pytest.approx(6.0)

    def test_bicubic_half_phase(self):
        # Keys kernel (a=-0.5) evaluated analytically at |t| = 0.5, 1.5
        np.testing.assert_allclose(taps_at("bicubic", 0.5),
                                   [-0.0625, 0.5625, 0.5625, -0.0625], atol=1e-15)

    def test_lanczos3_phase_zero_is_delta(self):
        np.testing.assert_array_equal(taps_at("lanczos3", 0.0), [0, 0, 1.0, 0, 0, 0])
        _, w = _axis_taps(6, 1, "lanczos3")
        np.testing.assert_array_equal(w, np.tile([0, 0, 1.0, 0, 0, 0], (6, 1)))


class TestUpscaleBaseline:
    def test_constant_image_preserved(self, small_geometry):
        grid = np.full((4, 16), 7.0)
        ri = RangeImage(small_geometry, grid)
        for method in METHODS:
            out = upscale_baseline(ri, method, 2, 1)
            np.testing.assert_allclose(out.depth, 7.0, rtol=1e-12)

    def test_bilinear_two_pixel_row(self):
        # hand-derived: align-centers 2x of [4, 8] samples source
        # coordinates {-0.25, 0.25, 0.75, 1.25} -> [4, 5, 7, 8]
        geom = RiGeometry(width=2, height=2, pitch_max=2, pitch_min=-24.8,
                          min_depth=2.0, max_depth=120.0)
        ri = RangeImage(geom, np.array([[4.0, 8.0], [4.0, 8.0]]))
        out = upscale_baseline(ri, "bilinear", 2, 1)
        np.testing.assert_allclose(out.depth[0], [4.0, 5.0, 7.0, 8.0], atol=1e-12)

    def test_output_geometry_scales(self, small_geometry):
        ri = random_ri(np.random.default_rng(1), small_geometry)
        out = upscale_baseline(ri, "bilinear", 2, 2)
        assert (out.geometry.width, out.geometry.height) == (32, 8)
        assert out.geometry.pitch_max == small_geometry.pitch_max

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_brute_force_oracle(self, method, small_geometry):
        rng = np.random.default_rng(99)
        for _ in range(100):
            ri = random_ri(rng, small_geometry)
            out = upscale_baseline(ri, method, 2, 1)
            expected = brute_upscale(ri.depth, 2, 1, method,
                                     small_geometry.min_depth, small_geometry.max_depth)
            np.testing.assert_allclose(out.depth, expected, atol=1e-5)

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_oracle_both_axes(self, method, small_geometry):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ri = random_ri(rng, small_geometry)
            out = upscale_baseline(ri, method, 2, 2)
            expected = brute_upscale(ri.depth, 2, 2, method,
                                     small_geometry.min_depth, small_geometry.max_depth)
            np.testing.assert_allclose(out.depth, expected, atol=1e-5)

    @pytest.mark.parametrize("method", ["bilinear", "lanczos3", "bicubic"])
    def test_on_grid_exactness_at_odd_factor(self, method, small_geometry):
        # factor 3 puts output t = 3k + 1 exactly on source pixel k
        rng = np.random.default_rng(3)
        grid = rng.uniform(10.0, 100.0, size=(4, 16))
        ri = RangeImage(small_geometry, grid)
        out = upscale_baseline(ri, method, 3, 1)
        assert np.array_equal(out.depth[:, 1::3], grid)

    def test_empty_participates_as_zero(self):
        # deliberately blind: a neighbor gap drags values toward 0
        geom = RiGeometry(width=4, height=2, pitch_max=2, pitch_min=-24.8,
                          min_depth=2.0, max_depth=120.0)
        grid = np.array([[50.0, EMPTY, 50.0, 50.0]] * 2)
        ri = RangeImage(geom, grid)
        out = upscale_baseline(ri, "bilinear", 2, 1)
        # sample between 50 and EMPTY: 0.75*50 + 0.25*0 = 37.5
        assert out.depth[0, 1] == pytest.approx(37.5)

    def test_low_values_become_empty(self):
        geom = RiGeometry(width=4, height=2, pitch_max=2, pitch_min=-24.8,
                          min_depth=2.0, max_depth=120.0)
        grid = np.array([[2.5, EMPTY, EMPTY, EMPTY]] * 2)
        ri = RangeImage(geom, grid)
        out = upscale_baseline(ri, "bilinear", 2, 1)
        # 0.25 * 2.5 = 0.625 < min_depth -> EMPTY
        assert out.depth[0, 2] == EMPTY

    def test_values_clamped_to_max_depth(self):
        # bicubic overshoot at a strong edge must not exceed max_depth
        geom = RiGeometry(width=8, height=2, pitch_max=2, pitch_min=-24.8,
                          min_depth=2.0, max_depth=120.0)
        grid = np.array([[2.0, 2.0, 2.0, 2.0, 120.0, 120.0, 120.0, 120.0]] * 2)
        ri = RangeImage(geom, grid)
        for method in ("bicubic", "lanczos3"):
            out = upscale_baseline(ri, method, 2, 1)
            assert out.depth.max() <= 120.0

    def test_bilinear_output_within_neighborhood(self, small_geometry):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ri = random_ri(rng, small_geometry)
            out = upscale_baseline(ri, "bilinear", 2, 2)
            padded = ri.depth
            # each output pixel lies within [min, max] of its 2x2 source patch
            for t in range(out.geometry.height):
                sy = min(max((t + 0.5) / 2 - 0.5, 0), padded.shape[0] - 1)
                y0 = int(np.floor(sy)); y1 = min(y0 + 1, padded.shape[0] - 1)
                for j in range(out.geometry.width):
                    sx = min(max((j + 0.5) / 2 - 0.5, 0), padded.shape[1] - 1)
                    x0 = int(np.floor(sx)); x1 = min(x0 + 1, padded.shape[1] - 1)
                    patch = padded[[y0, y0, y1, y1], [x0, x1, x0, x1]]
                    value = out.depth[t, j]
                    if value == EMPTY:
                        # clamped to EMPTY only when the blend fell below min_depth
                        assert patch.min() < small_geometry.min_depth
                    else:
                        assert patch.min() - 1e-9 <= value <= patch.max() + 1e-9
