import numpy as np
import pytest

from riterp import (
    RangeImage,
    RiGeometry,
    downsample_ri,
    occupancy,
    quantize,
)

from conftest import random_ri


def step(bits: int) -> float:
    """Quantizer step over the [2, 120] m depth clamp of every test geometry."""
    return 118.0 / (2**bits - 2)


class TestDownsample:
    def test_decimation_picks_even_columns(self, small_geometry):
        rng = np.random.default_rng(0)
        ri = random_ri(rng, small_geometry)
        out = downsample_ri(ri, 2, 1)
        assert out.geometry.width == 8 and out.geometry.height == 4
        assert np.array_equal(out.depth, ri.depth[:, ::2])

    def test_identity_factors(self, small_geometry):
        rng = np.random.default_rng(1)
        ri = random_ri(rng, small_geometry)
        out = downsample_ri(ri, 1, 1)
        assert np.array_equal(out.depth, ri.depth)

    def test_non_divisible_factor_rejected(self, small_geometry):
        ri = random_ri(np.random.default_rng(2), small_geometry)
        with pytest.raises(ValueError, match="divide"):
            downsample_ri(ri, 3, 1)

    def test_checkerboard_count_never_increases(self):
        # decimation keeps a subset of pixels, so the non-empty COUNT can
        # only drop; the fraction can rise when the kept lattice lines up
        # with occupied pixels (e.g. factors (2,2) on this checkerboard)
        geom = RiGeometry(width=8, height=4, pitch_max=2, pitch_min=-24.8,
                          min_depth=2, max_depth=120)
        grid = np.zeros((4, 8))
        grid[::2, ::2] = 10.0
        grid[1::2, 1::2] = 20.0
        ri = RangeImage(geom, grid)
        total = np.count_nonzero(grid)
        for fx, fy in [(2, 1), (2, 2), (4, 2)]:
            out = downsample_ri(ri, fx, fy)
            # brute recount on the hand grid
            kept = int(np.count_nonzero(grid[::fy, ::fx]))
            assert int(np.count_nonzero(out.depth)) == kept
            assert kept <= total
        # column decimation alone preserves the half-empty fraction here
        assert occupancy(downsample_ri(ri, 2, 1)) == occupancy(ri)

    def test_nonempty_count_equals_recount(self, synth_ri):
        out = downsample_ri(synth_ri, 2, 1)
        expected = int(np.count_nonzero(synth_ri.depth[:, ::2]))
        assert int(np.count_nonzero(out.depth)) == expected


class TestQuantize:
    def _ri(self, values, geom):
        grid = np.zeros((geom.height, geom.width))
        flat = grid.reshape(-1)
        flat[: len(values)] = values
        return RangeImage(geom, grid)

    def test_endpoints_exact(self, small_geometry):
        ri = self._ri([2.0, 120.0], small_geometry)
        out = quantize(ri, 8)
        assert out.depth.reshape(-1)[0] == 2.0
        assert out.depth.reshape(-1)[1] == 120.0

    def test_empty_preserved(self, small_geometry):
        ri = self._ri([5.0], small_geometry)
        out = quantize(ri, 8)
        assert np.array_equal(out.occupied, ri.occupied)

    def test_rejects_bits_out_of_band(self, small_geometry):
        ri = self._ri([5.0], small_geometry)
        for bits in (3, 17):
            with pytest.raises(ValueError, match="bits"):
                quantize(ri, bits)

    @pytest.mark.parametrize("bits", [8, 10, 12])
    def test_half_step_error_bound(self, bits):
        # dense uniform sampling plus the reconstruction levels and the
        # cell boundaries approached to within 1e-9. The bound is sharp at
        # exact midpoints, where float64 evaluation sits within 1 ulp of
        # it on either side, so the boundary is probed from inside.
        rng = np.random.default_rng(bits)
        levels = 2.0 + np.arange(2**bits - 1) * 118.0 / (2**bits - 2)
        midpoints = (levels[:-1] + levels[1:]) / 2
        depths = np.concatenate([
            rng.uniform(2.0, 120.0, 200_000),
            levels,
            midpoints - 1e-9,
            midpoints + 1e-9,
        ])
        geom = RiGeometry(width=depths.size, height=2, pitch_max=2, pitch_min=-24.8,
                          min_depth=2.0, max_depth=120.0)
        grid = np.vstack([depths, depths])
        out = quantize(RangeImage(geom, grid), bits)
        err = np.abs(out.depth[0] - depths)
        assert err.max() <= step(bits) / 2

    def test_idempotent(self, small_geometry):
        rng = np.random.default_rng(5)
        for bits in (4, 8, 16):
            ri = random_ri(rng, small_geometry)
            once = quantize(ri, bits)
            twice = quantize(once, bits)
            assert np.array_equal(once.depth, twice.depth)

    def test_bits12_bound_value(self, small_geometry):
        # half-step for bits=12 over [2, 120] is ~0.0144 m: depths on either
        # side of 2.0144 snap to the first two levels
        out = quantize(self._ri([2.0144, 2.0145], small_geometry), 12)
        assert out.depth.reshape(-1)[:2].tolist() == [2.0, 2.0 + step(12)]


class TestLossyRoundtrip:
    """Downsample then quantize, the degradation used in the experiments,
    checked against the plain depth arrays."""

    def test_near_identity_at_16_bits(self, synth_ri):
        out = quantize(downsample_ri(synth_ri, 1, 1), 16)
        diff = np.abs(out.depth - synth_ri.depth)[synth_ri.occupied]
        assert diff.max() <= step(16)  # one 16-bit step per pixel

    def test_composition_matches_stages(self, synth_ri):
        out = quantize(downsample_ri(synth_ri, 2, 1), 8)
        kept = synth_ri.depth[:, ::2]
        occupied = kept != 0.0
        code = np.rint((kept[occupied] - 2.0) / 118.0 * 254)
        expected = np.zeros_like(kept)
        expected[occupied] = np.minimum(2.0 + (code * 118.0) / 254, 120.0)
        assert np.array_equal(out.depth, expected)

    def test_deterministic(self, synth_ri):
        a = quantize(downsample_ri(synth_ri, 2, 1), 8)
        b = quantize(downsample_ri(synth_ri, 2, 1), 8)
        assert np.array_equal(a.depth, b.depth)

    def test_empty_never_flips(self, synth_ri):
        out = quantize(downsample_ri(synth_ri, 2, 1), 8)
        assert np.array_equal(out.occupied, synth_ri.depth[:, ::2] != 0.0)
