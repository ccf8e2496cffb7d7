import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riterp import (
    EMPTY,
    KITTI_GEOMETRY,
    KdTree,
    PointCloud,
    RangeImage,
    RiGeometry,
    cloud_to_ri,
    occupancy,
    ri_to_cloud,
)
from riterp.projection import (WINDOW_COLS, WINDOW_ROWS, load_ri, pixel_center_angles, save_ri,
                               write_pgm, xyz_grid)

from conftest import random_ri

RI_KEYS = ("depth", "width", "height", "pitch_max", "pitch_min", "min_depth", "max_depth")
GEOM_1024 = RiGeometry(width=1024, height=64, pitch_max=2.0, pitch_min=-24.8,
                       min_depth=2.0, max_depth=120.0)


class TestGeometryValidation:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            RiGeometry(width=1, height=64, pitch_max=2, pitch_min=-24.8,
                       min_depth=2, max_depth=120)

    def test_rejects_inverted_fov(self):
        with pytest.raises(ValueError):
            RiGeometry(width=64, height=64, pitch_max=-5, pitch_min=5,
                       min_depth=2, max_depth=120)

    def test_rejects_zero_min_depth(self):
        with pytest.raises(ValueError):
            RiGeometry(width=64, height=64, pitch_max=2, pitch_min=-24.8,
                       min_depth=0.0, max_depth=120)

    def test_rejects_empty_depth_range(self):
        # quantize spans [min_depth, max_depth], so it must not be empty
        with pytest.raises(ValueError, match="min_depth < max_depth"):
            RiGeometry(width=64, height=64, pitch_max=2, pitch_min=-24.8,
                       min_depth=5.0, max_depth=5.0)

    @pytest.mark.parametrize("key", ["pitch_min", "pitch_max", "min_depth", "max_depth"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fov_and_depths(self, key, value):
        # an infinite max_depth would normalize every SSIM depth to 0, an
        # infinite pitch bound would project every point to NaN
        fields = dict(width=64, height=64, pitch_max=2, pitch_min=-24.8,
                      min_depth=2, max_depth=120)
        fields[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
            RiGeometry(**fields)


    @pytest.mark.parametrize("key, value", [("width", 64.0), ("height", 64.5), ("width", "64")])
    def test_rejects_non_integer_size(self, key, value):
        # a float width reached cloud_to_ri and failed there in a numpy cast
        fields = dict(width=64, height=64, pitch_max=2, pitch_min=-24.8,
                      min_depth=2, max_depth=120)
        fields[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value}$"):
            RiGeometry(**fields)

    def test_numpy_integer_size_is_legal(self):
        geom = RiGeometry(width=np.int64(64), height=np.int32(4), pitch_max=2, pitch_min=-24.8,
                          min_depth=2, max_depth=120)
        assert cloud_to_ri(PointCloud(points=[[10.0, 0.0, -1.0]]), geom).occupied.sum() == 1


class TestRangeImageValidation:
    def test_rejects_wrong_shape(self, small_geometry):
        with pytest.raises(ValueError, match="shape"):
            RangeImage(small_geometry, np.zeros((2, 2)))

    def test_rejects_out_of_clamp_depth(self, small_geometry):
        grid = np.zeros((4, 16))
        grid[0, 0] = 1.0  # below min_depth and not EMPTY
        with pytest.raises(ValueError, match="non-empty depths"):
            RangeImage(small_geometry, grid)


class TestImageOwnsItsPoints:
    def test_takes_the_depth_array_and_makes_it_read_only(self, small_geometry):
        depth = random_ri(np.random.default_rng(4), small_geometry).depth.copy()
        ri = RangeImage(small_geometry, depth)
        assert ri.depth is depth and not depth.flags.writeable

    def test_copies_a_column_major_depth_to_c_order(self, small_geometry):
        depth = np.asfortranarray(random_ri(np.random.default_rng(4), small_geometry).depth)
        ri = RangeImage(small_geometry, depth)
        assert ri.depth.flags.c_contiguous and np.array_equal(ri.depth, depth)
        assert depth.flags.writeable  # the caller's array is left alone

    def test_its_depth_cannot_be_rebound(self, small_geometry):
        ri = random_ri(np.random.default_rng(4), small_geometry)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ri.depth = np.zeros((4, 16))

    @pytest.mark.parametrize("array", ["depth", "xyz", "cloud", "occupied"])
    def test_writing_into_its_arrays_raises(self, array, small_geometry):
        ri = random_ri(np.random.default_rng(5), small_geometry)
        values = {"depth": ri.depth, "xyz": ri.xyz, "cloud": ri.cloud.points,
                  "occupied": ri.occupied}[array]
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 1.0

    def test_xyz_and_cloud_are_built_once_bit_for_bit(self, small_geometry):
        ri = random_ri(np.random.default_rng(6), small_geometry, 0.3)
        assert ri.xyz.tobytes() == xyz_grid(ri).tobytes() and ri.xyz is ri.xyz
        assert ri.cloud.points.tobytes() == ri_to_cloud(ri).points.tobytes()
        assert ri.cloud is ri.cloud

    def test_occupied_is_the_non_empty_mask_built_once(self, small_geometry):
        ri = random_ri(np.random.default_rng(7), small_geometry, 0.3)
        assert np.array_equal(ri.occupied, ri.depth != EMPTY) and ri.occupied.dtype == bool
        assert ri.occupied is ri.occupied


class TestCloudToRi:
    def test_single_point_lands_on_derived_pixel(self):
        # hand evaluation: r=10, yaw=0 -> u = floor(0.5*1024) = 512;
        # pitch=0 deg -> v = floor((1 - 24.8/26.8) * 64) = floor(4.776) = 4
        cloud = PointCloud(points=[[10.0, 0.0, 0.0]])
        ri = cloud_to_ri(cloud, GEOM_1024)
        occupied = np.argwhere(ri.occupied)
        assert occupied.tolist() == [[4, 512]]
        assert ri.depth[4, 512] == 10.0

    def test_empty_cloud_gives_all_empty(self):
        ri = cloud_to_ri(PointCloud(points=np.zeros((0, 3))), GEOM_1024)
        assert not ri.occupied.any()

    def test_nearest_depth_wins(self):
        cloud = PointCloud(points=[[5.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
        ri = cloud_to_ri(cloud, GEOM_1024)
        assert ri.depth[4, 512] == 5.0

    def test_order_independence(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-40, 40, size=(2000, 3))
        a = cloud_to_ri(PointCloud(points=pts), GEOM_1024)
        b = cloud_to_ri(PointCloud(points=pts[rng.permutation(2000)]), GEOM_1024)
        assert np.array_equal(a.depth, b.depth)

    def test_out_of_band_points_dropped(self):
        cloud = PointCloud(points=[[1.0, 0, 0], [500.0, 0, 0], [1.0, 0, 10.0]])
        ri = cloud_to_ri(cloud, GEOM_1024)
        assert not ri.occupied.any()

    @pytest.mark.parametrize("crowded", [False, True], ids=["small", "kitti_crowded"])
    def test_small_grid_matches_per_point_binning(self, small_geometry, crowded):
        # independent per-point loop over the stated formulas; "crowded"
        # puts 2-40 points in each of 300 pixels at the KITTI geometry, some
        # outside the depth clamp, where the nearest in-clamp depth must win
        rng = np.random.default_rng(42)
        if crowded:
            g = KITTI_GEOMETRY
            per_pixel = rng.integers(2, 41, 300)
            n = int(per_pixel.sum())
            # fractional rows and columns well inside each pixel
            v = rng.integers(0, g.height, 300).repeat(per_pixel) + rng.uniform(0.01, 0.99, n)
            u = rng.integers(0, g.width, 300).repeat(per_pixel) + rng.uniform(0.01, 0.99, n)
            yaw = np.pi * (1.0 - 2.0 * u / g.width)
            pitch = np.radians(g.pitch_max - v / g.height * g.pitch_span)
            r = rng.uniform(1.0, 130.0, n)
            pts = np.stack([r * np.cos(pitch) * np.cos(yaw), r * np.cos(pitch) * np.sin(yaw),
                            r * np.sin(pitch)], axis=1)
        else:
            g = small_geometry
            pts = rng.uniform(-30, 30, size=(300, 3))
        ri = cloud_to_ri(PointCloud(points=pts), g)

        expected = {}
        for x, y, z in pts:
            r = math.sqrt(x * x + y * y + z * z)
            d = float(np.float32(r))
            pitch = math.degrees(math.asin(z / r))
            if not (g.min_depth <= d <= g.max_depth and g.pitch_min <= pitch <= g.pitch_max):
                continue
            u = min(max(int(math.floor(0.5 * (1 - math.atan2(y, x) / math.pi) * g.width)), 0), g.width - 1)
            v = min(max(int(math.floor((1 - (pitch - g.pitch_min) / g.pitch_span) * g.height)), 0), g.height - 1)
            expected[(v, u)] = min(expected.get((v, u), math.inf), d)
        grid = np.zeros((g.height, g.width))
        for (v, u), d in expected.items():
            grid[v, u] = d
        assert np.array_equal(ri.depth, grid)
        if crowded:  # thousands of points, at most 300 pixels
            assert np.count_nonzero(grid) <= 300


class TestRiToCloud:
    def test_all_empty_gives_empty_cloud(self, small_geometry):
        ri = RangeImage(small_geometry, np.zeros((4, 16)))
        assert len(ri_to_cloud(ri)) == 0

    def test_single_pixel_center_ray(self):
        grid = np.zeros((64, 1024))
        grid[10, 512] = 10.0
        ri = RangeImage(GEOM_1024, grid)
        cloud = ri_to_cloud(ri)
        assert len(cloud) == 1
        x, y, z = cloud.points[0]
        yaw = math.atan2(y, x)
        assert yaw == pytest.approx(-math.pi / 1024, rel=1e-12)
        assert np.float32(math.sqrt(x * x + y * y + z * z)) == np.float32(10.0)

    def test_depths_survive_reconstruction_exactly(self, synth_ri):
        cloud = ri_to_cloud(synth_ri)
        v, u = np.nonzero(synth_ri.occupied)
        ranges32 = np.linalg.norm(cloud.points, axis=1).astype(np.float32)
        assert np.array_equal(ranges32.astype(np.float64), synth_ri.depth[v, u])

    def test_projection_roundtrip_is_fixed_point(self, synth_ri):
        cloud = ri_to_cloud(synth_ri)
        again = cloud_to_ri(cloud, synth_ri.geometry)
        assert np.array_equal(again.depth, synth_ri.depth)

    def test_roundtrip_fixed_point_on_random_ris(self, small_geometry):
        # float32-representable depths re-project into their own pixels
        rng = np.random.default_rng(9)
        for _ in range(50):
            ri = random_ri(rng, small_geometry)
            ri = RangeImage(small_geometry, ri.depth.astype(np.float32).astype(np.float64))
            again = cloud_to_ri(ri_to_cloud(ri), small_geometry)
            assert np.array_equal(again.depth, ri.depth)

    def test_output_points_near_input_points(self, synth_cloud, synth_ri):
        # every reconstructed point is within the angular half-pixel of a
        # surviving input point; check via NN distance against the input
        out = ri_to_cloud(synth_ri)
        tree = KdTree(synth_cloud)
        dist, _ = tree.query(out.points)
        g = synth_ri.geometry
        half_pixel_diag = math.pi / g.width + math.radians(g.pitch_span) / (2 * g.height)
        bound = np.linalg.norm(out.points, axis=1) * half_pixel_diag + 1e-6
        assert (dist <= bound).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(2, 2049), height=st.integers(2, 70),
       lo=st.integers(-890, 880), span=st.integers(1, 1780), seed=st.integers(0, 2**32 - 1))
def test_ri_to_cloud_equals_per_point_trig(width, height, lo, span, seed):
    """ri_to_cloud reads its rays from the geometry's tables; every point
    is bit-identical to the per-point formula, seam columns included."""
    geom = RiGeometry(width=width, height=height, pitch_min=lo / 10,
                      pitch_max=min(lo + span, 890) / 10, min_depth=2.0, max_depth=120.0)
    rng = np.random.default_rng(seed)
    depth = rng.uniform(2.0, 120.0, (height, width))
    depth[rng.random(depth.shape) < 0.3] = EMPTY
    depth[:, [0, -1]] = rng.uniform(2.0, 120.0, (height, 2))
    ri = RangeImage(geom, depth)
    v, u = np.nonzero(ri.occupied)
    r = ri.depth[v, u]
    yaw, pitch = pixel_center_angles(geom, v, u)
    cos_pitch = np.cos(pitch)
    expected = np.stack([r * cos_pitch * np.cos(yaw), r * cos_pitch * np.sin(yaw),
                         r * np.sin(pitch)], axis=1)
    assert np.array_equal(ri_to_cloud(ri).points, expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.integers(2, 2049), height=st.integers(2, 70),
       lo=st.integers(-890, 880), span=st.integers(1, 1780), seed=st.integers(0, 2**32 - 1),
       empty=st.sampled_from([0.0, 0.3, 0.9, 1.0]))
@example(width=2048, height=64, lo=-248, span=268, seed=0, empty=0.3)
def test_xyz_grid_lays_out_each_pixels_point(width, height, lo, span, seed, empty):
    """Each occupied pixel's xyz in the grid is its ri_to_cloud point, bit
    for bit; EMPTY pixels and the pad rows above and below are NaN; each
    pad column repeats the image column across the seam from it."""
    geom = RiGeometry(width=width, height=height, pitch_min=lo / 10,
                      pitch_max=min(lo + span, 890) / 10, min_depth=2.0, max_depth=120.0)
    ri = random_ri(np.random.default_rng(seed), geom, empty)
    grid = xyz_grid(ri)
    pr, pc = WINDOW_ROWS, WINDOW_COLS
    assert grid.shape == (3, height + 2 * pr, width + 2 * pc) and grid.dtype == np.float64
    image = grid[:, pr:pr + height, pc:pc + width]
    assert np.array_equal(image[:, ri.occupied].T, ri_to_cloud(ri).points)
    assert np.isnan(image[:, ~ri.occupied]).all()
    assert np.isnan(grid[:, :pr]).all() and np.isnan(grid[:, pr + height:]).all()
    seam = np.arange(-pc, width + pc) % width
    assert np.array_equal(grid[:, pr:pr + height], image[:, :, seam], equal_nan=True)


class TestOccupancy:
    def test_all_empty(self, small_geometry):
        assert occupancy(RangeImage(small_geometry, np.zeros((4, 16)))) == 0.0

    def test_all_set(self, small_geometry):
        assert occupancy(RangeImage(small_geometry, np.full((4, 16), 50.0))) == 1.0

    def test_three_of_eight(self):
        geom = RiGeometry(width=4, height=2, pitch_max=2, pitch_min=-24.8,
                          min_depth=2, max_depth=120)
        grid = np.zeros((2, 4))
        grid[0, 0] = grid[0, 2] = grid[1, 3] = 10.0
        assert occupancy(RangeImage(geom, grid)) == 0.375

    def test_bounded_by_point_count(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-40, 40, size=(100, 3))
        ri = cloud_to_ri(PointCloud(points=pts), GEOM_1024)
        assert occupancy(ri) <= min(1.0, 100 / (1024 * 64))


class TestRiFiles:
    @pytest.mark.parametrize("name, written", [("ri.npz", "ri.npz"), ("ri.NPZ", "ri.NPZ"),
                                               ("ri.nPz", "ri.nPz"), ("ri", "ri.npz"),
                                               ("ri.v2", "ri.v2.npz"), ("ri.npz.v2", "ri.npz.v2.npz")])
    def test_save_writes_exactly_the_path_it_returns(self, name, written, tmp_path, small_geometry):
        """.npz is appended unless the name ends in it, in any case."""
        ri = random_ri(np.random.default_rng(8), small_geometry)
        path = save_ri(ri, str(tmp_path / name))
        assert path == tmp_path / written
        assert [p.name for p in tmp_path.iterdir()] == [written]
        assert np.array_equal(load_ri(path).depth, ri.depth)

    def test_npz_roundtrip(self, tmp_path, synth_ri):
        path = tmp_path / "ri.npz"
        save_ri(synth_ri, path)
        again = load_ri(path)
        assert again.geometry == synth_ri.geometry
        assert np.array_equal(again.depth, synth_ri.depth)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(width=st.integers(2, 300), height=st.integers(2, 40), lo=st.floats(-30, 10),
           span=st.floats(0.5, 40), depths=st.tuples(st.floats(0.1, 50), st.floats(1, 200)),
           seed=st.integers(0, 2**32 - 1), drop=st.sampled_from([None, *RI_KEYS]))
    def test_npz_roundtrip_or_missing_key_names_file_and_key(
            self, tmp_path_factory, width, height, lo, span, depths, seed, drop):
        geom = RiGeometry(width=width, height=height, pitch_max=lo + span, pitch_min=lo,
                          min_depth=depths[0], max_depth=depths[0] + depths[1])
        ri = random_ri(np.random.default_rng(seed), geom, empty_fraction=0.3)
        path = tmp_path_factory.mktemp("ri") / "ri.npz"
        save_ri(ri, path)
        if drop is None:
            again = load_ri(path)
            assert again.geometry == geom
            assert np.array_equal(again.depth, ri.depth)
            return
        with np.load(path) as data:
            kept = {key: data[key] for key in data.files if key != drop}
        np.savez(path, **kept)
        with pytest.raises(ValueError) as err:
            load_ri(path)
        assert str(path) in str(err.value) and repr(drop) in str(err.value)

    def test_invalid_archived_geometry_names_the_file(self, tmp_path, small_geometry):
        path = tmp_path / "ri.npz"
        save_ri(RangeImage(small_geometry, np.zeros((4, 16))), path)
        with np.load(path) as data:
            kept = dict(data)
        np.savez(path, **{**kept, "min_depth": 0.0})
        with pytest.raises(ValueError, match="min_depth") as err:
            load_ri(path)
        assert str(path) in str(err.value)

    def test_non_scalar_archived_geometry_names_the_file(self, tmp_path, small_geometry):
        path = tmp_path / "ri.npz"
        save_ri(RangeImage(small_geometry, np.zeros((4, 16))), path)
        with np.load(path) as data:
            kept = dict(data)
        np.savez(path, **{**kept, "width": np.array([16, 16])})
        with pytest.raises(ValueError) as err:
            load_ri(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_non_integer_archived_size_names_the_file_and_key(self, tmp_path, small_geometry, key):
        # int() would truncate 16.7 x 4.2 to a 16 x 4 image
        path = tmp_path / "ri.npz"
        save_ri(RangeImage(small_geometry, np.zeros((4, 16))), path)
        with np.load(path) as data:
            kept = dict(data)
        np.savez(path, **{**kept, key: {"width": 16.7, "height": 4.2}[key]})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {key} must be an integer") as err:
            load_ri(path)
        assert "\n" not in str(err.value)

    def test_pgm_format(self, tmp_path, small_geometry):
        grid = np.zeros((4, 16))
        grid[1, 2] = 60.0   # maps to round(60/120*65535) = 32768
        grid[3, 15] = 120.0
        ri = RangeImage(small_geometry, grid)
        path = tmp_path / "ri.pgm"
        write_pgm(ri, path)
        raw = path.read_bytes()
        header = b"P5\n16 4\n65535\n"
        assert raw.startswith(header)
        img = np.frombuffer(raw[len(header):], dtype=">u2").reshape(4, 16)
        assert img[1, 2] == 32768
        assert img[3, 15] == 65535
        assert img[0, 0] == 0
