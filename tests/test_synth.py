from dataclasses import replace

import numpy as np
import pytest

from riterp import KITTI_GEOMETRY, RiGeometry, cloud_to_ri, occupancy, synth_scene
from riterp import synth

from oracles import brute_box_hit

SMALL_GEOMETRY = RiGeometry(width=256, height=16, pitch_max=2.0, pitch_min=-24.8,
                            min_depth=2.0, max_depth=120.0)


class TestSynthScene:
    def test_deterministic(self):
        a = synth_scene(3)
        b = synth_scene(3)
        assert np.array_equal(a.points, b.points)

    def test_seeds_differ(self):
        a = synth_scene(0)
        b = synth_scene(1)
        assert len(a) != len(b) or not np.array_equal(a.points, b.points)

    def test_bounds(self):
        cloud = synth_scene(0)
        r = cloud.ranges()
        assert r.min() >= KITTI_GEOMETRY.min_depth
        assert r.max() <= KITTI_GEOMETRY.max_depth
        pitch = np.degrees(np.arcsin(cloud.points[:, 2] / r))
        assert pitch.min() >= KITTI_GEOMETRY.pitch_min - 1e-9
        assert pitch.max() <= KITTI_GEOMETRY.pitch_max + 1e-9

    def test_point_count_band(self):
        for seed in range(5):
            assert 50_000 <= len(synth_scene(seed)) <= 150_000

    def test_projection_occupancy(self):
        ri = cloud_to_ri(synth_scene(0), KITTI_GEOMETRY)
        assert occupancy(ri) > 0.3


def culled_hits(geom, dirs, bmin, bmax):
    """A box's per-ray depth as synth_scene computes it: slab-tested only
    over _box_columns, inf elsewhere."""
    grid_dirs = dirs.reshape(geom.height, geom.width, 3)
    cols = synth._box_columns(geom, bmin, bmax)
    depth = np.full((geom.height, geom.width), np.inf)
    depth[:, cols] = synth._box_hits(grid_dirs[:, cols].reshape(-1, 3), bmin, bmax).reshape(geom.height, -1)
    return depth.ravel()


GEOMETRIES = pytest.mark.parametrize("geom", [KITTI_GEOMETRY, SMALL_GEOMETRY], ids=["kitti", "256x16"])
SMALL_GEOMETRIES = pytest.mark.parametrize("geom", [SMALL_GEOMETRY, replace(SMALL_GEOMETRY, width=400)],
                                           ids=["256x16", "400x16"])


class TestBoxCulling:
    """Culled slab tests against the reference, _box_hits over every ray."""

    @GEOMETRIES
    def test_scene_boxes_equal_full_raycast(self, geom, monkeypatch):
        boxes = []
        hits = synth._box_hits

        def recording(dirs, bmin, bmax):
            boxes.append((bmin, bmax))
            return hits(dirs, bmin, bmax)

        monkeypatch.setattr(synth, "_box_hits", recording)
        for seed in range(20):
            synth_scene(seed, geom)
        monkeypatch.undo()
        assert len(boxes) >= 20 * 13
        dirs = synth._ray_directions(geom)
        for bmin, bmax in boxes:
            assert np.array_equal(culled_hits(geom, dirs, bmin, bmax), synth._box_hits(dirs, bmin, bmax))

    def test_box_hits_equal_a_per_ray_slab_test(self):
        # rays and box faces on the axes take the parallel-ray branch
        rng = np.random.default_rng(5)
        for _ in range(50):
            dirs = rng.normal(size=(200, 3))
            dirs[rng.random(dirs.shape) < 0.3] = 0.0
            bmin = rng.uniform(-3.0, 1.0, 3)
            bmax = bmin + rng.uniform(0.0, 4.0, 3)
            bmin[rng.random(3) < 0.2] = 0.0
            bmax = np.maximum(bmin, np.where(rng.random(3) < 0.2, 0.0, bmax))
            expected = [brute_box_hit(d, bmin, bmax) for d in dirs]
            assert synth._box_hits(dirs, bmin, bmax).tolist() == expected

    @GEOMETRIES
    def test_box_across_the_seam(self, geom):
        # behind the sensor, straddling yaw = +-pi
        bmin, bmax = np.array([-12.0, -1.5, -1.8]), np.array([-10.0, 1.5, 0.5])
        cols = synth._box_columns(geom, bmin, bmax)
        assert 0 in cols and geom.width - 1 in cols and len(cols) < geom.width // 4
        dirs = synth._ray_directions(geom)
        full = synth._box_hits(dirs, bmin, bmax)
        assert np.isfinite(full).any()
        assert np.array_equal(culled_hits(geom, dirs, bmin, bmax), full)

    @GEOMETRIES
    def test_box_around_the_origin(self, geom):
        bmin, bmax = np.array([-3.0, -2.0, -1.8]), np.array([4.0, 5.0, -1.0])
        assert np.array_equal(synth._box_columns(geom, bmin, bmax), np.arange(geom.width))
        dirs = synth._ray_directions(geom)
        full = synth._box_hits(dirs, bmin, bmax)
        assert np.isfinite(full).any()
        assert np.array_equal(culled_hits(geom, dirs, bmin, bmax), full)




class TestCylinderCulling:
    """Cylinders are raycast over the columns of their bounding box only;
    the reference is _cylinder_hits over every ray."""

    @pytest.mark.parametrize("geom", [KITTI_GEOMETRY, SMALL_GEOMETRY, replace(SMALL_GEOMETRY, width=400)],
                             ids=["kitti", "256x16", "400x16"])
    def test_scene_cylinders_keep_every_hit(self, geom, monkeypatch):
        culled = []
        hits = synth._cylinder_hits

        def recording(dirs, cx, cy, radius, z_top):
            out = hits(dirs, cx, cy, radius, z_top)
            culled.append(((cx, cy, radius, z_top), len(dirs), out[np.isfinite(out)]))
            return out

        monkeypatch.setattr(synth, "_cylinder_hits", recording)
        for seed in range(12):
            synth_scene(seed, geom)
        monkeypatch.undo()
        assert len(culled) >= 12 * 5
        dirs = synth._ray_directions(geom)
        for args, tested, found in culled:
            full = hits(dirs, *args)
            assert tested < len(dirs) // 4
            assert np.array_equal(np.sort(found), np.sort(full[np.isfinite(full)]))

    @SMALL_GEOMETRIES
    def test_scene_equals_full_raycast(self, geom, monkeypatch):
        culled = [synth_scene(seed, geom).points for seed in range(12)]
        monkeypatch.setattr(synth, "_box_columns", lambda g, bmin, bmax: np.arange(g.width))
        for seed, points in enumerate(culled):
            assert np.array_equal(points, synth_scene(seed, geom).points)
