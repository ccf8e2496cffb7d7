import numpy as np
import pytest

from riterp import (
    KdTree,
    PipelineConfig,
    PointCloud,
    RangeImage,
    RiGeometry,
    chamfer,
    downsample_ri,
    ri_to_cloud,
    ssim,
)
from riterp import metrics
from riterp.metrics import nn_distances, noise_split, window_distances

from conftest import random_ri
from oracles import brute_chamfer, brute_nn_dists, reference_ssim

GEOM_16 = RiGeometry(width=16, height=16, pitch_max=2, pitch_min=-24.8,
                     min_depth=2.0, max_depth=120.0)


def ri_from(grid):
    grid = np.asarray(grid, dtype=np.float64)
    geom = RiGeometry(width=grid.shape[1], height=grid.shape[0], pitch_max=2,
                      pitch_min=-24.8, min_depth=2.0, max_depth=120.0)
    return RangeImage(geom, grid)


class TestSsim:
    def test_self_score_is_exactly_one(self):
        rng = np.random.default_rng(0)
        ri = random_ri(rng, GEOM_16)
        assert ssim(ri, ri) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = random_ri(rng, GEOM_16)
            b = random_ri(rng, GEOM_16)
            assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)

    def test_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_ri(rng, GEOM_16)
            b = random_ri(rng, GEOM_16)
            assert -1.0 <= ssim(a, b) <= 1.0

    def test_checkerboard_inversion_is_negative(self):
        # high-variance image vs its inversion: structure term flips sign
        idx = np.indices((8, 8)).sum(axis=0)
        x = np.where(idx % 2 == 0, 120.0, 0.0)
        a = ri_from(x)
        b = ri_from(120.0 - x)
        score = ssim(a, b)
        assert score < 0
        # agrees with the nested-loop reference formula
        expected = reference_ssim(x / 120.0, (120.0 - x) / 120.0)
        assert score == pytest.approx(expected, abs=1e-12)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = random_ri(rng, GEOM_16)
            b = random_ri(rng, GEOM_16)
            expected = reference_ssim(a.depth / 120.0, b.depth / 120.0)
            assert ssim(a, b) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        a = random_ri(np.random.default_rng(4), GEOM_16)
        small = RiGeometry(width=8, height=16, pitch_max=2, pitch_min=-24.8,
                           min_depth=2.0, max_depth=120.0)
        b = random_ri(np.random.default_rng(5), small)
        with pytest.raises(ValueError, match="mismatch"):
            ssim(a, b)

    def test_image_smaller_than_window_rejected(self):
        geom = RiGeometry(width=4, height=4, pitch_max=2, pitch_min=-24.8,
                          min_depth=2.0, max_depth=120.0)
        ri = random_ri(np.random.default_rng(6), geom)
        with pytest.raises(ValueError, match="window"):
            ssim(ri, ri)


class TestKdTree:
    def test_single_point_cloud(self):
        cloud = PointCloud(points=[[1.0, 2.0, 3.0]])
        tree = KdTree(cloud)
        dist, idx = tree.query(np.array([[4.0, 6.0, 3.0]]))
        assert dist[0] == pytest.approx(5.0)
        assert idx[0] == 0

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            KdTree(PointCloud(points=np.zeros((0, 3))))

    def test_duplicates_give_zero_distance(self):
        cloud = PointCloud(points=[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        tree = KdTree(cloud)
        dist, _ = tree.query(np.array([[1.0, 1.0, 1.0]]))
        assert dist[0] == 0.0

    def test_distances_equal_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 1000))
            ref = rng.uniform(-50, 50, size=(n, 3))
            queries = rng.uniform(-50, 50, size=(100, 3))
            tree = KdTree(PointCloud(points=ref))
            dist, _ = tree.query(queries)
            expected = brute_nn_dists(queries, ref)
            assert np.array_equal(dist, expected)


class TestNoiseRatio:
    def test_subset_scores_zero(self):
        rng = np.random.default_rng(8)
        ref = PointCloud(points=rng.uniform(-10, 10, size=(500, 3)))
        interp = PointCloud(points=ref.points[::5])
        ratio, densify = noise_split(KdTree(ref).query(interp)[0], 0.5)
        assert ratio == 0.0
        assert densify == len(interp)

    def test_far_point_scores_one(self):
        ref = PointCloud(points=[[0.0, 0.0, 0.0]])
        interp = PointCloud(points=[[10.0, 0.0, 0.0]])
        ratio, densify = noise_split(KdTree(ref).query(interp)[0], 0.5)
        assert ratio == 1.0
        assert densify == 0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty cloud"):
            KdTree(PointCloud(points=np.zeros((0, 3))))

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            PipelineConfig(delta=0.0)

    def test_empty_interp_cloud(self):
        ref = PointCloud(points=[[0.0, 0.0, 0.0]])
        dist, _ = KdTree(ref).query(PointCloud(points=np.zeros((0, 3))))
        assert noise_split(dist, 0.5) == (0.0, 0)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(9)
        ref = PointCloud(points=rng.uniform(-10, 10, size=(300, 3)))
        interp = PointCloud(points=rng.uniform(-12, 12, size=(200, 3)))
        deltas = [0.1, 0.5, 1.0, 2.0, 5.0]
        dist, _ = KdTree(ref).query(interp)
        ratios = [noise_split(dist, d)[0] for d in deltas]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_partition_sums_to_total(self):
        rng = np.random.default_rng(10)
        ref = PointCloud(points=rng.uniform(-10, 10, size=(300, 3)))
        interp = PointCloud(points=rng.uniform(-12, 12, size=(200, 3)))
        ratio, densify = noise_split(KdTree(ref).query(interp)[0], 0.5)
        assert ratio * len(interp) + densify == pytest.approx(len(interp))


class TestChamfer:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(points=rng.uniform(-10, 10, size=(100, 3)))
        assert chamfer(cloud, cloud) == 0.0

    def test_two_single_points(self):
        a = PointCloud(points=[[0.0, 0.0, 0.0]])
        b = PointCloud(points=[[3.0, 0.0, 0.0]])
        assert chamfer(a, b) == pytest.approx(3.0)

    def test_symmetric(self):
        rng = np.random.default_rng(12)
        a = PointCloud(points=rng.uniform(-10, 10, size=(80, 3)))
        b = PointCloud(points=rng.uniform(-10, 10, size=(60, 3)))
        assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = rng.uniform(-10, 10, size=(50, 3))
            b = rng.uniform(-10, 10, size=(50, 3))
            got = chamfer(PointCloud(points=a), PointCloud(points=b))
            assert got == pytest.approx(brute_chamfer(a, b), abs=1e-6)

    def test_empty_rejected(self):
        cloud = PointCloud(points=[[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="non-empty"):
            chamfer(cloud, PointCloud(points=np.zeros((0, 3))))


class TestNnDistances:
    def test_shared_pixels_score_zero_in_the_window(self):
        rng = np.random.default_rng(15)
        a = random_ri(rng, GEOM_16)
        b = random_ri(rng, GEOM_16)
        b.depth[:8] = a.depth[:8]
        d_a, d_b = window_distances(a, b, ri_to_cloud(a).points, ri_to_cloud(b).points)
        shared = np.count_nonzero(a.occupied[:8])  # rows 0-7 come first in cloud order
        assert np.all(d_a[:shared] == 0.0) and np.all(d_b[:shared] == 0.0)
        assert window_distances(a, downsample_ri(b, 2, 1), ri_to_cloud(a).points,
                                ri_to_cloud(downsample_ri(b, 2, 1)).points) is None

    def test_equal_brute_force_with_and_without_range_images(self):
        rng = np.random.default_rng(14)
        a = random_ri(rng, GEOM_16)
        b = random_ri(rng, GEOM_16)
        b.depth[::2] = a.depth[::2]
        ca, cb = ri_to_cloud(a), ri_to_cloud(b)
        total = len(ca) + len(cb)
        d_ab, d_ba, fallback, tree = nn_distances(ca, cb, ris=(a, b))
        assert np.array_equal(d_ab, brute_nn_dists(ca.points, cb.points))
        assert np.array_equal(d_ba, brute_nn_dists(cb.points, ca.points))
        assert 0 < fallback < total and tree <= fallback
        plain = nn_distances(ca, cb)
        assert np.array_equal(plain[0], d_ab) and np.array_equal(plain[1], d_ba)
        assert plain[2] == plain[3] == total

    def test_given_tree_is_queried_even_with_nothing_left(self, monkeypatch):
        a = random_ri(np.random.default_rng(16), GEOM_16)
        cloud = ri_to_cloud(a)
        tree = KdTree(cloud)
        queried = []
        monkeypatch.setattr(tree, "query", lambda pts: queried.append(len(pts)) or (np.zeros(0), None))
        built = []
        monkeypatch.setattr(metrics, "KdTree", lambda c: built.append(c))
        d_ab, d_ba, fallback, in_tree = nn_distances(cloud, cloud, tree, (a, a))
        assert queried == [0] and not built and fallback == in_tree == 0
        assert not d_ab.any() and not d_ba.any()

