import json
import os
import subprocess
import sys
import threading
from pathlib import Path

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
    ssim,
)
from riterp import metrics
from riterp.metrics import nn_distances, noise_split

from conftest import count_builds, finish_prefetches, random_ri
from oracles import brute_chamfer, brute_nn_dists, reference_ssim

SRC = Path(__file__).resolve().parents[1] / "src"

#: run in a fresh interpreter, since this one has scipy loaded: the scipy
#: modules loaded after import, after an exact gradient scan (no tree) and
#: after a bilinear one (trees)
_SCIPY_AT_STAGES = '''
import json, sys
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
import riterp, riterp.cli
from riterp import PipelineConfig, run_scan
seen = {"import": loaded()}
report, _ = run_scan("synth:0", PipelineConfig(grad_threshold=0.8, no_artifacts=True))
seen["exact"], seen["exact_tree_points"] = loaded(), report["nn_tree_points"]
report, _ = run_scan("synth:0", PipelineConfig(method="bilinear", no_artifacts=True))
seen["bilinear"], seen["bilinear_tree_points"] = loaded(), report["nn_tree_points"]
print(json.dumps(seen))
'''

GEOM_16 = RiGeometry(width=16, height=16, pitch_max=2, pitch_min=-24.8,
                     min_depth=2.0, max_depth=120.0)


def ri_from(grid):
    grid = np.asarray(grid, dtype=np.float64)
    geom = RiGeometry(width=grid.shape[1], height=grid.shape[0], pitch_max=2,
                      pitch_min=-24.8, min_depth=2.0, max_depth=120.0)
    return RangeImage(geom, grid)


class TestSsim:
    @pytest.mark.parametrize("shape", [(8, 8), (9, 17), (16, 16), (64, 2048), (33, 10)])
    @pytest.mark.parametrize("k", [1, 8])
    def test_window_sums_equal_the_double_cumsum_integral_image(self, shape, k):
        a = np.random.default_rng(shape[0] * shape[1] + k).normal(0, 50, shape)
        s = np.zeros((shape[0] + 1, shape[1] + 1))
        np.cumsum(np.cumsum(a, axis=0), axis=1, out=s[1:, 1:])
        expected = s[k:, k:] - s[:-k, k:] - s[k:, :-k] + s[:-k, :-k]
        assert metrics._window_sums(a, k).tobytes() == expected.tobytes()

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

    def test_empty_queries_build_nothing(self, monkeypatch):
        built = count_builds(monkeypatch)
        tree = KdTree(PointCloud(points=[[1.0, 2.0, 3.0]]))
        for _ in range(2):
            dist, idx = tree.query(np.zeros((0, 3)))
            assert dist.shape == idx.shape == (0,)
        assert not built

    def test_first_query_with_points_builds_once(self, monkeypatch):
        built = count_builds(monkeypatch)
        tree = KdTree(PointCloud(points=[[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
        assert tree.query(np.array([[1.0, 0.0, 0.0]]))[0].tolist() == [1.0]
        assert tree.query(np.zeros((0, 3)))[0].size == 0
        assert tree.query(np.array([[2.5, 0.0, 0.0]]))[0].tolist() == [0.5]
        assert len(built) == 1

    def test_scipy_loads_at_the_first_build(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", _SCIPY_AT_STAGES], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert seen["import"] == []
        assert seen["exact_tree_points"] == 0 and seen["exact"] == []
        assert seen["bilinear_tree_points"] > 0 and "scipy.spatial" in seen["bilinear"]

    def test_answers_for_the_cloud_as_it_was_made(self):
        rng = np.random.default_rng(17)
        points = rng.uniform(-10, 10, size=(200, 3))
        queries = rng.uniform(-12, 12, size=(50, 3))
        cloud = PointCloud(points=points.copy())
        tree, ahead = KdTree(cloud), KdTree(cloud)
        ahead.prefetch()
        cloud.points += 100.0  # before the tree is built, or while the helper builds it
        for index in (tree, ahead):
            assert np.array_equal(index.query(queries)[0], brute_nn_dists(queries, points))
        cloud.points[:] = 0.0  # after
        for index in (tree, ahead):
            assert np.array_equal(index.query(queries)[0], brute_nn_dists(queries, points))

    @pytest.mark.parametrize("first", ["prefetch", "query"])
    def test_a_prefetched_tree_builds_once(self, first, monkeypatch):
        """Two prefetches, or a prefetch after the tree is built, build one
        tree, which every query uses."""
        built = count_builds(monkeypatch)
        tree = KdTree(PointCloud(points=[[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
        if first == "prefetch":
            tree.prefetch()
        else:
            assert tree.query(np.array([[2.0, 0.0, 0.0]]))[0].tolist() == [1.0]
        tree.prefetch()
        assert tree.query(np.array([[1.0, 0.0, 0.0]]))[0].tolist() == [1.0]
        assert tree.query(np.array([[2.5, 0.0, 0.0]]))[0].tolist() == [0.5]
        finish_prefetches()
        assert len(built) == 1

    def test_empty_query_waits_for_no_prefetched_build(self, monkeypatch):
        release = threading.Event()
        real = metrics._build_tree

        def held(points):
            if not release.wait(timeout=30):
                raise TimeoutError("build never released")
            return real(points)

        monkeypatch.setattr(metrics, "_build_tree", held)
        tree = KdTree(PointCloud(points=[[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
        tree.prefetch()
        try:
            dist, idx = tree.query(np.zeros((0, 3)))  # returns while the build is held
            assert dist.shape == idx.shape == (0,) and not release.is_set()
        finally:
            release.set()
        assert tree.query(np.array([[1.0, 0.0, 0.0]]))[0].tolist() == [1.0]

    def test_prefetched_build_error_raises_at_the_first_query(self, monkeypatch):
        """A build that fails on the helper raises at the first query with
        points, once: a later query builds again, as after a failed lazy build."""
        real = metrics._build_tree

        def failing(points):
            raise MemoryError("no room for the tree")

        monkeypatch.setattr(metrics, "_build_tree", failing)
        tree = KdTree(PointCloud(points=[[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
        tree.prefetch()
        assert tree.query(np.zeros((0, 3)))[0].size == 0
        with pytest.raises(MemoryError, match="^no room for the tree$"):
            tree.query(np.array([[1.0, 0.0, 0.0]]))
        monkeypatch.setattr(metrics, "_build_tree", real)
        assert tree.query(np.array([[1.0, 0.0, 0.0]]))[0].tolist() == [1.0]

    def test_many_prefetches_under_fast_thread_switching(self):
        """More prefetched trees than cores, queried in reverse order while
        the interpreter switches threads every microsecond, each answer
        exact for its own cloud."""
        rng = np.random.default_rng(29)
        clouds = [rng.uniform(-10, 10, size=(int(rng.integers(1, 4000)), 3)) for _ in range(8)]
        queries = rng.uniform(-12, 12, size=(100, 3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trees = [KdTree(PointCloud(points=c)) for c in clouds]
            for tree in trees:
                tree.prefetch()
            answers = [tree.query(queries)[0] for tree in reversed(trees)][::-1]
        finally:
            sys.setswitchinterval(interval)
        for dist, cloud in zip(answers, clouds):
            assert np.array_equal(dist, brute_nn_dists(queries, cloud))

    def test_distances_equal_brute_force(self):
        rng = np.random.default_rng(7)
        for k in range(10):
            n = int(rng.integers(1, 1000))
            ref = rng.uniform(-50, 50, size=(n, 3))
            queries = rng.uniform(-50, 50, size=(100, 3))
            tree = KdTree(PointCloud(points=ref))
            if k % 2:
                tree.prefetch()
            dist, _ = tree.query(queries)
            expected = brute_nn_dists(queries, ref)
            assert np.array_equal(dist, expected)


class TestNoiseRatio:
    def test_subset_scores_zero(self):
        rng = np.random.default_rng(8)
        ref = PointCloud(points=rng.uniform(-10, 10, size=(500, 3)))
        interp = PointCloud(points=ref.points[::5])
        ratio, densify = noise_split(KdTree(ref).query(interp.points)[0], 0.5)
        assert ratio == 0.0
        assert densify == len(interp)

    def test_far_point_scores_one(self):
        ref = PointCloud(points=[[0.0, 0.0, 0.0]])
        interp = PointCloud(points=[[10.0, 0.0, 0.0]])
        ratio, densify = noise_split(KdTree(ref).query(interp.points)[0], 0.5)
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
        dist, _ = KdTree(ref).query(np.zeros((0, 3)))
        assert noise_split(dist, 0.5) == (0.0, 0)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(9)
        ref = PointCloud(points=rng.uniform(-10, 10, size=(300, 3)))
        interp = PointCloud(points=rng.uniform(-12, 12, size=(200, 3)))
        deltas = [0.1, 0.5, 1.0, 2.0, 5.0]
        dist, _ = KdTree(ref).query(interp.points)
        ratios = [noise_split(dist, d)[0] for d in deltas]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_partition_sums_to_total(self):
        rng = np.random.default_rng(10)
        ref = PointCloud(points=rng.uniform(-10, 10, size=(300, 3)))
        interp = PointCloud(points=rng.uniform(-12, 12, size=(200, 3)))
        ratio, densify = noise_split(KdTree(ref).query(interp.points)[0], 0.5)
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
        depth = random_ri(rng, GEOM_16).depth.copy()
        depth[:8] = a.depth[:8]
        b = RangeImage(GEOM_16, depth)
        d_a, d_b, fallback, _ = nn_distances(a, b)
        shared = np.count_nonzero(a.occupied[:8])  # rows 0-7 come first in cloud order
        assert np.all(d_a[:shared] == 0.0) and np.all(d_b[:shared] == 0.0)
        assert fallback <= len(a.cloud) + len(b.cloud) - 2 * shared  # no shared point falls back
        coarse = downsample_ri(b, 2, 1)
        assert nn_distances(a, coarse)[2] == len(a.cloud) + len(coarse.cloud)

    def test_window_ladder_equals_brute_force(self):
        rng = np.random.default_rng(14)
        a = random_ri(rng, GEOM_16)
        depth = random_ri(rng, GEOM_16).depth.copy()
        depth[::2] = a.depth[::2]
        b = RangeImage(GEOM_16, depth)
        ca, cb = a.cloud, b.cloud
        d_ab, d_ba, fallback, tree = nn_distances(a, b)
        assert np.array_equal(d_ab, brute_nn_dists(ca.points, cb.points))
        assert np.array_equal(d_ba, brute_nn_dists(cb.points, ca.points))
        assert 0 < fallback < len(ca) + len(cb) and tree <= fallback

    def test_given_tree_is_queried_even_with_nothing_left(self, monkeypatch):
        a = random_ri(np.random.default_rng(16), GEOM_16)
        tree = KdTree(a.cloud)
        queried = []
        monkeypatch.setattr(tree, "query", lambda pts: queried.append(len(pts)) or (np.zeros(0), None))
        built = []
        monkeypatch.setattr(metrics, "KdTree", lambda c: built.append(c))
        d_ab, d_ba, fallback, in_tree = nn_distances(a, a, tree)
        assert queried == [0] and not built and fallback == in_tree == 0
        assert not d_ab.any() and not d_ba.any()

