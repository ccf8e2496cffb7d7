import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from riterp import KITTI_GEOMETRY, RangeImage, RiGeometry, cloud_to_ri, metrics, synth_scene

#: set RITERP_KITTI_DIR to a directory of Velodyne .bin scans to run the
#: real-data tests; otherwise they skip and the synthetic path is used.
KITTI_DIR = os.environ.get("RITERP_KITTI_DIR")


def kitti_scans():
    if not KITTI_DIR:
        return []
    return sorted(Path(KITTI_DIR).glob("*.bin"))


@pytest.fixture(scope="session")
def small_geometry():
    return RiGeometry(width=16, height=4, pitch_max=2.0, pitch_min=-24.8,
                      min_depth=2.0, max_depth=120.0)


@pytest.fixture(scope="session")
def synth_cloud():
    return synth_scene(0)


@pytest.fixture(scope="session")
def synth_ri(synth_cloud):
    return cloud_to_ri(synth_cloud, KITTI_GEOMETRY)


def random_ri(rng, geom: RiGeometry, empty_fraction: float = 0.3) -> RangeImage:
    """Random valid RI: uniform depths with a sprinkling of EMPTY pixels."""
    depth = rng.uniform(geom.min_depth, geom.max_depth, size=(geom.height, geom.width))
    depth[rng.random(depth.shape) < empty_fraction] = 0.0
    return RangeImage(geom, depth)


def count_test_trees(monkeypatch) -> list[int]:
    """Record the size of every cloud metrics builds a KdTree over itself
    (nn_distances' test-cloud tree; a tree passed in is not counted)."""
    built = []

    class Counting(metrics.KdTree):
        def __init__(self, cloud):
            built.append(len(cloud))
            super().__init__(cloud)

    monkeypatch.setattr(metrics, "KdTree", Counting)
    return built
