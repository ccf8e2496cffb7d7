import os
import sys
import threading
from pathlib import Path

import numpy as np
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


def count_builds(monkeypatch, threads: list | None = None) -> list[np.ndarray]:
    """Record the points of every scipy cKDTree that metrics builds, and
    in `threads`, if given, the thread that built each; a KdTree builds
    one at its first query with points, or on the helper thread once
    prefetched."""
    built = []
    real = metrics._build_tree

    def counting(points):
        if threads is not None:
            threads.append(threading.current_thread())
        built.append(points)
        return real(points)

    monkeypatch.setattr(metrics, "_build_tree", counting)
    return built


def finish_prefetches() -> None:
    """Wait for every job given to the helper thread so far, prefetched
    tree builds included: the helper runs them in order, so they are done
    once a later no-op is."""
    metrics._helper().submit(int).result(timeout=60)


def ladder_left(ri: RangeImage, exact, passes: float) -> tuple[int, int]:
    """Points of ri that the 3 x 7 window leaves uncertified, and those the
    whole window ladder leaves with a budget of `passes` image passes, from
    their exact nearest distances. A window of half-extents (rows, cols)
    certifies exactly the points whose distance is below depth *
    window_radius(geometry, rows, cols), less the 1e-9 slack; each rung
    from (2, 7) on is charged the points left before it times its pixels,
    and the ladder stops before a rung the budget cannot pay for. Below
    the 3 x 7 window's width every point is left."""
    g = ri.geometry
    if g.width < 2 * metrics.WINDOW_COLS + 1:
        return len(exact), len(exact)
    depth = ri.depth[ri.occupied]

    def left(rows: int, cols: int) -> int:
        radius = metrics.window_radius(g, rows, cols) * (1.0 - 1e-9)
        return int(np.count_nonzero(~(exact < depth * radius)))

    rows, cols = metrics.WINDOW_ROWS, metrics.WINDOW_COLS
    first = n = left(rows, cols)
    budget = passes * g.height * g.width
    while n:
        rows, cols = 2 * rows, 2 * cols + 1
        charge = n * (2 * min(rows, g.height - 1) + 1) * (2 * min(cols, g.width // 2) + 1)
        if charge > budget:
            break
        budget -= charge
        n = left(rows, cols)
    return first, n
