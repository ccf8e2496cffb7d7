"""Property suite for the range-image window search in metrics.

Every distance that nn_distances returns through the window or its
widening ladder must be the one a default-built cKDTree gives with every
point queried, bit for bit; the certificate (window_radius) must never
exceed the true distance to a point outside any rung's window, and must
not be so loose that a neighbour one pixel away goes uncertified. The
k-d tree over the test cloud is built only when the ladder gives up.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from riterp import (
    KITTI_GEOMETRY,
    RangeImage,
    RiGeometry,
    downsample_ri,
    quantize,
    ri_to_cloud,
    upscale_baseline,
)
from riterp import metrics
from riterp.metrics import (WINDOW_COLS, WINDOW_ROWS, KdTree, nn_distances, widen_window,
                            window_distances, window_radius)
from riterp.projection import pixel_center_angles

from conftest import count_test_trees

WIDTHS = (7, 8, 16, 2048)
KINDS = ("independent", "jittered", "quantized", "bilinear", "seam", "sparse", "hole")
#: half-extents (rows, columns) of the 3 x 7 window and of the ladder's rungs
RUNGS = ((WINDOW_ROWS, WINDOW_COLS), (2, 7), (4, 15), (8, 31), (16, 63))
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)


def geometry(width: int, height: int, pitch_min: float, pitch_max: float) -> RiGeometry:
    return RiGeometry(width=width, height=height, pitch_max=pitch_max, pitch_min=pitch_min,
                      min_depth=2.0, max_depth=120.0)


def random_depths(rng, geom: RiGeometry, empty: float) -> np.ndarray:
    """Depths on a few shared levels plus noise, so that many points have
    near neighbours both inside and outside their windows."""
    levels = rng.uniform(geom.min_depth, geom.max_depth, size=3)
    depth = rng.choice(levels, size=(geom.height, geom.width))
    depth = np.clip(depth + rng.normal(0, rng.choice([0.0, 0.05, 2.0]), depth.shape),
                    geom.min_depth, geom.max_depth)
    depth[rng.random(depth.shape) < empty] = 0.0
    return depth


def make_pair(seed: int, kind: str, geom: RiGeometry) -> tuple[RangeImage, RangeImage]:
    """(test, reference) range images over one geometry, each with at
    least one point."""
    rng = np.random.default_rng(seed)
    ref = random_depths(rng, geom, rng.choice([0.0, 0.3, 0.8]))
    if kind == "independent":
        test = random_depths(rng, geom, rng.choice([0.0, 0.3, 0.8]))
    elif kind == "jittered":
        test = np.where(ref > 0, np.clip(ref + rng.normal(0, 0.3, ref.shape), 2.0, 120.0), 0.0)
        test[rng.random(ref.shape) < 0.5] = 0.0
    elif kind == "quantized":
        test = quantize(RangeImage(geom, ref), int(rng.integers(4, 13))).depth
    elif kind == "bilinear" and geom.width % 2 == 0:
        # phantom depths between decimated neighbours, as the pipeline scores them
        deg = downsample_ri(RangeImage(geom, ref), 2, 1)
        test = upscale_baseline(deg, "bilinear", 2, 1).depth
    elif kind == "seam":
        # a near-constant surface cut to the columns next to the +-pi seam
        keep = np.zeros(geom.width, dtype=bool)
        keep[:WINDOW_COLS + 1] = keep[-WINDOW_COLS - 1:] = True
        level = rng.uniform(geom.min_depth + 1, geom.max_depth - 1)
        ref = level + rng.normal(0, 0.01, ref.shape)
        test = ref + rng.normal(0, 0.01, ref.shape)
        test[:, ~keep] = 0.0
        ref[:, ~keep] = 0.0
        ref[:, 0] = 0.0  # column 0's nearest candidates: one column either side
    elif kind == "hole":
        # the test image is EMPTY over blocks around a few reference pixels,
        # half of them at the seam, so the first rungs see nothing there
        test = np.where(ref > 0, np.clip(ref + rng.normal(0, 0.05, ref.shape), 2.0, 120.0), 0.0)
        for _ in range(rng.integers(1, 4)):
            v = rng.integers(geom.height)
            u = rng.integers(geom.width) if rng.random() < 0.5 else rng.integers(-2, 3) % geom.width
            dv, du = rng.integers(1, 6), rng.integers(3, 33)
            rows = np.arange(max(v - dv, 0), min(v + dv + 1, geom.height))
            test[np.ix_(rows, (u + np.arange(-du, du + 1)) % geom.width)] = 0.0
    else:  # sparse: most windows hold no point at all
        test = random_depths(rng, geom, 0.99)
        ref[rng.random(ref.shape) < 0.97] = 0.0
    for grid in (test, ref):
        if not grid.any():
            grid[rng.integers(geom.height), rng.integers(geom.width)] = geom.max_depth
    return RangeImage(geom, test), RangeImage(geom, ref)


def assert_equals_ckdtree(test: RangeImage, ref: RangeImage) -> None:
    a, b = ri_to_cloud(test), ri_to_cloud(ref)
    d_ab, d_ba, fallback, in_tree = nn_distances(a, b, ris=(test, ref))
    assert np.array_equal(d_ab, cKDTree(b.points).query(a.points)[0])
    assert np.array_equal(d_ba, cKDTree(a.points).query(b.points)[0])
    found = window_distances(test, ref, a.points, b.points)
    certified = 0 if found is None else sum(int(np.count_nonzero(~np.isnan(d))) for d in found)
    assert certified + fallback == len(a) + len(b)
    assert in_tree <= fallback


@st.composite
def geometries(draw) -> RiGeometry:
    width = draw(st.sampled_from(WIDTHS))
    height = draw(st.integers(2, 4 if width == 2048 else 12))
    # tenths of a degree, |pitch| up to 89
    lo = draw(st.integers(-890, 880))
    hi = draw(st.integers(lo + 1, 890))
    return geometry(width, height, lo / 10, hi / 10)


@PROPERTY
@given(geom=geometries(), kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
@example(geom=geometry(2048, 3, -24.8, 2.0), kind="seam", seed=0)
@example(geom=geometry(16, 2, -89.0, 89.0), kind="jittered", seed=1)
@example(geom=geometry(8, 4, 80.0, 89.0), kind="independent", seed=2)
def test_window_search_equals_ckdtree(geom, kind, seed):
    assert_equals_ckdtree(*make_pair(seed, kind, geom))


def test_nearest_point_across_the_seam():
    """The true neighbour sits one column across the seam, and a farther
    point inside the unwrapped window would pass the certificate."""
    geom = KITTI_GEOMETRY
    test = np.zeros((geom.height, geom.width))
    ref = np.zeros_like(test)
    test[10, 0] = ref[10, -1] = ref[10, 3] = 30.0
    assert_equals_ckdtree(RangeImage(geom, test), RangeImage(geom, ref))


def hole_at_the_seam() -> tuple[RangeImage, RangeImage]:
    """A constant-depth reference seen through a test image that is EMPTY
    over rows 16-28 and columns -10..6: the reference points in the hole
    have their nearest test points up to 10 columns away, and those in
    columns -1 and -2 across the seam."""
    geom = KITTI_GEOMETRY
    ref = np.full((geom.height, geom.width), 30.0)
    test = ref.copy()
    test[16:29, -10:] = test[16:29, :7] = 0.0
    return RangeImage(geom, test), RangeImage(geom, ref)


def test_ladder_resolves_a_hole_across_the_seam(monkeypatch):
    test, ref = hole_at_the_seam()
    assert_equals_ckdtree(test, ref)
    a, b = ri_to_cloud(test), ri_to_cloud(ref)
    built = count_test_trees(monkeypatch)
    _, _, fallback, in_tree = nn_distances(a, b, KdTree(b), (test, ref))
    assert fallback > 100 and in_tree == 0 and not built


@pytest.mark.parametrize("rung", [1, 2, 3])
def test_neighbour_at_a_rungs_edge_is_certified_by_that_rung(rung, monkeypatch):
    """A reference point whose one test neighbour is as many rows off as
    rung k reaches is certified by rung k when the budget holds exactly
    rungs 1..k, and left NaN when the budget is one pixel short."""
    geom = KITTI_GEOMETRY
    ref = np.zeros((geom.height, geom.width))
    test = ref.copy()
    ref[10, 100] = test[10 + RUNGS[rung][0], 100] = 40.0
    a, b = RangeImage(geom, test), RangeImage(geom, ref)
    ca, cb = ri_to_cloud(a), ri_to_cloud(b)
    pixels = sum((2 * rows + 1) * (2 * cols + 1) for rows, cols in RUNGS[1:rung + 1])
    for slack, certified in ((0.5, True), (-0.5, False)):
        monkeypatch.setattr(metrics, "LADDER_PASSES", (pixels + slack) / (geom.height * geom.width))
        _, d_b = window_distances(a, b, ca.points, cb.points)
        assert np.isnan(d_b).all()
        widen_window(a, ca.points, b, cb.points, d_b)
        if certified:
            assert d_b[0] == cKDTree(ca.points).query(cb.points)[0][0]
        else:
            assert np.isnan(d_b[0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(geom=geometries(), kind=st.sampled_from(["sparse", "hole"]),
       seed=st.integers(0, 2**32 - 1))
@example(geom=geometry(2048, 4, -24.8, 2.0), kind="sparse", seed=0)
@example(geom=geometry(2048, 4, -24.8, 2.0), kind="hole", seed=3)
def test_test_tree_is_built_only_when_the_ladder_gives_up(geom, kind, seed):
    test, ref = make_pair(seed, kind, geom)
    a, b = ri_to_cloud(test), ri_to_cloud(ref)
    _, d_b = window_distances(test, ref, a.points, b.points)
    widen_window(test, a.points, ref, b.points, d_b)
    left = int(np.count_nonzero(np.isnan(d_b)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = count_test_trees(monkeypatch)
        _, d_ba, _, in_tree = nn_distances(a, b, KdTree(b), (test, ref))
    assert built == ([len(a)] if left else [])
    assert np.array_equal(d_ba, cKDTree(a.points).query(b.points)[0])
    assert in_tree >= left


def test_different_geometries_fall_back_to_the_tree():
    rng = np.random.default_rng(3)
    geom = geometry(16, 8, -24.8, 2.0)
    ref = RangeImage(geom, random_depths(rng, geom, 0.3))
    test = downsample_ri(ref, 2, 1)
    a, b = ri_to_cloud(test), ri_to_cloud(ref)
    assert window_distances(test, ref, a.points, b.points) is None
    d_ab, d_ba, fallback, in_tree = nn_distances(a, b, ris=(test, ref))
    assert np.array_equal(d_ab, cKDTree(b.points).query(a.points)[0])
    assert np.array_equal(d_ba, cKDTree(a.points).query(b.points)[0])
    assert fallback == in_tree == len(a) + len(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(geom=geometries().filter(lambda g: g.width < 2048))
def test_radius_bounds_every_ray_outside_the_window(geom):
    """Distance from a unit-depth point on each pixel-centre ray to every
    pixel-centre ray outside its window is at least window_radius, for the
    3 x 7 window and every rung of the ladder."""
    v, u = np.indices((geom.height, geom.width)).reshape(2, -1)
    yaw, pitch = pixel_center_angles(geom, v, u)
    rays = np.stack([np.cos(pitch) * np.cos(yaw), np.cos(pitch) * np.sin(yaw), np.sin(pitch)], 1)
    sin_angle = np.linalg.norm(np.cross(rays[:, None], rays[None, :]), axis=-1)
    to_ray = np.where(rays @ rays.T > 0, sin_angle, 1.0)
    dv = np.abs(v[:, None] - v[None, :])
    du = np.abs(u[:, None] - u[None, :])
    du = np.minimum(du, geom.width - du)
    for rows, cols in RUNGS:
        outside = (dv > rows) | (du > cols)
        if outside.any():
            assert to_ray[outside].min() >= window_radius(geom, rows, cols) * (1 - 1e-12)


@pytest.mark.parametrize("geom, step", [
    (geometry(16, 16, -24.8, 2.0), "row"),
    (KITTI_GEOMETRY, "column"),
], ids=["row", "column"])
def test_neighbour_one_pixel_away_is_certified(geom, step):
    """A constant-depth reference against every other row (or column) of
    itself: each missing pixel's nearest point is one pixel away, which
    the certificate covers, so the k-d tree resolves nothing."""
    ref = np.full((geom.height, geom.width), 40.0)
    test = ref.copy()
    if step == "row":
        test[1::2] = 0.0
    else:
        test[:, 1::2] = 0.0
    a, b = RangeImage(geom, test), RangeImage(geom, ref)
    ca, cb = ri_to_cloud(a), ri_to_cloud(b)
    d_ab, d_ba, fallback, _ = nn_distances(ca, cb, ris=(a, b))
    assert fallback == 0
    assert np.array_equal(d_ba, cKDTree(ca.points).query(cb.points)[0])


def test_radius_is_the_row_bound_when_columns_are_all_in_the_window():
    # width 7: the window spans every column, so only rows two away bound it
    assert math.isclose(window_radius(geometry(7, 2, -1.0, 1.0), WINDOW_ROWS, WINDOW_COLS),
                        math.sin(math.radians(2.0)))


def test_radius_certifies_nothing_past_the_pole():
    # a vertical FOV reaching past +-90 deg leaves no column bound
    assert window_radius(geometry(16, 4, -10.0, 95.0), WINDOW_ROWS, WINDOW_COLS) < 0
