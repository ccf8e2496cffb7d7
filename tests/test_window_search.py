"""Property suite for the range-image window search in metrics.

Every distance that nn_distances returns through its window ladder must
be the one a default-built cKDTree gives with every point queried, bit
for bit; the certificate (window_radius) must never exceed the true
distance to a point outside any rung's window, and must not be so loose
that a neighbour one pixel away goes uncertified. The counts of points
left to the k-d trees follow from the exact distances and the two
clouds' ladder budgets, and the tree over either cloud is built only
when the other cloud's ladder gives up.
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
    upscale_baseline,
)
from riterp import metrics
from riterp.metrics import WINDOW_COLS, WINDOW_ROWS, KdTree, nn_distances, window_radius
from riterp.projection import pixel_center_angles

from conftest import count_builds, ladder_left
from oracles import brute_window_minima

WIDTHS = (2, 6, 7, 8, 16, 2048)
KINDS = ("independent", "jittered", "quantized", "bilinear", "seam", "sparse", "hole")
#: half-extents (rows, columns) of the ladder's rungs: the centre row, the
#: 3 x 7 window, then the widening windows
RUNGS = ((0, WINDOW_COLS), (WINDOW_ROWS, WINDOW_COLS), (2, 7), (4, 15), (8, 31), (16, 63))
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
    elif kind == "bilinear" and geom.width % 2 == 0 and geom.width >= 4:
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
    """nn_distances equals cKDTree bit for bit; the points left to the k-d
    trees are those whose exact distance the 3 x 7 window cannot certify,
    less those each cloud's ladder resolves within its own budget."""
    a, b = test.cloud, ref.cloud
    d_ab, d_ba, fallback, in_tree = nn_distances(test, ref)
    exact_ab = cKDTree(b.points).query(a.points)[0]
    exact_ba = cKDTree(a.points).query(b.points)[0]
    assert np.array_equal(d_ab, exact_ab)
    assert np.array_equal(d_ba, exact_ba)
    left_a, after_a = ladder_left(test, exact_ab, metrics.TEST_LADDER_PASSES)
    left_b, after_b = ladder_left(ref, exact_ba, metrics.LADDER_PASSES)
    certified = len(a) - left_a + len(b) - left_b
    assert certified + fallback == len(a) + len(b)
    assert in_tree == after_a + after_b <= fallback


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
# test points that only the test cloud's ladder past the 3 x 7 window certifies
@example(geom=geometry(2048, 4, -24.8, 2.0), kind="jittered", seed=5)
@example(geom=geometry(16, 12, -24.8, 2.0), kind="hole", seed=1)
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


def hole_at_the_seam(holed: str) -> tuple[RangeImage, RangeImage]:
    """(test, reference) images of one constant-depth surface, the `holed`
    one EMPTY over rows 16-28 and columns -10..6: the other image's points
    in the hole have their nearest neighbours up to 10 columns away, and
    those in columns -1 and -2 across the seam."""
    geom = KITTI_GEOMETRY
    full = np.full((geom.height, geom.width), 30.0)
    hole = full.copy()
    hole[16:29, -10:] = hole[16:29, :7] = 0.0
    test, ref = (hole, full) if holed == "test" else (full, hole)
    return RangeImage(geom, test), RangeImage(geom, ref)


@pytest.mark.parametrize("holed", ["test", "reference"])
def test_ladder_resolves_a_hole_across_the_seam(holed, monkeypatch):
    """Either cloud's ladder, within its own budget, certifies its points
    around a hole in the other image, so no k-d tree is built."""
    test, ref = hole_at_the_seam(holed)
    assert_equals_ckdtree(test, ref)
    tree_b = KdTree(ref.cloud)
    built = count_builds(monkeypatch)
    _, _, fallback, in_tree = nn_distances(test, ref, tree_b)
    assert fallback > 100 and in_tree == 0 and not built


@pytest.mark.parametrize("side", ["reference", "test"])
@pytest.mark.parametrize("rung", [2, 3, 4])
def test_neighbour_at_a_rungs_edge_is_certified_by_that_rung(rung, side, monkeypatch):
    """One reference and one test point, as many rows apart as rung k
    reaches, past the 3 x 7 window. The `side` cloud's point is certified
    by rung k when its own budget holds exactly rungs 2..k, and left to
    the k-d tree over the other cloud when that budget is one pixel short.
    The other point, whose cloud gets no budget, goes to the k-d tree over
    the side's cloud either way."""
    geom = KITTI_GEOMETRY
    ref = np.zeros((geom.height, geom.width))
    test = ref.copy()
    ref[10, 100] = test[10 + RUNGS[rung][0], 100] = 40.0
    a, b = RangeImage(geom, test), RangeImage(geom, ref)
    ca, cb = a.cloud.points, b.cloud.points
    exact = cKDTree(ca).query(cb)[0][0]
    pixels = sum((2 * rows + 1) * (2 * cols + 1) for rows, cols in RUNGS[2:rung + 1])
    budget, own = ("LADDER_PASSES", cb) if side == "reference" else ("TEST_LADDER_PASSES", ca)
    for slack, certified in ((0.5, True), (-0.5, False)):
        monkeypatch.setattr(metrics, "LADDER_PASSES", 0)
        monkeypatch.setattr(metrics, "TEST_LADDER_PASSES", 0)
        monkeypatch.setattr(metrics, budget, (pixels + slack) / (geom.height * geom.width))
        with pytest.MonkeyPatch.context() as trees:
            built = count_builds(trees)
            d_ab, d_ba, fallback, in_tree = nn_distances(a, b)
        assert d_ab[0] == d_ba[0] == exact
        assert fallback == 2
        assert in_tree == (1 if certified else 2)
        expected = [own] if certified else [cb, ca]  # the tree over b is queried first
        assert [p.tolist() for p in built] == [c.tolist() for c in expected]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(geom=geometries(), kind=st.sampled_from(["sparse", "hole"]),
       seed=st.integers(0, 2**32 - 1))
@example(geom=geometry(2048, 4, -24.8, 2.0), kind="sparse", seed=0)
@example(geom=geometry(2048, 4, -24.8, 2.0), kind="hole", seed=3)
def test_trees_are_built_only_when_the_ladders_give_up(geom, kind, seed):
    """The given KdTree over the reference builds its tree only when some
    test point is left after the test cloud's ladder, and a tree over the
    test cloud is built only when some reference point is left after the
    reference cloud's ladder."""
    test, ref = make_pair(seed, kind, geom)
    a, b = test.cloud, ref.cloud
    exact_ab = cKDTree(b.points).query(a.points)[0]
    exact_ba = cKDTree(a.points).query(b.points)[0]
    _, after_a = ladder_left(test, exact_ab, metrics.TEST_LADDER_PASSES)
    _, after_b = ladder_left(ref, exact_ba, metrics.LADDER_PASSES)
    tree_b = KdTree(b)
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = count_builds(monkeypatch)
        d_ab, d_ba, _, in_tree = nn_distances(test, ref, tree_b)
    expected = [b] * (after_a > 0) + [a] * (after_b > 0)
    assert [p.tolist() for p in built] == [c.points.tolist() for c in expected]
    assert np.array_equal(d_ab, exact_ab) and np.array_equal(d_ba, exact_ba)
    assert in_tree == after_a + after_b


def test_different_geometries_fall_back_to_the_tree():
    rng = np.random.default_rng(3)
    geom = geometry(16, 8, -24.8, 2.0)
    ref = RangeImage(geom, random_depths(rng, geom, 0.3))
    test = downsample_ri(ref, 2, 1)
    a, b = test.cloud, ref.cloud
    d_ab, d_ba, fallback, in_tree = nn_distances(test, ref)
    assert np.array_equal(d_ab, cKDTree(b.points).query(a.points)[0])
    assert np.array_equal(d_ba, cKDTree(a.points).query(b.points)[0])
    assert fallback == in_tree == len(a) + len(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(geom=geometries().filter(lambda g: g.width < 2048))
def test_radius_bounds_every_ray_outside_the_window(geom):
    """Distance from a unit-depth point on each pixel-centre ray to every
    pixel-centre ray outside its window is at least window_radius, for
    every rung of the ladder: the centre row, the 3 x 7 window and the
    widening windows."""
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
    d_ab, d_ba, fallback, _ = nn_distances(a, b)
    assert fallback == 0
    assert np.array_equal(d_ba, cKDTree(a.cloud.points).query(b.cloud.points)[0])


def test_radius_is_the_row_bound_when_columns_are_all_in_the_window():
    # width 7: the window spans every column, so only rows two away bound it
    assert math.isclose(window_radius(geometry(7, 2, -1.0, 1.0), WINDOW_ROWS, WINDOW_COLS),
                        math.sin(math.radians(2.0)))


def test_radius_certifies_nothing_past_the_pole():
    # a vertical FOV reaching past +-90 deg leaves no column bound
    assert window_radius(geometry(16, 4, -10.0, 95.0), WINDOW_ROWS, WINDOW_COLS) < 0


#: geometries whose derived centre-row half-width is 0, 1, 2 and 3 columns:
#: the row pitch bounds rung 0 below 3 (KITTI_GEOMETRY's is 2)
CENTRE_ROW_COLS = {
    0: geometry(2048, 4, -0.2, 0.2),
    1: geometry(2048, 4, -0.5, 0.5),
    2: geometry(2048, 4, -1.0, 0.6),
    3: geometry(2048, 4, -24.8, 2.0),
}


@pytest.mark.parametrize("geom, cols", [*((g, c) for c, g in CENTRE_ROW_COLS.items()),
                                        (KITTI_GEOMETRY, 2)])
def test_centre_row_cols_is_the_least_that_certifies_as_far(geom, cols):
    assert metrics._centre_row_cols(geom) == cols
    assert window_radius(geom, 0, cols) == window_radius(geom, 0, WINDOW_COLS)
    assert cols == 0 or window_radius(geom, 0, cols - 1) < window_radius(geom, 0, WINDOW_COLS)


def with_centre_row_examples(test):
    """test with one example at each geometry of CENTRE_ROW_COLS, so that
    each half-width of the centre-row pass is run."""
    for seed, geom in enumerate(CENTRE_ROW_COLS.values()):
        test = example(geom=geom, seed=seed)(test)
    return test


@settings(max_examples=25, deadline=None, derandomize=True)
@given(geom=geometries().filter(lambda g: g.width >= 2 * WINDOW_COLS + 1),
       seed=st.integers(0, 2**32 - 1))
@with_centre_row_examples
@pytest.mark.parametrize("kind", KINDS)
def test_window_minima_equal_brute_force(kind, geom, seed):
    """Both directions' squared centre-row minima, rung 0 of the ladder,
    which decide its first certificate, equal a dense per-point scan of
    the pixels of each point's own row within the geometry's
    _centre_row_cols columns, bit for bit."""
    test, ref = make_pair(seed, kind, geom)
    pa, pb = test.cloud.points, ref.cloud.points
    cols = metrics._centre_row_cols(geom)
    min_a, min_b = metrics._centre_row_minima(test, ref, cols)
    assert min_a.tolist() == brute_window_minima(test.occupied, pa, ref.occupied, pb, 0, cols)
    assert min_b.tolist() == brute_window_minima(ref.occupied, pb, test.occupied, pa, 0, cols)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(geom=geometries().filter(lambda g: g.width >= 2 * WINDOW_COLS + 1),
       seed=st.integers(0, 2**32 - 1))
@with_centre_row_examples
@pytest.mark.parametrize("kind", KINDS)
def test_ladder_rungs_0_and_1_equal_brute_force(kind, geom, seed):
    """With no budget past the 3 x 7 window, each direction's ladder
    answers exactly the points whose 3 x 7 minimum, from a dense per-point
    scan of all 21 pixels, certifies, with that minimum's square root bit
    for bit, and leaves the rest: rung 1 searches every pixel of the
    window that rung 0 did not."""
    test, ref = make_pair(seed, kind, geom)
    points = test.cloud.points, ref.cloud.points
    minima = metrics._centre_row_minima(test, ref, metrics._centre_row_cols(geom))
    radius = window_radius(geom, WINDOW_ROWS, WINDOW_COLS) * (1 - 1e-9)
    for own, other in ((0, 1), (1, 0)):
        ri, other_ri = (test, ref)[own], (test, ref)[other]
        d, n_left = metrics._ladder(ri, minima[own], other_ri, 0)
        exact = np.sqrt(brute_window_minima(ri.occupied, points[own], other_ri.occupied,
                                            points[other], WINDOW_ROWS, WINDOW_COLS))
        certified = exact < ri.depth[ri.occupied] * radius
        assert np.array_equal(d[certified], exact[certified])
        assert np.isnan(d[~certified]).all() and n_left == np.count_nonzero(~certified)
