"""2D and 3D fidelity metrics: SSIM over RIs, nearest-neighbor noise
classification, and chamfer distance between clouds.

Nearest neighbours are exact, between the clouds of two RIs (their
RangeImage.cloud), and use the range image as their index when the two
share a geometry: each point climbs one ladder
of windows around its own pixel (columns wrap at the +-pi seam). Rung 0,
the point's own row, is searched densely for both clouds at once, over
the fewest columns that certify as far as the 7 of the 3 x 7 window do
(_centre_row_cols either side: 5 columns at KITTI size, where the row
pitch bounds rung 0);
rung 1 adds the rest of the 3 x 7 window; rungs 2, 3, ... widen the
window (5 x 15, 9 x 31, ...) while the cloud's own budget of pixel
visits lasts (LADDER_PASSES for the reference cloud, TEST_LADDER_PASSES
for the test cloud). A rung's minimum is exact when it is below the
point's depth times window_radius, the sine of the least angle to any
ray outside the window. Every rung reads the points from the two images'
padded xyz grids (RangeImage.xyz, NaN at EMPTY), which each image builds
once for its cloud and every search: rung 0 as band slices, rung 1
through a table of offsets into the padding, the wider rungs through
clamped and wrapped pixel indices. KdTree (scipy's cKDTree, built at its
first non-empty query, or ahead of it on one helper thread once
prefetched) resolves the points still without an answer, and every point
when the geometries differ. scipy is imported at that first build, not
with this module, so importing riterp and scoring a scan whose ladders
certify every point never load it. chamfer scores two plain clouds with
the k-d trees alone.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .pointcloud import PointCloud
from .projection import WINDOW_COLS, WINDOW_ROWS, RangeImage, RiGeometry

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_L = 1.0  # depths are normalized to [0, 1] before comparison


def _window_sums(a: np.ndarray, k: int) -> np.ndarray:
    """Sliding k x k window sums at every valid position (integral image).

    The rows are accumulated with one in-place add per row, then summed
    along the columns: the additions of cumsum(axis=0) then cumsum(axis=1),
    in the same order, so the same bits, but faster than cumsum(axis=0)."""
    s = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    rows = s[1:, 1:]
    rows[...] = a
    for i in range(1, len(rows)):
        np.add(rows[i - 1], rows[i], out=rows[i])
    np.cumsum(rows, axis=-1, out=rows)
    return s[k:, k:] - s[:-k, k:] - s[k:, :-k] + s[:-k, :-k]


def ssim_terms(ri: RangeImage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One image's half of ssim: its depths normalized by max_depth, and
    their 8x8 window means and variances."""
    x = ri.depth / ri.geometry.max_depth
    n = SSIM_WINDOW * SSIM_WINDOW
    mu = _window_sums(x, SSIM_WINDOW) / n
    return x, mu, _window_sums(x * x, SSIM_WINDOW) / n - mu * mu


def ssim(a: RangeImage, b: RangeImage,
         b_terms: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> float:
    """Mean local SSIM over 8x8 sliding windows with uniform weighting.

    Depths are normalized by max_depth (EMPTY participates as 0.0) and
    window statistics use population normalization. Constants are
    C1 = (0.01 L)^2, C2 = (0.03 L)^2 with L = 1. `b_terms`, ssim_terms(b)
    computed beforehand, saves recomputing them.
    """
    ga, gb = a.geometry, b.geometry
    if (ga.width, ga.height) != (gb.width, gb.height):
        raise ValueError(
            f"dimension mismatch: {ga.width}x{ga.height} vs {gb.width}x{gb.height}"
        )
    if ga.max_depth != gb.max_depth:
        raise ValueError(f"max_depth mismatch: {ga.max_depth} vs {gb.max_depth}")
    if ga.height < SSIM_WINDOW or ga.width < SSIM_WINDOW:
        raise ValueError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")

    x, mu_x, var_x = ssim_terms(a)
    y, mu_y, var_y = b_terms if b_terms is not None else ssim_terms(b)
    cov = _window_sums(x * y, SSIM_WINDOW) / (SSIM_WINDOW * SSIM_WINDOW) - mu_x * mu_y

    c1 = (SSIM_K1 * SSIM_L) ** 2
    c2 = (SSIM_K2 * SSIM_L) ** 2
    score = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )
    return float(score.mean())


def _build_tree(points: np.ndarray):
    """scipy's cKDTree over (N, 3) points, as KdTree builds it. scipy is
    imported here, at the first build, so that importing riterp (most of
    whose start-up time scipy.spatial would be) does not load it."""
    from scipy.spatial import cKDTree

    return cKDTree(points, balanced_tree=False, compact_nodes=False)


@functools.cache
def _builder():
    """The one helper thread that builds prefetched trees, started at the
    first prefetch (cKDTree's build releases the GIL, so it runs beside
    the caller's numpy work)."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="riterp-kdtree")


class KdTree:
    """Exact nearest-neighbor index over a point cloud, built on demand.

    The constructor keeps a private copy of the cloud's points, so the
    index answers for the cloud as it was then, and a build on the helper
    thread never races the caller's writes. The first query with any
    point builds scipy's cKDTree over them with _build_tree, which is
    also where scipy is first imported, and later queries reuse it; an
    empty query builds nothing, waits for nothing and loads no scipy.
    prefetch starts that build ahead on the helper thread; the first
    query with points then waits for what is left of it, and raises the
    build's error if it failed. The tree uses sliding-midpoint splits
    (Maneewongvatana & Mount 1999), which build faster than median splits
    and answer the same exact queries, and scipy's default leaves of up
    to 16 points; distances match a brute-force scan exactly (same
    float64 arithmetic).
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise ValueError("cannot index an empty cloud")
        self._points = cloud.points.copy()
        self._tree = None
        self._pending = None  # the prefetched build's Future, until a query takes it

    def prefetch(self) -> None:
        """Start building the tree on the helper thread, unless it is built
        or being built."""
        if self._tree is None and self._pending is None:
            self._pending = _builder().submit(_build_tree, self._points)

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-neighbor (distances, indices) for each row of (N, 3) points."""
        if len(points) == 0:
            return np.zeros(0), np.zeros(0, dtype=np.intp)
        if self._tree is None:
            pending, self._pending = self._pending, None
            self._tree = _build_tree(self._points) if pending is None else pending.result()
        dist, idx = self._tree.query(points, k=1, workers=1)
        return np.atleast_1d(dist), np.atleast_1d(idx)


#: the reference cloud's ladder gives up, leaving its points to a k-d tree
#: over the test cloud, before its widening windows would visit more pixels
#: in all than this many passes over the image: about the cost of building
#: that tree
LADDER_PASSES = 4
#: the test cloud's budget, in the same passes: enough for the few points
#: near a gradient fill's border, and less than the 5 x 15 rung charges for
#: the thousand or more mid-air points a baseline leaves, so that such a
#: ladder gives up at once and leaves them to the reference's k-d tree
TEST_LADDER_PASSES = 0.5
#: rows per band of the centre-row pass, which bounds its scratch arrays
#: (and the ladder's chunks, to as many pixels)
_BAND_ROWS = 8
#: relative slack on the certificate that absorbs rounding in the points
#: and in the distances
_CERT_SLACK = 1e-9


def window_radius(geom: RiGeometry, rows: int, cols: int) -> float:
    """Certified radius of the search over the (2 rows + 1) x (2 cols + 1)
    pixels around a pixel, per metre of depth.

    Every pixel-centre ray outside that window is at least
    theta = min((rows + 1) dphi, 2 asin(cos phi_max sin((cols + 1) dpsi / 2)))
    away from the pixel's own ray: rows + 1 or more rows off means a pitch
    gap of at least (rows + 1) dphi (dphi the row pitch step), cols + 1 or
    more columns off a yaw gap of at least (cols + 1) dpsi (dpsi =
    2 pi / width, the half gap capped at pi/2, where the columns wrap
    around), which the haversine formula turns into that arc at any pitch
    up to phi_max. A point at depth r is therefore at least
    r sin(min(theta, pi/2)) from any point outside the window; this
    returns sin(min(theta, pi/2)).
    """
    d_pitch = math.radians(geom.pitch_span) / geom.height
    d_yaw = 2 * math.pi / geom.width
    cos_max = math.cos(math.radians(max(abs(geom.pitch_min), abs(geom.pitch_max))))
    theta = min((rows + 1) * d_pitch,
                2 * math.asin(cos_max * math.sin(min((cols + 1) * d_yaw / 2, math.pi / 2))))
    return math.sin(min(theta, math.pi / 2))


def _centre_row_cols(geom: RiGeometry) -> int:
    """Half-width of rung 0: the least cols with window_radius(geom, 0,
    cols) == window_radius(geom, 0, WINDOW_COLS), so no minimum that rung
    0 certifies lies farther off (2 at KITTI_GEOMETRY, where the row pitch
    bounds rung 0)."""
    radius = window_radius(geom, 0, WINDOW_COLS)
    return next(cols for cols in range(WINDOW_COLS + 1) if window_radius(geom, 0, cols) == radius)


def _gathered_minima(grid: np.ndarray, q: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Squared distance from each point q[i] to the nearest of the points
    at the flat indices index[i] of grid's pixels, an xyz_grid, or inf if
    each of them is NaN (EMPTY or outside the image)."""
    flat = grid.reshape(3, -1)
    diff = np.empty((3, *index.shape))
    for axis in range(3):
        flat[axis].take(index, out=diff[axis])
    diff -= q.T[:, :, None]
    np.square(diff, out=diff)
    d2 = diff[0] + diff[1]
    d2 += diff[2]
    return np.fmin.reduce(d2, axis=1, initial=np.inf)  # fmin: NaN loses


def _centre_row_minima(a: RangeImage, b: RangeImage, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared minima, per point of a's cloud and of b's, over the other
    cloud's points in the point's own row within `cols` columns (wrapped
    at the +-pi seam), at most WINDOW_COLS. a and b share one geometry at
    least 2 WINDOW_COLS + 1 wide.

    One dense pass over band slices of the two grids, in bands of rows,
    serves both directions, since d(p, q) = d(q, p); distances are
    (dx^2 + dy^2) + dz^2 in float64, like cKDTree's. Its scratch is freed
    on return.
    """
    h, w = a.depth.shape
    pr, pc = WINDOW_ROWS, WINDOW_COLS
    # squared centre-row minima at every pixel of a, and of b padded like
    # b's band slices; the padding columns are folded back across the seam below
    min_a = np.full((h, w), np.inf)
    min_b = np.full((h, w + 2 * cols), np.inf)
    for r0 in range(0, h, _BAND_ROWS):
        r1 = min(r0 + _BAND_ROWS, h)
        band_a = a.xyz[:, pr + r0:pr + r1, pc:pc + w]
        band_b = b.xyz[:, pr + r0:pr + r1, pc - cols:pc + w + cols]
        diff = np.empty(band_a.shape)
        d2 = np.empty(band_a.shape[1:])
        for du in range(2 * cols + 1):
            np.subtract(band_a, band_b[:, :, du:du + w], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(diff[0], diff[1], out=d2)
            np.add(d2, diff[2], out=d2)
            np.fmin(min_a[r0:r1], d2, out=min_a[r0:r1])  # fmin: NaN (EMPTY) loses
            band_min_b = min_b[r0:r1, du:du + w]
            np.fmin(band_min_b, d2, out=band_min_b)
    core_b = min_b[:, cols:cols + w]
    np.fmin(core_b[:, w - cols:], min_b[:, :cols], out=core_b[:, w - cols:])
    np.fmin(core_b[:, :cols], min_b[:, w + cols:], out=core_b[:, :cols])
    return min_a[a.occupied], core_b[b.occupied]


def _ladder(ri: RangeImage, minima: np.ndarray, other: RangeImage,
            passes: float) -> tuple[np.ndarray, int]:
    """Distances from the points of ri's cloud to other's that the window
    ladder certifies, NaN elsewhere, and how many points rung 1 left
    uncertified.

    `minima` are the points' squared _centre_row_minima over
    _centre_row_cols(g) columns; other shares ri's geometry g.
    Rung k searches the pixels within (rows, cols) of each point's pixel
    for the points the rungs before it left, and certifies a minimum below
    depth * window_radius(g, rows, cols), less the slack. Rung 0 is the
    centre row (0, WINDOW_COLS), whose certificate _centre_row_cols
    columns give; rung 1 gathers the rest of the 3 x 7 window through a
    table of offsets into the padded grid; rungs 2, 3, ... gather the
    widening windows (2, 7), (4, 15), ... whole (rows clipped at the image
    border, columns wrapped at the seam), and the ladder stops before one
    that would take the pixels they visit past `passes` passes over the
    image: with 0, after the 3 x 7 window.
    """
    g = ri.geometry
    h, w = g.height, g.width
    occupied, p, grid = ri.occupied, ri.cloud.points, other.xyz
    depth = ri.depth[occupied]
    d = np.sqrt(minima)  # rung 0
    left = np.flatnonzero(~(d < depth * (window_radius(g, 0, WINDOW_COLS) * (1.0 - _CERT_SLACK))))
    if left.size == 0:
        return d, 0
    d[left] = np.nan
    pixel = np.flatnonzero(occupied)
    # rung 1's pixels as offsets from a point's own pixel in the grid, whose
    # pad rows and columns hold every pixel of the 3 x 7 window
    stride = w + 2 * WINDOW_COLS
    dv, du = np.mgrid[-WINDOW_ROWS:WINDOW_ROWS + 1, -WINDOW_COLS:WINDOW_COLS + 1].reshape(2, -1)
    rest = (dv != 0) | (np.abs(du) > _centre_row_cols(g))
    offsets = dv[rest] * stride + du[rest]
    minima, n_left = minima[left], None
    rows, cols, size, budget = WINDOW_ROWS, WINDOW_COLS, offsets.size, passes * h * w
    while True:
        v, u = np.divmod(pixel[left], w)
        found = np.empty(left.size)
        chunk = max(1, _BAND_ROWS * w // size)  # as many pixels as a band of rung 0
        for s in range(0, left.size, chunk):
            part = slice(s, s + chunk)
            if n_left is None:
                index = ((v[part] + WINDOW_ROWS) * stride + u[part] + WINDOW_COLS)[:, None] + offsets
            else:  # a row outside the image reads the NaN pad row below it
                rows_at = v[part, None] + dv
                rows_at[(rows_at < 0) | (rows_at >= h)] = h
                index = (((rows_at + WINDOW_ROWS) * stride)[:, :, None]
                         + ((u[part, None] + du) % w + WINDOW_COLS)[:, None, :])
            found[part] = _gathered_minima(grid, p[left[part]], index.reshape(-1, size))
        minima = np.minimum(minima, found)
        found = np.sqrt(minima)
        sure = found < depth[left] * (window_radius(g, rows, cols) * (1.0 - _CERT_SLACK))
        d[left[sure]] = found[sure]
        left, minima = left[~sure], minima[~sure]
        if n_left is None:
            n_left = left.size
        rows, cols = 2 * rows, 2 * cols + 1
        dv = np.arange(-min(rows, h - 1), min(rows, h - 1) + 1)
        du = np.arange(-min(cols, w // 2), min(cols, w // 2) + 1)
        size = dv.size * du.size
        budget -= left.size * size
        if left.size == 0 or budget < 0:
            return d, n_left


def nn_distances(a: RangeImage, b: RangeImage,
                 tree_b: KdTree | None = None) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Exact nearest-neighbour distances between a.cloud and b.cloud, a -> b
    and b -> a, the number of points the 3 x 7 window did not certify, and
    the number of those the k-d trees resolved.

    When a and b share a geometry at least 2 WINDOW_COLS + 1 wide, the
    window ladder settles most points: one _centre_row_minima pass serves
    both clouds, then each cloud climbs its own _ladder on through
    widening windows, a's (the test cloud's) for up to TEST_LADDER_PASSES
    passes and b's for up to LADDER_PASSES. The k-d trees resolve the
    points left, and every point when the ladder does not apply.
    `tree_b`, a KdTree over b.cloud made beforehand, is used instead of
    making one and is queried even with no point left; since a KdTree
    builds its tree at its first non-empty query, no tree over b is built
    when every point of a is certified. A KdTree over a.cloud is made only
    if some point of b is left after the ladder.
    """
    ca, cb = a.cloud, b.cloud
    if len(ca) == 0 or len(cb) == 0:
        raise ValueError("nearest-neighbor distances require two non-empty clouds")
    g = a.geometry
    if g == b.geometry and g.width >= 2 * WINDOW_COLS + 1:
        min_a, min_b = _centre_row_minima(a, b, _centre_row_cols(g))
        d_ab, left_a = _ladder(a, min_a, b, TEST_LADDER_PASSES)
        d_ba, left_b = _ladder(b, min_b, a, LADDER_PASSES)
        n_fallback = left_a + left_b
    else:
        d_ab, d_ba = np.full(len(ca), np.nan), np.full(len(cb), np.nan)
        n_fallback = len(ca) + len(cb)
    ask_a, ask_b = np.isnan(d_ab), np.isnan(d_ba)
    if tree_b is None:
        tree_b = KdTree(cb)
    d_ab[ask_a] = tree_b.query(ca.points[ask_a])[0]
    if ask_b.any():
        d_ba[ask_b] = KdTree(ca).query(cb.points[ask_b])[0]
    return d_ab, d_ba, n_fallback, int(np.count_nonzero(ask_a) + np.count_nonzero(ask_b))


def check_delta(delta: float) -> None:
    """Raise ValueError unless the noise threshold is > 0 (NaN would count no point noisy)."""
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")


def noise_split(dist: np.ndarray, delta: float) -> tuple[float, int]:
    """(ratio, densify_count) from the interpolated points' distances to
    their nearest reference point: the fraction farther than delta, and
    the count within it. No points score (0.0, 0)."""
    if dist.size == 0:
        return 0.0, 0
    noisy = dist > delta
    return float(noisy.mean()), int(noisy.size - noisy.sum())


def mean_chamfer(d_ab: np.ndarray, d_ba: np.ndarray) -> float:
    """Symmetric chamfer distance from the two directional distance arrays."""
    return float(0.5 * (d_ab.mean() + d_ba.mean()))


def chamfer(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean nearest-neighbor distance between two clouds, from a
    KdTree over each."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("nearest-neighbor distances require two non-empty clouds")
    return mean_chamfer(KdTree(b).query(a.points)[0], KdTree(a).query(b.points)[0])
