"""2D and 3D fidelity metrics: SSIM over RIs, nearest-neighbor noise
classification, and chamfer distance between clouds.

Nearest neighbours are exact and use the range image as their index when
both clouds come from RIs of one geometry: each point is compared with
the other cloud's points in the 3 x 7 pixels around its own pixel
(columns wrap at the +-pi seam). Every point outside that window lies on
a ray at least theta = min(2 dphi, 2 asin(cos phi_max sin(2 dpsi))) away,
so a window minimum below depth * sin(min(theta, pi/2)) is the exact
answer. Reference points left uncertified are searched again over
widening windows (5 x 15, 9 x 31, ...) with the same certificate.
KdTree (scipy's cKDTree) resolves the points still without one, and
every point when the geometries differ.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .pointcloud import PointCloud
from .projection import RangeImage, RiGeometry

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_L = 1.0  # depths are normalized to [0, 1] before comparison


def _window_sums(a: np.ndarray, k: int) -> np.ndarray:
    """Sliding k x k window sums at every valid position (integral image)."""
    s = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=s[1:, 1:])
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


class KdTree:
    """Immutable exact nearest-neighbor index over a point cloud.

    Backed by scipy's cKDTree with sliding-midpoint splits (Maneewongvatana
    & Mount 1999), which build faster than median splits and answer the
    same exact queries; distances match a brute-force scan exactly (same
    float64 arithmetic).
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise ValueError("cannot index an empty cloud")
        self._tree = cKDTree(cloud.points, balanced_tree=False, compact_nodes=False)

    def query(self, points: np.ndarray | PointCloud) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-neighbor (distances, indices) for each query point."""
        if isinstance(points, PointCloud):
            points = points.points
        dist, idx = self._tree.query(points, k=1, workers=1)
        return np.atleast_1d(dist), np.atleast_1d(idx)


#: half-extents (rows, columns) of the range-image window that nn_distances
#: searches around each pixel: 3 rows x 7 columns
WINDOW_ROWS = 1
WINDOW_COLS = 3
#: widen_window gives up, leaving its points to a k-d tree over the other
#: cloud, before its windows would visit more pixels in all than this many
#: passes over the image: about the cost of building that tree
LADDER_PASSES = 4
#: rows per band of the window pass, which bounds its scratch arrays (and
#: the ladder's chunks, to as many pixels)
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


def _coordinate_band(ri: RangeImage, points: np.ndarray, starts: np.ndarray, r0: int, r1: int,
                     pad_cols: int) -> np.ndarray:
    """(3, r1 - r0, W + 2 pad_cols) grid of x, y, z holding ri_to_cloud(ri)'s
    points of rows r0 .. r1 - 1 at their pixels; NaN at EMPTY pixels and in
    rows outside the image. `starts[v]` is the index of row v's first
    point. Padding columns repeat the columns across the +-pi seam."""
    w = ri.geometry.width
    band = np.full((3, r1 - r0, w + 2 * pad_cols), np.nan)
    lo, hi = max(r0, 0), min(r1, ri.geometry.height)
    core = band[:, lo - r0:hi - r0, pad_cols:pad_cols + w]
    occupied, inside = ri.occupied[lo:hi], points[starts[lo]:starts[hi]]
    for axis in range(3):
        core[axis][occupied] = inside[:, axis]
    if pad_cols:
        band[:, :, :pad_cols] = band[:, :, w:w + pad_cols]
        band[:, :, -pad_cols:] = band[:, :, pad_cols:2 * pad_cols]
    return band


def _row_starts(ri: RangeImage) -> np.ndarray:
    """Index of each row's first point in ri_to_cloud(ri), plus the total."""
    return np.concatenate([[0], np.cumsum(np.count_nonzero(ri.occupied, axis=1))])


def _window_minima(a: RangeImage, b: RangeImage, pa: np.ndarray,
                   pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared window minima of a's and of b's points, for window_distances;
    a and b share a geometry at least 2 WINDOW_COLS + 1 wide. Its scratch
    is freed on return."""
    g = a.geometry
    h, w = g.height, g.width
    rr, cc = WINDOW_ROWS, WINDOW_COLS
    starts_a, starts_b = _row_starts(a), _row_starts(b)
    # squared window minima of b's pixels, padded like b's bands; the
    # padding columns are folded back across the seam below
    min_b = np.full((h + 2 * rr, w + 2 * cc), np.inf)
    min_a = np.empty(starts_a[-1])
    for r0 in range(0, h, _BAND_ROWS):
        r1 = min(r0 + _BAND_ROWS, h)
        band_a = _coordinate_band(a, pa, starts_a, r0, r1, 0)
        band_b = _coordinate_band(b, pb, starts_b, r0 - rr, r1 + rr, cc)
        band_min_a = np.full(band_a.shape[1:], np.inf)
        diff = np.empty(band_a.shape)
        d2 = np.empty(band_min_a.shape)
        for dv in range(2 * rr + 1):
            for du in range(2 * cc + 1):
                np.subtract(band_a, band_b[:, dv:dv + r1 - r0, du:du + w], out=diff)
                np.multiply(diff, diff, out=diff)
                np.add(diff[0], diff[1], out=d2)
                np.add(d2, diff[2], out=d2)
                np.fmin(band_min_a, d2, out=band_min_a)  # fmin: NaN (EMPTY) loses
                band_min_b = min_b[r0 + dv:r1 + dv, du:du + w]
                np.fmin(band_min_b, d2, out=band_min_b)
        min_a[starts_a[r0]:starts_a[r1]] = band_min_a[a.occupied[r0:r1]]
    core_b = min_b[rr:rr + h, cc:cc + w]
    np.fmin(core_b[:, w - cc:], min_b[rr:rr + h, :cc], out=core_b[:, w - cc:])
    np.fmin(core_b[:, :cc], min_b[rr:rr + h, w + cc:], out=core_b[:, :cc])
    return min_a, core_b[b.occupied]


def window_distances(a: RangeImage, b: RangeImage, pa: np.ndarray,
                     pb: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Nearest-neighbour distances that the range-image window certifies.

    pa and pb are ri_to_cloud(a).points and ri_to_cloud(b).points. For
    each point, the window minimum is the least distance to the other
    cloud's points in the 3 x 7 pixels around its own pixel (columns wrap
    at the +-pi seam, rows do not), computed as (dx^2 + dy^2) + dz^2 in
    float64 like cKDTree. One pass over the 21 offsets, in bands of rows,
    serves both directions, since d(p, q) = d(q, p). A minimum below the
    point's depth times window_radius (less a 1e-9 slack for rounding) is
    exact.

    Returns (d_a, d_b), per point of each cloud: the exact distance where
    certified, NaN elsewhere. None when the geometries differ or the image
    is narrower than the window.
    """
    g = a.geometry
    if g != b.geometry or g.width < 2 * WINDOW_COLS + 1:
        return None
    d_a, d_b = _window_minima(a, b, pa, pb)
    radius = window_radius(g, WINDOW_ROWS, WINDOW_COLS) * (1.0 - _CERT_SLACK)
    for ri, d in ((a, d_a), (b, d_b)):
        np.sqrt(d, out=d)
        d[~(d < ri.depth[ri.occupied] * radius)] = np.nan
    return d_a, d_b


def widen_window(a: RangeImage, pa: np.ndarray, b: RangeImage, pb: np.ndarray,
                 d_b: np.ndarray) -> None:
    """Fill in d_b's NaN entries, the distances from b's points to a's that
    window_distances left uncertified, by the same exact search over
    widening windows.

    pa and pb are ri_to_cloud(a).points and ri_to_cloud(b).points, over
    one geometry. Rung k searches half-extents (2^k, 2^(k+2) - 1): 5 x 15,
    9 x 31, 17 x 63 pixels and so on (rows clipped at the image border,
    columns wrapped at the seam), and certifies a minimum below depth *
    window_radius(geom, rows, cols), less the slack. The points of a are
    gathered through an H x W index grid, in chunks of at most as many
    pixels as a band of the window pass. Before a rung whose windows would
    take the pixels visited past LADDER_PASSES passes over the image, the
    ladder gives up and leaves the remaining entries NaN.
    """
    g = a.geometry
    h, w = g.height, g.width
    left = np.flatnonzero(np.isnan(d_b))
    if left.size == 0:
        return
    v, u = np.divmod(np.flatnonzero(b.occupied)[left], w)  # the left points' pixels
    # index of each pixel's point in pa; -1 at EMPTY pixels and in the
    # extra last row, which stands for every row outside the image
    index = np.full((h + 1, w), -1, dtype=np.intp)
    index[:h][a.occupied] = np.arange(len(pa))
    index = index.ravel()
    budget = LADDER_PASSES * h * w
    rr, cc = WINDOW_ROWS, WINDOW_COLS
    while left.size:
        rr, cc = 2 * rr, 2 * cc + 1
        dv = np.arange(-min(rr, h - 1), min(rr, h - 1) + 1)
        du = np.arange(-min(cc, w // 2), min(cc, w // 2) + 1)
        pixels = dv.size * du.size
        if left.size * pixels > budget:
            return
        budget -= left.size * pixels
        radius = window_radius(g, rr, cc) * (1.0 - _CERT_SLACK)
        chunk = max(1, _BAND_ROWS * w // pixels)
        for s in range(0, left.size, chunk):
            part = slice(s, s + chunk)
            rows = v[part, None] + dv
            rows[(rows < 0) | (rows >= h)] = h
            cols = (u[part, None] + du) % w
            near = index.take(rows[:, :, None] * w + cols[:, None, :])
            diff = pa.take(near, axis=0)
            diff -= pb[left[part], None, None]
            np.square(diff, out=diff)
            d2 = diff[..., 0] + diff[..., 1]
            d2 += diff[..., 2]
            d2[near < 0] = np.inf
            d = np.sqrt(d2.min(axis=(1, 2)))
            sure = d < b.depth[v[part], u[part]] * radius
            d_b[left[part][sure]] = d[sure]
        keep = np.isnan(d_b[left])
        left, v, u = left[keep], v[keep], u[keep]


def nn_distances(
    a: PointCloud,
    b: PointCloud,
    tree_b: KdTree | None = None,
    ris: tuple[RangeImage, RangeImage] | None = None,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Exact nearest-neighbour distances in both directions, a -> b and
    b -> a, the number of points the 3 x 7 window did not certify, and
    the number of those the k-d trees resolved.

    `ris`, the range images that a and b were reconstructed from with
    ri_to_cloud, lets window_distances settle most points and widen_window
    most of b's rest; the k-d trees resolve the others, and every point
    when `ris` is None or the window does not apply. `tree_b`, a KdTree
    already built over b, is used instead of building one and is queried
    even with no point left; a tree over a is built only if some point of
    b is left after the ladder.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("nearest-neighbor distances require two non-empty clouds")
    found = window_distances(*ris, a.points, b.points) if ris is not None else None
    d_ab, d_ba = found or (np.full(len(a), np.nan), np.full(len(b), np.nan))
    ask_a, ask_b = np.isnan(d_ab), np.isnan(d_ba)
    n_fallback = int(np.count_nonzero(ask_a) + np.count_nonzero(ask_b))
    if found is not None:
        widen_window(ris[0], a.points, ris[1], b.points, d_ba)
        ask_b = np.isnan(d_ba)
    if tree_b is None:
        tree_b = KdTree(b)
    d_ab[ask_a] = tree_b.query(a.points[ask_a])[0]
    if ask_b.any():
        d_ba[ask_b] = KdTree(a).query(b.points[ask_b])[0]
    return d_ab, d_ba, n_fallback, int(np.count_nonzero(ask_a) + np.count_nonzero(ask_b))


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
    """Symmetric mean nearest-neighbor distance between two clouds."""
    d_ab, d_ba, _, _ = nn_distances(a, b)
    return mean_chamfer(d_ab, d_ba)
