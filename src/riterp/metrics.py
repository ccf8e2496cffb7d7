"""2D and 3D fidelity metrics: SSIM over RIs, nearest-neighbor noise
classification, and chamfer distance between clouds."""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from scipy.spatial import cKDTree

from .pointcloud import PointCloud
from .projection import RangeImage

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_L = 1.0  # depths are normalized to [0, 1] before comparison


@dataclass
class QualityReport:
    """Paired 2D and 3D scores for one pipeline run.

    noise_ratio and densify_count partition the interpolated points:
    noise_ratio counts those farther than delta from every reference
    point, densify_count those within delta.
    """

    ssim: float
    noise_ratio: float | None
    chamfer: float
    densify_count: int

    def as_dict(self) -> dict:
        return asdict(self)


def _window_sums(a: np.ndarray, k: int) -> np.ndarray:
    """Sliding k x k window sums at every valid position (integral image)."""
    s = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=s[1:, 1:])
    return s[k:, k:] - s[:-k, k:] - s[k:, :-k] + s[:-k, :-k]


def ssim(a: RangeImage, b: RangeImage) -> float:
    """Mean local SSIM over 8x8 sliding windows with uniform weighting.

    Depths are normalized by max_depth (EMPTY participates as 0.0) and
    window statistics use population normalization. Constants are
    C1 = (0.01 L)^2, C2 = (0.03 L)^2 with L = 1.
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

    x = a.depth / ga.max_depth
    y = b.depth / gb.max_depth
    n = SSIM_WINDOW * SSIM_WINDOW
    mu_x = _window_sums(x, SSIM_WINDOW) / n
    mu_y = _window_sums(y, SSIM_WINDOW) / n
    var_x = _window_sums(x * x, SSIM_WINDOW) / n - mu_x * mu_x
    var_y = _window_sums(y * y, SSIM_WINDOW) / n - mu_y * mu_y
    cov = _window_sums(x * y, SSIM_WINDOW) / n - mu_x * mu_y

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
        self.size = len(cloud)

    def query(self, points: np.ndarray | PointCloud) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-neighbor (distances, indices) for each query point."""
        if isinstance(points, PointCloud):
            points = points.points
        dist, idx = self._tree.query(points, k=1, workers=1)
        return np.atleast_1d(dist), np.atleast_1d(idx)


def coincident_points(a: RangeImage, b: RangeImage) -> tuple[np.ndarray, np.ndarray] | None:
    """Index pairs (ia, ib) into ri_to_cloud(a) and ri_to_cloud(b) of the
    pixels the two RIs share: same geometry, same position, same depth.
    ri_to_cloud emits the identical point for both. None when the
    geometries differ."""
    if a.geometry != b.geometry:
        return None
    same = a.occupied & (a.depth == b.depth)
    return np.flatnonzero(same[a.occupied]), np.flatnonzero(same[b.occupied])


def nn_distances(
    a: PointCloud,
    b: PointCloud,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
    tree_b: KdTree | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest-neighbor distances in both directions: a -> b and b -> a.

    `pairs` optionally names index pairs (ia, ib) of points expected to be
    identical in both clouds, as coincident_points() returns them. A pair
    whose coordinates are bit-identical has distance exactly 0.0 in both
    directions, so it is written as 0.0 and not queried; any other pair
    is queried like every unpaired point. `tree_b`, a KdTree already built
    over b, is used instead of building one.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("nearest-neighbor distances require two non-empty clouds")
    query_a = np.ones(len(a), dtype=bool)
    query_b = np.ones(len(b), dtype=bool)
    if pairs is not None:
        ia, ib = pairs
        same = (a.points[ia] == b.points[ib]).all(axis=1)
        query_a[ia[same]] = False
        query_b[ib[same]] = False
    d_ab = np.zeros(len(a))
    d_ba = np.zeros(len(b))
    if tree_b is None:
        tree_b = KdTree(b)
    d_ab[query_a] = tree_b.query(a.points[query_a])[0]
    d_ba[query_b] = KdTree(a).query(b.points[query_b])[0]
    return d_ab, d_ba


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


def noise_ratio(interp_cloud: PointCloud, reference: PointCloud, delta: float) -> tuple[float, int]:
    """Classify interpolated points against the reference cloud.

    Returns (ratio, densify_count): the fraction of interpolated points
    whose nearest reference point is farther than delta, and the count of
    those within delta. An empty interpolated cloud scores (0.0, 0).
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if len(reference) == 0:
        raise ValueError("reference cloud is empty")
    if len(interp_cloud) == 0:
        return 0.0, 0
    dist, _ = KdTree(reference).query(interp_cloud)
    return noise_split(dist, delta)


def chamfer(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean nearest-neighbor distance between two clouds."""
    return mean_chamfer(*nn_distances(a, b))
