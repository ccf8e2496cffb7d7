"""Deterministic synthetic LiDAR scans: ground plane plus boxes and
cylinders, raycast at the pixel-center rays of the default grid.

Serves as the KITTI-free input for experiments and tests. A near band of
objects keeps object/ground contact lines close to densely sampled
surfaces; a far band supplies the large occlusion edges that separate the
interpolation kernels; per-ray range jitter plays the role of sensor
noise.
"""
from __future__ import annotations

import numpy as np

from .pointcloud import PointCloud
from .projection import KITTI_GEOMETRY, RiGeometry, pixel_center_angles

SENSOR_HEIGHT = 1.8  # meters above the ground plane
RANGE_NOISE_SIGMA = 0.03  # meters, HDL-64E-class range accuracy


def _ray_directions(geom: RiGeometry) -> np.ndarray:
    """Unit pixel-center ray per pixel, row-major, from geom.rays."""
    cos_pitch, sin_pitch, cos_yaw, sin_yaw = geom.rays
    return np.stack([np.outer(cos_pitch, cos_yaw).ravel(), np.outer(cos_pitch, sin_yaw).ravel(),
                     np.repeat(sin_pitch, geom.width)], axis=1)


def _ground_hits(dirs: np.ndarray) -> np.ndarray:
    """Ray parameter t where each ray meets the plane z = -SENSOR_HEIGHT."""
    dz = dirs[:, 2]
    with np.errstate(divide="ignore"):
        t = -SENSOR_HEIGHT / dz
    t[dz >= 0] = np.inf
    return t


def _box_hits(dirs: np.ndarray, bmin: np.ndarray, bmax: np.ndarray) -> np.ndarray:
    """Slab-method entry distance per ray for one axis-aligned box: the
    largest slab entry, where it is positive and no later than the
    smallest slab exit, else inf. The slabs are taken one axis at a time
    over the (N,) columns of dirs."""
    tmin = np.full(len(dirs), -np.inf)
    tmax = np.full(len(dirs), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for d, lo_b, hi_b in zip(dirs.T, bmin, bmax):
            t1, t2 = lo_b / d, hi_b / d
            lo, hi = np.fmin(t1, t2), np.fmax(t1, t2)
            # axis-parallel rays: the slab constrains nothing if the origin is inside it
            parallel = d == 0
            if parallel.any():
                inside = lo_b <= 0.0 <= hi_b
                lo[parallel], hi[parallel] = (-np.inf, np.inf) if inside else (np.inf, -np.inf)
            np.maximum(tmin, lo, out=tmin)
            np.minimum(tmax, hi, out=tmax)
    return np.where((tmax >= tmin) & (tmin > 0), tmin, np.inf)


def _wrap(angle: np.ndarray) -> np.ndarray:
    """Angles wrapped into [-pi, pi)."""
    return (angle + np.pi) % (2 * np.pi) - np.pi


def _box_columns(geom: RiGeometry, bmin: np.ndarray, bmax: np.ndarray) -> np.ndarray:
    """Columns whose rays can hit a box: those whose pixel-center yaw lies
    within the angular span of the box's xy footprint, padded by one
    column on each side, or every column when the footprint holds the
    origin. A ray of any other column misses the footprint, so its slab
    test, or the test of a cylinder inside the box, would return inf."""
    if bmin[0] <= 0 <= bmax[0] and bmin[1] <= 0 <= bmax[1]:
        return np.arange(geom.width)
    # the footprint is convex and does not hold the origin, so its corners
    # lie within less than pi of the direction of its center
    center = np.arctan2(bmin[1] + bmax[1], bmin[0] + bmax[0])
    xs, ys = np.meshgrid([bmin[0], bmax[0]], [bmin[1], bmax[1]])
    corners = _wrap(np.arctan2(ys, xs) - center)
    pad = 2 * np.pi / geom.width
    yaw, _ = pixel_center_angles(geom, 0.0, np.arange(geom.width, dtype=np.float64))
    rel = _wrap(yaw - center)
    return np.flatnonzero((rel >= corners.min() - pad) & (rel <= corners.max() + pad))


def _cylinder_hits(dirs: np.ndarray, cx: float, cy: float, radius: float, z_top: float) -> np.ndarray:
    """Entry distance per ray for a vertical cylinder standing on the ground."""
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    a = dx * dx + dy * dy
    b = dx * cx + dy * cy
    c = cx * cx + cy * cy - radius * radius
    disc = b * b - a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (b - np.sqrt(disc)) / a
    z = t * dz
    hit = (disc >= 0) & (a > 0) & (t > 0) & (z >= -SENSOR_HEIGHT) & (z <= z_top)
    return np.where(hit, t, np.inf)


def synth_scene(seed: int, geometry: RiGeometry = KITTI_GEOMETRY) -> PointCloud:
    """Deterministic scene sampled along the geometry's pixel-center rays.

    Same seed, same cloud. All points fall inside the geometry's vertical
    FOV and depth clamp by construction.
    """
    rng = np.random.default_rng(seed)
    dirs = _ray_directions(geometry)
    depth = _ground_hits(dirs)
    grid_dirs = dirs.reshape(geometry.height, geometry.width, 3)
    grid_depth = depth.reshape(geometry.height, geometry.width)  # view of depth

    def add_boxes(count: int, dist_lo: float, dist_hi: float):
        for _ in range(count):
            dist = rng.uniform(dist_lo, dist_hi)
            azimuth = rng.uniform(-np.pi, np.pi)
            cx, cy = dist * np.cos(azimuth), dist * np.sin(azimuth)
            hx, hy = rng.uniform(0.6, 2.0, size=2)
            height = rng.uniform(1.0, 2.6)
            bmin = np.array([cx - hx, cy - hy, -SENSOR_HEIGHT])
            bmax = np.array([cx + hx, cy + hy, -SENSOR_HEIGHT + height])
            cols = _box_columns(geometry, bmin, bmax)
            hits = _box_hits(grid_dirs[:, cols].reshape(-1, 3), bmin, bmax)
            grid_depth[:, cols] = np.minimum(grid_depth[:, cols], hits.reshape(geometry.height, -1))

    add_boxes(int(rng.integers(8, 13)), 6.0, 16.0)   # near field
    add_boxes(int(rng.integers(5, 9)), 18.0, 40.0)   # far field, big occlusion edges

    n_cyl = int(rng.integers(5, 9))
    for _ in range(n_cyl):
        dist = rng.uniform(4.5, 14.0)
        azimuth = rng.uniform(-np.pi, np.pi)
        radius = rng.uniform(0.15, 0.5)
        height = rng.uniform(2.0, 5.0)
        cx, cy = dist * np.cos(azimuth), dist * np.sin(azimuth)
        z_top = -SENSOR_HEIGHT + height
        # a ray that meets the cylinder enters its bounding box
        cols = _box_columns(geometry, np.array([cx - radius, cy - radius, -SENSOR_HEIGHT]),
                            np.array([cx + radius, cy + radius, z_top]))
        hits = _cylinder_hits(grid_dirs[:, cols].reshape(-1, 3), cx, cy, radius, z_top)
        grid_depth[:, cols] = np.minimum(grid_depth[:, cols], hits.reshape(geometry.height, -1))

    # per-ray range jitter: real returns are not geometrically smooth, and
    # the jitter drives the kernel comparison the way real scans do
    depth = depth + rng.normal(0.0, RANGE_NOISE_SIGMA, size=depth.shape)

    keep = (depth >= geometry.min_depth) & (depth <= geometry.max_depth)
    points = dirs[keep] * depth[keep, None]
    return PointCloud(points=points)
