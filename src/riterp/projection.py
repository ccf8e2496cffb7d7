"""Spherical projection between point clouds and range images.

A range image (RI) is a dense height x width grid of ray depths in meters,
indexed by elevation (rows, top = pitch_max) and azimuth (columns, yaw pi at
column 0 decreasing to -pi). Pixels with no return hold the EMPTY sentinel.

xyz_grid lays an RI's points out as the image, padded for the window
search in metrics, and ri_to_cloud selects its points from that grid. A
RangeImage owns its depth grid, read-only and row-major, and builds each
of the two once, as its xyz and cloud, for every reader to share.
write_pgm writes its view in place, through pointcloud.overwrite.
"""
from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .pointcloud import PointCloud, overwrite

#: Sentinel for pixels without a LiDAR return. 0.0 is physically impossible
#: because geometries require min_depth > 0, so the grid stays a plain
#: numeric buffer.
EMPTY = 0.0

#: half-extents (rows, columns) of the range-image window around each
#: pixel that metrics searches first: 3 rows x 7 columns. xyz_grid pads
#: the image by as many rows and columns on each side.
WINDOW_ROWS = 1
WINDOW_COLS = 3


@dataclass(frozen=True)
class RiGeometry:
    """Projection parameters: image size, vertical FOV, and depth clamp."""

    width: int
    height: int
    pitch_max: float  # degrees, top of the vertical FOV
    pitch_min: float  # degrees, bottom of the vertical FOV
    min_depth: float  # meters
    max_depth: float  # meters

    def __post_init__(self):
        for key in ("width", "height"):
            if not isinstance(getattr(self, key), (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)}")
        for key in ("pitch_min", "pitch_max", "min_depth", "max_depth"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.width < 2 or self.height < 2:
            raise ValueError(f"width/height must be >= 2, got {self.width}x{self.height}")
        if not self.pitch_min < self.pitch_max:
            raise ValueError(f"require pitch_min < pitch_max, got [{self.pitch_min}, {self.pitch_max}]")
        if not 0 < self.min_depth < self.max_depth:
            raise ValueError(f"require 0 < min_depth < max_depth, got [{self.min_depth}, {self.max_depth}]")

    @property
    def pitch_span(self) -> float:
        return self.pitch_max - self.pitch_min

    @cached_property
    def rays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(cos, sin) of the pixel-centre pitch of each row, then of the
        pixel-centre yaw of each column; computed once per geometry."""
        yaw, pitch = pixel_center_angles(self, np.arange(self.height), np.arange(self.width))
        table = (np.cos(pitch), np.sin(pitch), np.cos(yaw), np.sin(yaw))
        for values in table:
            values.flags.writeable = False
        return table


#: HDL-64E-like default: 2048 columns is roughly the native azimuth
#: resolution; a 1024-column image is produced by 2x downsampling.
KITTI_GEOMETRY = RiGeometry(
    width=2048, height=64, pitch_max=2.0, pitch_min=-24.8,
    min_depth=2.0, max_depth=120.0,
)


@dataclass(frozen=True)
class RangeImage:
    """Dense depth grid over an RiGeometry; EMPTY marks missing returns.

    Depths are float64 in memory. Depths written by cloud_to_ri are rounded
    through float32 (sensor precision), which keeps reconstruction followed
    by re-projection bit-stable; derived images (quantized, interpolated)
    may hold arbitrary float64 values.

    The image is frozen and keeps the depth array it is given, made
    read-only (a copy if it is not C-contiguous float64), so occupied, xyz
    and cloud, each built at its first read, never go stale.
    """

    geometry: RiGeometry
    depth: np.ndarray

    def __post_init__(self):
        g = self.geometry
        grid = np.require(self.depth, dtype=np.float64, requirements="C")
        if grid.shape != (g.height, g.width):
            raise ValueError(f"depth grid shape {grid.shape} != ({g.height}, {g.width})")
        if not np.isfinite(grid).all():
            raise ValueError("depth grid contains NaN or Inf")
        occupied = grid != EMPTY
        values = grid[occupied]
        if values.size and (values.min() < g.min_depth or values.max() > g.max_depth):
            raise ValueError(
                f"non-empty depths must lie in [{g.min_depth}, {g.max_depth}], "
                f"got [{values.min()}, {values.max()}]"
            )
        grid.flags.writeable = False
        object.__setattr__(self, "depth", grid)

    @cached_property
    def occupied(self) -> np.ndarray:
        """Boolean mask of non-EMPTY pixels, read-only."""
        mask = self.depth != EMPTY
        mask.flags.writeable = False
        return mask

    @cached_property
    def xyz(self) -> np.ndarray:
        """xyz_grid(self), read-only."""
        grid = xyz_grid(self)
        grid.flags.writeable = False
        return grid

    @cached_property
    def cloud(self) -> PointCloud:
        """ri_to_cloud(self), its points read-only."""
        cloud = ri_to_cloud(self)
        cloud.points.flags.writeable = False
        return cloud


def cloud_to_ri(cloud: PointCloud, geom: RiGeometry) -> RangeImage:
    """Project a cloud onto the RI grid; nearest depth wins per pixel.

    Per point: r = |p|, yaw = atan2(y, x), pitch = asin(z / r). Column is
    floor((0.5 * (1 - yaw/pi)) * width), row is floor((1 - (pitch_deg -
    pitch_min) / pitch_span) * height), both clamped at the borders. Points
    outside the depth clamp or the vertical FOV are dropped.
    """
    p = cloud.points
    r = cloud.ranges()
    # float32 rounding before the depth gate keeps stored values and the
    # gate consistent for clouds reconstructed from an RI
    depth = r.astype(np.float32).astype(np.float64)
    safe_r = np.where(r > 0, r, 1.0)
    pitch_deg = np.degrees(np.arcsin(np.clip(p[:, 2] / safe_r, -1.0, 1.0)))
    keep = np.flatnonzero(
        (r > 0)
        & (depth >= geom.min_depth)
        & (depth <= geom.max_depth)
        & (pitch_deg >= geom.pitch_min)
        & (pitch_deg <= geom.pitch_max)
    )

    yaw = np.arctan2(p[:, 1].take(keep), p[:, 0].take(keep))
    u = np.floor(0.5 * (1.0 - yaw / np.pi) * geom.width).astype(np.int64)
    np.clip(u, 0, geom.width - 1, out=u)
    v = np.floor((1.0 - (pitch_deg.take(keep) - geom.pitch_min) / geom.pitch_span)
                 * geom.height).astype(np.int64)
    np.clip(v, 0, geom.height - 1, out=v)

    grid = np.full((geom.height, geom.width), np.inf)
    # flat indices take numpy's fast path for ufunc.at
    np.minimum.at(grid.ravel(), v * geom.width + u, depth.take(keep))
    grid[np.isinf(grid)] = EMPTY
    return RangeImage(geom, grid)


def pixel_center_angles(geom: RiGeometry, v: np.ndarray, u: np.ndarray):
    """Ray angles (radians) of the pixel centers at rows v, columns u."""
    yaw = np.pi * (1.0 - 2.0 * (u + 0.5) / geom.width)
    pitch_deg = geom.pitch_min + (1.0 - (v + 0.5) / geom.height) * geom.pitch_span
    return yaw, np.radians(pitch_deg)


def xyz_grid(ri: RangeImage) -> np.ndarray:
    """(3, height + 2 WINDOW_ROWS, width + 2 WINDOW_COLS) float64 x, y, z
    of the point on each pixel-centre ray at its depth, pixel (v, u) at
    [:, v + WINDOW_ROWS, u + WINDOW_COLS]: (r cos pitch) cos yaw,
    (r cos pitch) sin yaw and r sin pitch. EMPTY pixels and the WINDOW_ROWS
    pad rows above and below the image are NaN; the WINDOW_COLS pad
    columns on each side repeat the image's columns across the +-pi seam."""
    g = ri.geometry
    h, w, pr, pc = g.height, g.width, WINDOW_ROWS, WINDOW_COLS
    cos_pitch, sin_pitch, cos_yaw, sin_yaw = g.rays
    grid = np.empty((3, h + 2 * pr, w + 2 * pc))
    grid[:, :pr] = grid[:, pr + h:] = np.nan
    rows = grid[:, pr:pr + h]
    image = rows[:, :, pc:pc + w]
    r_cos_pitch = ri.depth * cos_pitch[:, None]
    np.multiply(r_cos_pitch, cos_yaw, out=image[0])
    np.multiply(r_cos_pitch, sin_yaw, out=image[1])
    np.multiply(ri.depth, sin_pitch[:, None], out=image[2])
    np.copyto(image, np.nan, where=~ri.occupied)
    rows[:, :, :pc] = image[:, :, np.arange(-pc, 0) % w]
    rows[:, :, pc + w:] = image[:, :, np.arange(w, w + pc) % w]
    return grid


def ri_to_cloud(ri: RangeImage) -> PointCloud:
    """Emit one point per non-empty pixel along the pixel-center ray.

    Output order is row-major over the grid; np.nonzero(ri.occupied)
    gives the matching (row, column) indices. The points are selected from
    ri.xyz.
    """
    image = ri.xyz[:, WINDOW_ROWS:-WINDOW_ROWS, WINDOW_COLS:-WINDOW_COLS]
    occupied = ri.occupied
    points = np.empty((np.count_nonzero(occupied), 3))
    for axis in range(3):
        points[:, axis] = image[axis][occupied]
    return PointCloud(points=points)


def occupancy(ri: RangeImage) -> float:
    """Fraction of non-empty pixels."""
    return float(np.count_nonzero(ri.occupied) / ri.depth.size)


def write_pgm(ri: RangeImage, path: str | Path) -> None:
    """Debug view: 16-bit binary PGM, depth mapped linearly from
    [0, max_depth] to [0, 65535] (EMPTY stays 0)."""
    scaled = ri.depth / ri.geometry.max_depth
    scaled *= 65535.0
    np.rint(scaled, out=scaled)
    np.clip(scaled, 0, 65535, out=scaled)
    img = scaled.astype(">u2")  # raw PGM is big-endian
    header = f"P5\n{ri.geometry.width} {ri.geometry.height}\n65535\n"
    with overwrite(path) as fh:
        fh.write(header.encode("ascii"))
        img.tofile(fh)


def save_ri(ri: RangeImage, path: str | Path) -> Path:
    """Lossless on-disk RI (.npz) for chaining CLI stages. Returns the path
    written: path, with .npz appended unless it ends in .npz in any case."""
    path = Path(path if str(path).lower().endswith(".npz") else f"{path}.npz")
    g = ri.geometry
    with open(path, "wb") as fh:  # np.savez would append .npz to a path in another case
        np.savez(fh, depth=ri.depth, **{f.name: getattr(g, f.name) for f in fields(g)})
    return path


def load_ri(path: str | Path) -> RangeImage:
    """Read an RI written by save_ri. A file that is not an .npz archive,
    a missing key, or an invalid geometry or depth grid raises a one-line
    ValueError that names the file."""
    with open(path, "rb") as fh:  # np.load(path) leaves the file open when it rejects it
        try:
            data = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile):  # pickle, empty or cut file
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: not an .npz RI archive")
        for key in ["depth", *(f.name for f in fields(RiGeometry))]:
            if key not in data.files:
                raise ValueError(f"{path}: RI archive has no key {key!r}")
        try:
            geom = RiGeometry(**{f.name: data[f.name].item() for f in fields(RiGeometry)})
            return RangeImage(geom, data["depth"])
        except (TypeError, ValueError) as err:  # a non-scalar, non-numeric or invalid value
            raise ValueError(f"{path}: {err}") from None


def scale_geometry(geom: RiGeometry, factor_x: int, factor_y: int = 1) -> RiGeometry:
    """Geometry with width/height multiplied by integer upscale factors;
    FOV and depth clamp unchanged."""
    return replace(geom, width=geom.width * factor_x, height=geom.height * factor_y)
