"""Spherical projection between point clouds and range images.

A range image (RI) is a dense height x width grid of ray depths in meters,
indexed by elevation (rows, top = pitch_max) and azimuth (columns, yaw pi at
column 0 decreasing to -pi). Pixels with no return hold the EMPTY sentinel.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .pointcloud import PointCloud

#: Sentinel for pixels without a LiDAR return. 0.0 is physically impossible
#: because geometries require min_depth > 0, so the grid stays a plain
#: numeric buffer.
EMPTY = 0.0


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


@dataclass
class RangeImage:
    """Dense depth grid over an RiGeometry; EMPTY marks missing returns.

    Depths are float64 in memory. Depths written by cloud_to_ri are rounded
    through float32 (sensor precision), which keeps reconstruction followed
    by re-projection bit-stable; derived images (quantized, interpolated)
    may hold arbitrary float64 values.
    """

    geometry: RiGeometry
    depth: np.ndarray

    def __post_init__(self):
        g = self.geometry
        grid = np.asarray(self.depth, dtype=np.float64)
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
        self.depth = grid

    @property
    def occupied(self) -> np.ndarray:
        """Boolean mask of non-EMPTY pixels."""
        return self.depth != EMPTY


def cloud_to_ri(cloud: PointCloud, geom: RiGeometry) -> RangeImage:
    """Project a cloud onto the RI grid; nearest depth wins per pixel.

    Per point: r = |p|, yaw = atan2(y, x), pitch = asin(z / r). Column is
    floor((0.5 * (1 - yaw/pi)) * width), row is floor((1 - (pitch_deg -
    pitch_min) / pitch_span) * height), both clamped at the borders. Points
    outside the depth clamp or the vertical FOV are dropped.
    """
    p = cloud.points
    if len(cloud) == 0:
        return RangeImage(geom, np.full((geom.height, geom.width), EMPTY))

    r = np.linalg.norm(p, axis=1)
    # float32 rounding before the depth gate keeps stored values and the
    # gate consistent for clouds reconstructed from an RI
    depth = r.astype(np.float32).astype(np.float64)
    safe_r = np.where(r > 0, r, 1.0)
    pitch_deg = np.degrees(np.arcsin(np.clip(p[:, 2] / safe_r, -1.0, 1.0)))
    keep = (
        (r > 0)
        & (depth >= geom.min_depth)
        & (depth <= geom.max_depth)
        & (pitch_deg >= geom.pitch_min)
        & (pitch_deg <= geom.pitch_max)
    )

    yaw = np.arctan2(p[keep, 1], p[keep, 0])
    u = np.floor(0.5 * (1.0 - yaw / np.pi) * geom.width).astype(np.int64)
    np.clip(u, 0, geom.width - 1, out=u)
    v = np.floor((1.0 - (pitch_deg[keep] - geom.pitch_min) / geom.pitch_span) * geom.height).astype(np.int64)
    np.clip(v, 0, geom.height - 1, out=v)

    grid = np.full((geom.height, geom.width), np.inf)
    np.minimum.at(grid, (v, u), depth[keep])
    grid[np.isinf(grid)] = EMPTY
    return RangeImage(geom, grid)


def pixel_center_angles(geom: RiGeometry, v: np.ndarray, u: np.ndarray):
    """Ray angles (radians) of the pixel centers at rows v, columns u."""
    yaw = np.pi * (1.0 - 2.0 * (u + 0.5) / geom.width)
    pitch_deg = geom.pitch_min + (1.0 - (v + 0.5) / geom.height) * geom.pitch_span
    return yaw, np.radians(pitch_deg)


def ri_to_cloud(ri: RangeImage) -> PointCloud:
    """Emit one point per non-empty pixel along the pixel-center ray.

    Output order is row-major over the grid; np.nonzero(ri.occupied)
    gives the matching (row, column) indices.
    """
    v, u = np.nonzero(ri.occupied)
    r = ri.depth[v, u]
    cos_pitch, sin_pitch, cos_yaw, sin_yaw = ri.geometry.rays
    r_cos_pitch = r * cos_pitch[v]
    points = np.empty((r.size, 3))
    np.multiply(r_cos_pitch, cos_yaw[u], out=points[:, 0])
    np.multiply(r_cos_pitch, sin_yaw[u], out=points[:, 1])
    np.multiply(r, sin_pitch[v], out=points[:, 2])
    return PointCloud(points=points)


def occupancy(ri: RangeImage) -> float:
    """Fraction of non-empty pixels."""
    return float(np.count_nonzero(ri.occupied) / ri.depth.size)


def write_pgm(ri: RangeImage, path: str | Path) -> None:
    """Debug view: 16-bit binary PGM, depth mapped linearly from
    [0, max_depth] to [0, 65535] (EMPTY stays 0)."""
    scaled = np.rint(ri.depth / ri.geometry.max_depth * 65535.0)
    img = np.clip(scaled, 0, 65535).astype(">u2")  # raw PGM is big-endian
    header = f"P5\n{ri.geometry.width} {ri.geometry.height}\n65535\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        img.tofile(fh)


def save_ri(ri: RangeImage, path: str | Path) -> None:
    """Lossless on-disk RI (.npz) for chaining CLI stages."""
    g = ri.geometry
    np.savez(path, depth=ri.depth, **{f.name: getattr(g, f.name) for f in fields(g)})


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
            geom = RiGeometry(
                width=int(data["width"]), height=int(data["height"]),
                pitch_max=float(data["pitch_max"]), pitch_min=float(data["pitch_min"]),
                min_depth=float(data["min_depth"]), max_depth=float(data["max_depth"]),
            )
            return RangeImage(geom, data["depth"])
        except (TypeError, ValueError) as err:  # TypeError: a non-scalar geometry value
            raise ValueError(f"{path}: {err}") from None


def scale_geometry(geom: RiGeometry, factor_x: int, factor_y: int = 1) -> RiGeometry:
    """Geometry with width/height multiplied by integer upscale factors;
    FOV and depth clamp unchanged."""
    return replace(geom, width=geom.width * factor_x, height=geom.height * factor_y)
