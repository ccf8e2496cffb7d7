"""Point cloud container plus KITTI .bin and binary PLY I/O."""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

KITTI_RECORD_BYTES = 16  # 4 x little-endian float32: x, y, z, reflectance


@dataclass
class PointCloud:
    """3D points in sensor-frame meters with optional per-point intensity.

    Coordinates are held as float64 in memory; file formats (.bin, .ply)
    stay float32, so values read from disk are float32-representable.
    """

    points: np.ndarray
    intensity: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain NaN or Inf coordinates")
        self.points = pts
        if self.intensity is not None:
            inten = np.asarray(self.intensity, dtype=np.float64).reshape(-1)
            if inten.shape[0] != pts.shape[0]:
                raise ValueError(
                    f"intensity length {inten.shape[0]} does not match "
                    f"point count {pts.shape[0]}"
                )
            if not np.isfinite(inten).all():
                raise ValueError("intensity contains NaN or Inf")
            self.intensity = inten

    def __len__(self) -> int:
        return self.points.shape[0]

    def ranges(self) -> np.ndarray:
        """Euclidean distance of every point from the sensor origin."""
        return np.linalg.norm(self.points, axis=1)


def _read_cloud(path: str | Path, points: np.ndarray, intensity: np.ndarray | None = None) -> PointCloud:
    """PointCloud of decoded file data; a rejected cloud names the file."""
    try:
        return PointCloud(points=points, intensity=intensity)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def read_kitti_bin(path: str | Path) -> PointCloud:
    """Decode a KITTI Velodyne scan: consecutive 16-byte records of
    4 little-endian float32 (x, y, z, reflectance), no header."""
    raw = Path(path).read_bytes()
    if len(raw) % KITTI_RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: file size {len(raw)} is not a multiple of "
            f"{KITTI_RECORD_BYTES} bytes"
        )
    records = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    return _read_cloud(path, records[:, :3].astype(np.float64), records[:, 3].astype(np.float64))


def write_kitti_bin(cloud: PointCloud, path: str | Path) -> None:
    """Write a cloud in the KITTI record layout (reflectance 0 if absent)."""
    records = np.zeros((len(cloud), 4), dtype="<f4")
    records[:, :3] = cloud.points.astype(np.float32)
    if cloud.intensity is not None:
        records[:, 3] = cloud.intensity.astype(np.float32)
    Path(path).write_bytes(records.tobytes())


def write_ply(cloud: PointCloud, path: str | Path, color: np.ndarray | None = None) -> None:
    """Write a binary_little_endian PLY with float x/y/z vertices.

    color, when given, must be a (N, 3) uint8 array and adds
    uchar red/green/blue properties.
    """
    n = len(cloud)
    names = ["x", "y", "z"]
    formats = ["<f4", "<f4", "<f4"]
    if color is not None:
        color = np.asarray(color, dtype=np.uint8)
        if color.shape != (n, 3):
            raise ValueError(f"color must have shape ({n}, 3), got {color.shape}")
        names += ["red", "green", "blue"]
        formats += ["u1", "u1", "u1"]

    data = np.empty(n, dtype={"names": names, "formats": formats})
    pts32 = cloud.points.astype(np.float32)
    data["x"], data["y"], data["z"] = pts32[:, 0], pts32[:, 1], pts32[:, 2]
    if color is not None:
        data["red"], data["green"], data["blue"] = color[:, 0], color[:, 1], color[:, 2]

    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header += ["property float x", "property float y", "property float z"]
    if color is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header.append("end_header")

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        data.tofile(fh)


_PLY_TYPES = {
    "float": "<f4", "float32": "<f4",
    "double": "<f8", "float64": "<f8",
    "uchar": "u1", "uint8": "u1",
    "char": "i1", "int8": "i1",
    "ushort": "<u2", "uint16": "<u2",
    "short": "<i2", "int16": "<i2",
    "uint": "<u4", "uint32": "<u4",
    "int": "<i4", "int32": "<i4",
}


def read_ply(path: str | Path) -> PointCloud:
    """Read vertex x/y/z from a binary_little_endian PLY (extra scalar
    vertex properties are skipped). A file this cannot read raises a
    ValueError that names it."""
    with open(path, "rb") as fh:
        try:
            names, formats, count = _ply_header(fh)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        dtype = np.dtype({"names": names, "formats": formats})
        room = (os.fstat(fh.fileno()).st_size - fh.tell()) // dtype.itemsize
        if not 0 <= count <= room:
            raise ValueError(f"{path}: vertex count {count}, but the body holds 0 to {room} vertices")
        data = np.fromfile(fh, dtype=dtype, count=count)
    points = np.stack(
        [data["x"].astype(np.float64), data["y"].astype(np.float64),
         data["z"].astype(np.float64)], axis=1,
    )
    return _read_cloud(path, points)


def _ply_header(fh) -> tuple[list[str], list[str], int]:
    """Vertex property names, their numpy formats and the vertex count,
    leaving fh at the first byte of the body."""
    if fh.readline().strip() != b"ply":
        raise ValueError("not a PLY file")
    fmt = None
    count = None
    names: list[str] = []
    formats: list[str] = []
    in_vertex = False
    while True:
        line = fh.readline()
        if not line:
            raise ValueError("truncated PLY header")
        tokens = line.decode("ascii").strip().split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "end_header":
            break
        if len(tokens) < {"format": 2, "element": 3, "property": 3}.get(tokens[0], 0):
            raise ValueError(f"malformed PLY header line {line!r}")
        if tokens[0] == "format":
            fmt = tokens[1]
        elif tokens[0] == "element":
            in_vertex = tokens[1] == "vertex"
            if in_vertex:
                count = int(tokens[2])
        elif tokens[0] == "property" and in_vertex:
            if tokens[1] == "list":
                raise ValueError("list vertex properties unsupported")
            if tokens[1] not in _PLY_TYPES:
                raise ValueError(f"unsupported PLY property type {tokens[1]!r}")
            if tokens[2] in names:
                raise ValueError(f"duplicate vertex property {tokens[2]!r}")
            names.append(tokens[2])
            formats.append(_PLY_TYPES[tokens[1]])
    if fmt != "binary_little_endian":
        raise ValueError(f"expected binary_little_endian, got {fmt}")
    if count is None or not {"x", "y", "z"} <= set(names):
        raise ValueError("no vertex element with x/y/z properties")
    return names, formats, count


def filter_by_range(cloud: PointCloud, min_r: float, max_r: float) -> PointCloud:
    """Keep points with min_r <= range <= max_r, order preserved."""
    if not (0 <= min_r < max_r):
        raise ValueError(f"require 0 <= min_r < max_r, got [{min_r}, {max_r}]")
    r = cloud.ranges()
    keep = np.flatnonzero((r >= min_r) & (r <= max_r))
    intensity = cloud.intensity[keep] if cloud.intensity is not None else None
    return PointCloud(points=cloud.points[keep], intensity=intensity)
