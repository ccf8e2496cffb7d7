"""Independent brute-force reference implementations for the test suite.

Everything here is written directly from first principles (per-element
loops, struct decoding) and deliberately shares no code path with the
package, so tests compare two independent routes to the same answer.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------- kernels

def tent_kernel(t: float) -> float:
    at = abs(t)
    return 1.0 - at if at <= 1.0 else 0.0


def keys_kernel(t: float, a: float = -0.5) -> float:
    at = abs(t)
    if at <= 1.0:
        return (a + 2) * at**3 - (a + 3) * at**2 + 1.0
    if at <= 2.0:
        return a * (at**3 - 5 * at**2 + 8 * at - 4)
    return 0.0


def lanczos_kernel(t: float, lobes: int = 3) -> float:
    if t == 0.0:
        return 1.0
    at = abs(t)
    if at >= lobes:
        return 0.0
    if at == int(at):
        return 0.0
    return (
        math.sin(math.pi * t) / (math.pi * t)
        * math.sin(math.pi * t / lobes) / (math.pi * t / lobes)
    )


_KERNELS = {"bilinear": (tent_kernel, 1), "bicubic": (keys_kernel, 2), "lanczos3": (lanczos_kernel, 3)}


def brute_upscale(grid: np.ndarray, factor_x: int, factor_y: int, method: str,
                  min_depth: float, max_depth: float) -> np.ndarray:
    """Direct per-output-pixel separable convolution.

    Align-to-pixel-center sampling, replicate-clamped borders, weights
    normalized to unit sum; then clamp to [0, max_depth] and blank
    anything below min_depth.
    """
    kernel, support = _KERNELS[method]
    h, w = grid.shape

    def sample_row(row: np.ndarray, s: float) -> float:
        base = math.floor(s)
        acc = 0.0
        wsum = 0.0
        for j in range(base - support + 1, base + support + 1):
            wj = kernel(s - j)
            acc += wj * row[min(max(j, 0), len(row) - 1)]
            wsum += wj
        return acc / wsum

    mid = np.zeros((h, w * factor_x))
    for i in range(h):
        for t in range(w * factor_x):
            s = (t + 0.5) / factor_x - 0.5
            mid[i, t] = sample_row(grid[i], s)
    out = np.zeros((h * factor_y, w * factor_x))
    for t in range(h * factor_y):
        s = (t + 0.5) / factor_y - 0.5
        for j in range(w * factor_x):
            out[t, j] = sample_row(mid[:, j], s)

    out = np.clip(out, 0.0, max_depth)
    out[out < min_depth] = 0.0
    return out


# ------------------------------------------------------------ 3D geometry

def brute_nn_dists(queries: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Exact nearest-neighbor distances by full pairwise scan."""
    out = np.empty(len(queries))
    for i, q in enumerate(queries):
        d2 = ((reference - q) ** 2).sum(axis=1)
        out[i] = math.sqrt(d2.min())
    return out


def brute_window_minima(occupied_a: np.ndarray, pa: np.ndarray, occupied_b: np.ndarray,
                        pb: np.ndarray, rows: int = 1, cols: int = 3) -> list[float]:
    """Squared distance from each of a's points to the nearest of b's points
    in the (2 rows + 1) x (2 cols + 1) pixels around its own pixel (rows
    outside the image skipped, columns wrapped at the seam), computed as
    (dx^2 + dy^2) + dz^2; inf where there is none. The points of each
    image are listed in row-major pixel order, as ri_to_cloud emits them.
    Every point visits every pixel of its window."""
    h, w = occupied_a.shape
    pixels_a = [(v, u) for v in range(h) for u in range(w) if occupied_a[v, u]]
    index_b = {}
    for v in range(h):
        for u in range(w):
            if occupied_b[v, u]:
                index_b[(v, u)] = len(index_b)
    columns = {(du % w) for du in range(-cols, cols + 1)}  # each column once
    points_b = pb.tolist()
    out = []
    for (v, u), (x, y, z) in zip(pixels_a, pa.tolist()):
        best = math.inf
        for vv in range(max(v - rows, 0), min(v + rows + 1, h)):
            for du in columns:
                j = index_b.get((vv, (u + du) % w))
                if j is not None:
                    qx, qy, qz = points_b[j]
                    dx, dy, dz = x - qx, y - qy, z - qz
                    best = min(best, dx * dx + dy * dy + dz * dz)
        out.append(best)
    return out


def brute_box_hit(d, bmin, bmax) -> float:
    """Entry distance t > 0 of the ray t * d into the box [bmin, bmax], or
    inf, by the slab method one axis at a time: a ray parallel to an axis
    misses unless the origin lies within that axis's slab."""
    t_in, t_out = -math.inf, math.inf
    for di, lo, hi in zip(d, bmin, bmax):
        if di == 0:
            if not lo <= 0.0 <= hi:
                return math.inf
            continue
        t1, t2 = lo / di, hi / di
        t_in, t_out = max(t_in, min(t1, t2)), min(t_out, max(t1, t2))
    return t_in if t_out >= t_in and t_in > 0 else math.inf


def brute_chamfer(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * (brute_nn_dists(a, b).mean() + brute_nn_dists(b, a).mean())


# ------------------------------------------------------------------ SSIM

def reference_ssim(x: np.ndarray, y: np.ndarray, window: int = 8,
                   k1: float = 0.01, k2: float = 0.03, L: float = 1.0) -> float:
    """Per-window nested-loop SSIM, population statistics, uniform weights."""
    c1 = (k1 * L) ** 2
    c2 = (k2 * L) ** 2
    h, w = x.shape
    scores = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            a = x[i:i + window, j:j + window]
            b = y[i:i + window, j:j + window]
            mu_a, mu_b = a.mean(), b.mean()
            var_a = (a * a).mean() - mu_a**2
            var_b = (b * b).mean() - mu_b**2
            cov = (a * b).mean() - mu_a * mu_b
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(scores))


# ------------------------------------------------------------------- PLY

def parse_ply(path) -> dict:
    """Minimal independent binary_little_endian PLY parser (struct-based)."""
    with open(path, "rb") as fh:
        assert fh.readline().strip() == b"ply"
        fmt_sizes = {"float": ("f", 4), "uchar": ("B", 1), "double": ("d", 8)}
        props: list[tuple[str, str, int]] = []
        count = 0
        while True:
            line = fh.readline().decode("ascii").strip()
            if line == "end_header":
                break
            parts = line.split()
            if parts[0] == "format":
                assert parts[1] == "binary_little_endian"
            elif parts[0] == "element":
                assert parts[1] == "vertex"
                count = int(parts[2])
            elif parts[0] == "property":
                code, size = fmt_sizes[parts[1]]
                props.append((parts[2], code, size))
        stride = sum(size for _, _, size in props)
        fmt = "<" + "".join(code for _, code, _ in props)
        payload = fh.read()
    assert len(payload) == count * stride
    columns: dict[str, list] = {name: [] for name, _, _ in props}
    for i in range(count):
        values = struct.unpack_from(fmt, payload, i * stride)
        for (name, _, _), value in zip(props, values):
            columns[name].append(value)
    return {name: np.array(vals) for name, vals in columns.items()}


# ------------------------------------------------------------ KITTI bins

def decode_kitti_bin(path) -> list[tuple[float, float, float, float]]:
    """struct-based record-by-record KITTI .bin decoder."""
    raw = Path(path).read_bytes()
    assert len(raw) % 16 == 0
    return [struct.unpack_from("<4f", raw, off) for off in range(0, len(raw), 16)]


# ------------------------------------------------------- plan ordering

def brute_best_k_per_window(depth: np.ndarray, window_w: int, window_h: int, grad_threshold: float,
                            k: int | None, policy_order: str) -> set:
    """(row, col) of the k best valid sites per window under the policy
    (every valid site for k None), found in the range image by plain
    loops, window by window and pair by pair. The site (row, col) joins
    pixels (row, col) and (row, col + 1) of one window; it is valid when
    neither depth is EMPTY (0.0) and they differ by at most
    grad_threshold. A window's valid sites sort on (key, row, col), where
    the key (the smaller depth, negated for descending order) sorts the
    policy's preferred site first."""
    sign = 1.0 if policy_order == "ascending_depth" else -1.0
    grid = depth.tolist()
    best = set()
    for top in range(0, len(grid), window_h):
        for left in range(0, len(grid[0]), window_w):
            sites = []
            for r in range(top, top + window_h):
                for c in range(left, left + window_w - 1):
                    a, b = grid[r][c], grid[r][c + 1]
                    if a != 0.0 and b != 0.0 and abs(b - a) <= grad_threshold:
                        sites.append((sign * min(a, b), r, c))
            best.update((r, c) for _, r, c in sorted(sites)[:k])
    return best
