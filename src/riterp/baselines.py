"""Standard separable image interpolators used as comparison baselines.

These are intentionally depth-blind: EMPTY pixels enter the filter as 0.0,
exactly like a generic image resizer treating the RI as a grayscale image.
That naivety is the behavior the specialized interpolator is measured
against, so it must not be "fixed" here.
"""
from __future__ import annotations

import numpy as np

from .lossy import check_factors
from .projection import EMPTY, RangeImage, scale_geometry

#: kernel support radius in source pixels; taps per axis = 2 * support
SUPPORT = {"bilinear": 1, "bicubic": 2, "lanczos3": 3}

_KEYS_A = -0.5  # Keys cubic-convolution parameter
_LANCZOS_LOBES = 3


def _kernel(method: str, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    at = np.abs(t)
    if method == "bilinear":
        return np.maximum(0.0, 1.0 - at)
    if method == "bicubic":
        a = _KEYS_A
        near = ((a + 2) * at - (a + 3)) * at * at + 1.0
        far = a * (((at - 5) * at + 8) * at - 4)
        return np.where(at <= 1.0, near, np.where(at <= 2.0, far, 0.0))
    if method == "lanczos3":
        out = np.sinc(t) * np.sinc(t / _LANCZOS_LOBES)
        out = np.where(at < _LANCZOS_LOBES, out, 0.0)
        # exact zeros at nonzero integers so phase-0 sampling copies pixels
        out = np.where((at > 0) & (at == np.rint(at)), 0.0, out)
        return out
    raise ValueError(f"unknown method {method!r}")


def _axis_taps(n_src: int, factor: int, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-index source indices and weights for one axis.

    Output center t samples source coordinate s = (t + 0.5) / factor - 0.5
    (align-to-pixel-center); borders replicate the edge pixel.
    """
    support = SUPPORT[method]
    t = np.arange(n_src * factor, dtype=np.float64)
    s = (t + 0.5) / factor - 0.5
    base = np.floor(s)
    phase = s - base
    offsets = np.arange(1 - support, support + 1, dtype=np.float64)
    idx = np.clip(base[:, None] + offsets[None, :], 0, n_src - 1).astype(np.int64)
    w = _kernel(method, phase[:, None] - offsets[None, :])
    w /= w.sum(axis=1, keepdims=True)
    return idx, w


def _upscale_axis(grid: np.ndarray, factor: int, method: str, axis: int) -> np.ndarray:
    if factor == 1:
        return grid
    if axis == 0:
        grid = grid.T
    idx, w = _axis_taps(grid.shape[1], factor, method)
    out = np.einsum("rtk,tk->rt", grid[:, idx], w)
    return out.T if axis == 0 else out


def upscale_baseline(ri: RangeImage, method: str, factor_x: int, factor_y: int = 1) -> RangeImage:
    """Upscale the raw depth grid by factor_x x factor_y with the method's
    kernel (a SUPPORT key). The parameters carry PipelineConfig's field
    names.

    EMPTY participates as 0.0. Output values are clamped to
    [0, max_depth]; anything below min_depth becomes EMPTY so the result
    is still a valid RI.
    """
    if method not in SUPPORT:
        raise ValueError(f"method must be one of {sorted(SUPPORT)}, got {method!r}")
    check_factors(factor_x, factor_y)
    g = ri.geometry
    out = _upscale_axis(ri.depth, factor_x, method, axis=1)
    out = _upscale_axis(out, factor_y, method, axis=0)
    out = np.clip(out, 0.0, g.max_depth)
    out[out < g.min_depth] = EMPTY
    return RangeImage(scale_geometry(g, factor_x, factor_y), out)
