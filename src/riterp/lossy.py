"""Lossy degradation of range images: decimation and depth quantization.

Stands in for an RI-level lossy compressor: resolution loss drops points,
quantization coarsens depth over the geometry's depth clamp
[min_depth, max_depth]. No entropy coding; only the quality damage
matters here. This module owns the rules for its inputs (bits, factors),
which PipelineConfig calls too.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .projection import EMPTY, RangeImage, RiGeometry


def check_bits(bits: int) -> None:
    """Raise ValueError unless bits is an integer in [4, 16]."""
    if not isinstance(bits, (int, np.integer)):
        raise ValueError(f"bits must be an integer, got {bits}")
    if not 4 <= bits <= 16:
        raise ValueError(f"bits must be in [4, 16], got {bits}")


def check_factors(factor_x: int, factor_y: int) -> None:
    """Raise ValueError unless both factors are integers >= 1."""
    for key, factor in (("factor_x", factor_x), ("factor_y", factor_y)):
        if not isinstance(factor, (int, np.integer)):
            raise ValueError(f"{key} must be an integer, got {factor}")
    if factor_x < 1 or factor_y < 1:
        raise ValueError(f"factors must be >= 1, got ({factor_x}, {factor_y})")


def downsampled_geometry(g: RiGeometry, factor_x: int, factor_y: int = 1) -> RiGeometry:
    """The geometry downsample_ri gives an image of geometry g. Raises
    ValueError unless both factors are integers >= 1 that divide g's size."""
    check_factors(factor_x, factor_y)
    if g.width % factor_x or g.height % factor_y:
        raise ValueError(f"factors ({factor_x}, {factor_y}) do not divide {g.width}x{g.height}")
    return replace(g, width=g.width // factor_x, height=g.height // factor_y)


def downsample_ri(ri: RangeImage, factor_x: int, factor_y: int = 1) -> RangeImage:
    """Decimate: each output pixel takes the top-left pixel of its block.

    Deliberately not averaging: averaging across depth discontinuities
    manufactures phantom mid-air depths, which the degradation stage must
    not inject. EMPTY propagates like any value.
    """
    geometry = downsampled_geometry(ri.geometry, factor_x, factor_y)
    return RangeImage(geometry, ri.depth[::factor_y, ::factor_x].copy())


def quantize(ri: RangeImage, bits: int) -> RangeImage:
    """Snap every non-empty depth to its uniform reconstruction level over
    the geometry's [min_depth, max_depth]. Symbol 0 is reserved for EMPTY,
    so bits leave 2^bits - 1 levels:

    code = round((d - min) / (max - min) * (2^bits - 2)),
    d' = min + code * (max - min) / (2^bits - 2). EMPTY pixels are untouched.
    """
    check_bits(bits)
    g = ri.geometry
    d = ri.depth
    occupied = d != EMPTY
    span = g.max_depth - g.min_depth
    ncells = 2**bits - 2
    code = np.rint((d[occupied] - g.min_depth) / span * ncells)
    # (code * span) / ncells, not code * step: one rounding, tightest levels
    recon = np.minimum(g.min_depth + (code * span) / ncells, g.max_depth)
    out = d.copy()
    out[occupied] = recon
    return RangeImage(g, out)
