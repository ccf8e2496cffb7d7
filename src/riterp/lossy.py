"""Lossy degradation of range images: decimation and depth quantization.

Stands in for an RI-level lossy compressor: resolution loss drops points,
quantization coarsens depth. No entropy coding; only the quality damage
matters here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projection import EMPTY, RangeImage, scale_geometry


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform depth quantizer. Symbol 0 is reserved for EMPTY, so bits
    leave 2^bits - 1 depth symbols encoding levels 0 .. 2^bits - 2."""

    bits: int
    min_depth: float
    max_depth: float

    def __post_init__(self):
        if not 4 <= self.bits <= 16:
            raise ValueError(f"bits must be in [4, 16], got {self.bits}")
        if not self.min_depth < self.max_depth:
            raise ValueError(f"require min_depth < max_depth, got [{self.min_depth}, {self.max_depth}]")

    @property
    def levels(self) -> int:
        return 2**self.bits - 1

    @property
    def step(self) -> float:
        return (self.max_depth - self.min_depth) / (2**self.bits - 2)


def downsample_ri(ri: RangeImage, factor_x: int, factor_y: int = 1) -> RangeImage:
    """Decimate: each output pixel takes the top-left pixel of its block.

    Deliberately not averaging: averaging across depth discontinuities
    manufactures phantom mid-air depths, which the degradation stage must
    not inject. EMPTY propagates like any value.
    """
    g = ri.geometry
    if factor_x < 1 or factor_y < 1:
        raise ValueError(f"factors must be >= 1, got ({factor_x}, {factor_y})")
    if g.width % factor_x != 0 or g.height % factor_y != 0:
        raise ValueError(
            f"factors ({factor_x}, {factor_y}) do not divide {g.width}x{g.height}"
        )
    out = ri.depth[::factor_y, ::factor_x].copy()
    return RangeImage(scale_geometry(g, 1.0 / factor_x, 1.0 / factor_y), out)


def quantize(ri: RangeImage, q: QuantizerSpec) -> RangeImage:
    """Snap every non-empty depth to its uniform reconstruction level.

    code = round((d - min) / (max - min) * (2^bits - 2)),
    d' = min + code * step. EMPTY pixels are untouched.
    """
    d = ri.depth
    occupied = d != EMPTY
    values = d[occupied]
    if values.size and (values.min() < q.min_depth or values.max() > q.max_depth):
        raise ValueError(
            f"depths outside quantizer range [{q.min_depth}, {q.max_depth}]"
        )
    span = q.max_depth - q.min_depth
    ncells = 2**q.bits - 2
    code = np.rint((values - q.min_depth) / span * ncells)
    # (code * span) / ncells, not code * step: one rounding, tightest levels
    recon = np.minimum(q.min_depth + (code * span) / ncells, q.max_depth)
    out = d.copy()
    out[occupied] = recon
    return RangeImage(ri.geometry, out)
