"""Depth-gradient-aware range image upscaling.

Two phases over a tiling of fixed-size windows:

* exploration scans every horizontally adjacent pixel pair inside each
  window, computes the depth gradient, and records a candidate insertion
  site with a midpoint fill value. A site is invalid when either pixel is
  EMPTY (object/empty boundary) or the gradient magnitude exceeds the
  policy threshold (object/object boundary) -- interpolating across either
  kind of boundary creates mid-air 3D points.
* interpolation doubles the image width, copying source pixel (v, u) to
  (v, 2u) and filling (v, 2u + 1) from the site's value when the site is
  valid and survives the per-window fill budget; every other new pixel
  stays EMPTY.

The fill budget is spent in policy order: ascending neighbor depth fills
near objects first, descending fills far objects first.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .projection import EMPTY, RangeImage, RiGeometry, scale_geometry

ASCENDING = "ascending_depth"
DESCENDING = "descending_depth"

DEFAULT_WINDOW_W = 32
DEFAULT_WINDOW_H = 4
DEFAULT_GRADIENT_THRESHOLD = 2.5  # meters per source pixel


@dataclass(frozen=True)
class InterpPolicy:
    """Ordering rule, fill budget, and gradient validity threshold."""

    order: str = ASCENDING
    max_fills_per_window: int | None = None  # None = unlimited
    gradient_threshold: float = DEFAULT_GRADIENT_THRESHOLD

    def __post_init__(self):
        if self.order not in (ASCENDING, DESCENDING):
            raise ValueError(f"order must be {ASCENDING!r} or {DESCENDING!r}, got {self.order!r}")
        if self.max_fills_per_window is not None and self.max_fills_per_window < 0:
            raise ValueError("max_fills_per_window must be >= 0 or None")
        if not self.gradient_threshold > 0:
            raise ValueError(f"gradient_threshold must be > 0, got {self.gradient_threshold}")


@dataclass
class InterpolationPlan:
    """Exploration output: candidate sites sorted in policy order.

    Sites are kept as parallel arrays, one entry per site between source
    pixels (row, col) and (row, col + 1); the interpolation phase is
    vectorized. For invalid sites fill_value and neighbor_depth are
    computed from the raw grid values (EMPTY as 0.0) and are diagnostic
    only; they are never applied. Ordering is monotone in neighbor_depth
    per policy.order with ties broken by (row, col) ascending.
    """

    source_width: int
    source_height: int
    window_w: int
    window_h: int
    policy: InterpPolicy
    window_id: np.ndarray = field(repr=False)
    row: np.ndarray = field(repr=False)
    col: np.ndarray = field(repr=False)
    fill_value: np.ndarray = field(repr=False)
    neighbor_depth: np.ndarray = field(repr=False)
    valid: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.row.size


def check_window(g: RiGeometry, window_w: int, window_h: int) -> None:
    """Raise ValueError unless window_w >= 2 and window_h >= 1 windows
    tile an image of geometry g."""
    if window_w < 2 or window_h < 1 or g.width % window_w or g.height % window_h:
        raise ValueError(f"window {window_w}x{window_h} does not tile RI {g.width}x{g.height} "
                         f"(window_w must be >= 2 and window_h >= 1)")


def explore_windows(
    ri: RangeImage,
    window_w: int = DEFAULT_WINDOW_W,
    window_h: int = DEFAULT_WINDOW_H,
    policy: InterpPolicy = InterpPolicy(),
) -> InterpolationPlan:
    """Phase 1: enumerate candidate sites in every window, policy-sorted.

    For the pair (left, right): gradient g = right - left, fill value is
    the midpoint left + g/2, and the ordering key is min(left, right).
    Pairs spanning a window border are not candidates.
    """
    g = ri.geometry
    check_window(g, window_w, window_h)

    d = ri.depth
    left = d[:, :-1]
    right = d[:, 1:]
    cols = np.arange(g.width - 1)
    inside = (cols % window_w) != (window_w - 1)  # pair must not cross a window border

    row_idx, col_idx = np.meshgrid(np.arange(g.height), cols[inside], indexing="ij")
    row_idx = row_idx.ravel()
    col_idx = col_idx.ravel()
    lv = left[:, inside].ravel()
    rv = right[:, inside].ravel()

    grad = rv - lv
    occupied = (lv != EMPTY) & (rv != EMPTY)
    valid = occupied & (np.abs(grad) <= policy.gradient_threshold)
    fill = lv + grad / 2.0
    neighbor = np.minimum(lv, rv)
    windows_per_row = g.width // window_w
    window_id = (row_idx // window_h) * windows_per_row + (col_idx // window_w)

    key = neighbor if policy.order == ASCENDING else -neighbor
    order = np.lexsort((col_idx, row_idx, key))

    return InterpolationPlan(
        source_width=g.width,
        source_height=g.height,
        window_w=window_w,
        window_h=window_h,
        policy=policy,
        window_id=window_id[order],
        row=row_idx[order],
        col=col_idx[order],
        fill_value=fill[order],
        neighbor_depth=neighbor[order],
        valid=valid[order],
    )


def _budget_mask(plan: InterpolationPlan) -> np.ndarray:
    """Valid sites surviving the per-window fill budget, in plan order."""
    keep = plan.valid.copy()
    k = plan.policy.max_fills_per_window
    if k is None:
        return keep
    idx = np.flatnonzero(keep)
    wids = plan.window_id[idx]
    # stable sort groups windows while preserving plan (priority) order
    perm = np.argsort(wids, kind="stable")
    sorted_wids = wids[perm]
    group_start = np.flatnonzero(np.r_[True, sorted_wids[1:] != sorted_wids[:-1]])
    starts = np.repeat(group_start, np.diff(np.r_[group_start, sorted_wids.size]))
    rank = np.arange(sorted_wids.size) - starts
    over_budget = idx[perm[rank >= k]]
    keep[over_budget] = False
    return keep


def interpolate(ri: RangeImage, plan: InterpolationPlan) -> RangeImage:
    """Phase 2: double the width, copying sources and applying the plan.

    Output (v, 2u) = input (v, u); output (v, 2u + 1) receives the fill
    value of the (u, u + 1) site when valid and within budget, else EMPTY.
    The last odd column of each window has no right neighbor inside the
    window and is always EMPTY.
    """
    g = ri.geometry
    if (plan.source_width, plan.source_height) != (g.width, g.height):
        raise ValueError(
            f"plan was built for {plan.source_width}x{plan.source_height}, "
            f"RI is {g.width}x{g.height}"
        )

    out = np.full((g.height, g.width * 2), EMPTY)
    out[:, 0::2] = ri.depth
    apply = _budget_mask(plan)
    out[plan.row[apply], 2 * plan.col[apply] + 1] = plan.fill_value[apply]
    return RangeImage(scale_geometry(g, 2), out)


def upscale_gradient(
    ri: RangeImage,
    window_w: int = DEFAULT_WINDOW_W,
    window_h: int = DEFAULT_WINDOW_H,
    policy: InterpPolicy = InterpPolicy(),
) -> RangeImage:
    """Both phases: explore windows, then interpolate to double width."""
    return interpolate(ri, explore_windows(ri, window_w, window_h, policy))
