"""Depth-gradient-aware range image upscaling.

Two phases over a tiling of fixed-size windows:

* exploration scans every horizontally adjacent pixel pair inside each
  window, computes the depth gradient, and records a candidate insertion
  site with a midpoint fill value, in (row, col) order. A site is invalid
  when either pixel is EMPTY (object/empty boundary) or the gradient
  magnitude exceeds grad_threshold (object/object boundary) --
  interpolating across either kind of boundary creates mid-air 3D points.
* interpolation doubles the image width, copying source pixel (v, u) to
  (v, 2u) and filling (v, 2u + 1) from the site's value when the site is
  valid and survives the per-window fill budget max_fills; every other
  new pixel stays EMPTY.

Only a budget needs an order: each window spends it in policy_order,
ascending neighbor depth filling near objects first, descending far
objects first, and equal depths in (row, col) order. The parameters
carry PipelineConfig's field names and defaults.
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


@dataclass
class InterpolationPlan:
    """Exploration output: one site per source pixel pair (row, col),
    (row, col + 1) inside a window, as parallel arrays in (row, col)
    order; the interpolation phase is vectorized. For invalid sites
    fill_value and neighbor_depth are computed from the raw grid values
    (EMPTY as 0.0) and are diagnostic only; they are never applied.
    """

    source_width: int
    source_height: int
    window_w: int
    window_h: int
    row: np.ndarray = field(repr=False)
    col: np.ndarray = field(repr=False)
    fill_value: np.ndarray = field(repr=False)
    neighbor_depth: np.ndarray = field(repr=False)
    valid: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.row.size


def check_policy(grad_threshold: float = DEFAULT_GRADIENT_THRESHOLD, max_fills: int | None = None,
                 policy_order: str = ASCENDING) -> None:
    """Raise ValueError unless grad_threshold > 0, max_fills is None
    (no budget) or >= 0, and policy_order is ASCENDING or DESCENDING."""
    if policy_order not in (ASCENDING, DESCENDING):
        raise ValueError(f"policy_order must be {ASCENDING!r} or {DESCENDING!r}, got {policy_order!r}")
    if max_fills is not None and max_fills < 0:
        raise ValueError(f"max_fills must be >= 0 or None, got {max_fills}")
    if not grad_threshold > 0:
        raise ValueError(f"grad_threshold must be > 0, got {grad_threshold}")


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
    grad_threshold: float = DEFAULT_GRADIENT_THRESHOLD,
) -> InterpolationPlan:
    """Phase 1: enumerate the candidate sites of every window.

    For the pair (left, right): gradient g = right - left, fill value is
    the midpoint left + g/2, and the neighbor depth is min(left, right).
    Pairs spanning a window border are not candidates.
    """
    g = ri.geometry
    check_window(g, window_w, window_h)
    check_policy(grad_threshold)

    cols = np.arange(g.width - 1)
    inside = (cols % window_w) != (window_w - 1)  # pair must not cross a window border
    row_idx, col_idx = np.meshgrid(np.arange(g.height), cols[inside], indexing="ij")
    lv = ri.depth[:, :-1][:, inside].ravel()
    rv = ri.depth[:, 1:][:, inside].ravel()
    grad = rv - lv
    return InterpolationPlan(
        source_width=g.width,
        source_height=g.height,
        window_w=window_w,
        window_h=window_h,
        row=row_idx.ravel(),
        col=col_idx.ravel(),
        fill_value=lv + grad / 2.0,
        neighbor_depth=np.minimum(lv, rv),
        valid=(lv != EMPTY) & (rv != EMPTY) & (np.abs(grad) <= grad_threshold),
    )


def _budget_mask(plan: InterpolationPlan, max_fills: int, policy_order: str) -> np.ndarray:
    """The valid sites among the first max_fills of their window in
    policy_order."""
    idx = np.flatnonzero(plan.valid)
    window = ((plan.row[idx] // plan.window_h) * (plan.source_width // plan.window_w)
              + plan.col[idx] // plan.window_w)
    key = plan.neighbor_depth[idx] if policy_order == ASCENDING else -plan.neighbor_depth[idx]
    # lexsort is stable and the sites are in (row, col) order, so equal
    # keys keep that order
    ranked = np.lexsort((key, window))
    ranked_window = window[ranked]
    rank = np.arange(ranked.size) - np.searchsorted(ranked_window, ranked_window)
    keep = np.zeros_like(plan.valid)
    keep[idx[ranked[rank < max_fills]]] = True
    return keep


def interpolate(
    ri: RangeImage,
    plan: InterpolationPlan,
    max_fills: int | None = None,
    policy_order: str = ASCENDING,
) -> RangeImage:
    """Phase 2: double the width, copying sources and applying the plan.

    Output (v, 2u) = input (v, u); output (v, 2u + 1) receives the fill
    value of the (u, u + 1) site when valid and within budget, else EMPTY.
    With max_fills None every valid site fills; otherwise each window
    fills its first max_fills valid sites in policy_order. The last odd
    column of each window has no right neighbor inside the window and is
    always EMPTY.
    """
    check_policy(max_fills=max_fills, policy_order=policy_order)
    g = ri.geometry
    if (plan.source_width, plan.source_height) != (g.width, g.height):
        raise ValueError(
            f"plan was built for {plan.source_width}x{plan.source_height}, "
            f"RI is {g.width}x{g.height}"
        )

    out = np.full((g.height, g.width * 2), EMPTY)
    out[:, 0::2] = ri.depth
    apply = plan.valid if max_fills is None else _budget_mask(plan, max_fills, policy_order)
    out[plan.row[apply], 2 * plan.col[apply] + 1] = plan.fill_value[apply]
    return RangeImage(scale_geometry(g, 2), out)


def upscale_gradient(
    ri: RangeImage,
    window_w: int = DEFAULT_WINDOW_W,
    window_h: int = DEFAULT_WINDOW_H,
    grad_threshold: float = DEFAULT_GRADIENT_THRESHOLD,
    max_fills: int | None = None,
    policy_order: str = ASCENDING,
) -> RangeImage:
    """Both phases: explore windows, then interpolate to double width."""
    plan = explore_windows(ri, window_w, window_h, grad_threshold)
    return interpolate(ri, plan, max_fills, policy_order)
