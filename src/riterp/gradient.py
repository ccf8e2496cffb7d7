"""Depth-gradient-aware range image upscaling.

Two phases over a tiling of fixed-size windows, both on the image's own
window layout, so a ravelled plan is window-major (see InterpolationPlan):

* exploration scans every horizontally adjacent pixel pair inside each
  window, computes the depth gradient, and records a candidate insertion
  site with a midpoint fill value. A site is invalid when either pixel
  is EMPTY (object/empty boundary) or the gradient magnitude exceeds
  grad_threshold (object/object boundary) -- interpolating across either
  kind of boundary creates mid-air 3D points.
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

from dataclasses import dataclass

import numpy as np

from .projection import EMPTY, RangeImage, RiGeometry, scale_geometry

ASCENDING = "ascending_depth"
DESCENDING = "descending_depth"

DEFAULT_WINDOW_W = 32
DEFAULT_WINDOW_H = 4
DEFAULT_GRADIENT_THRESHOLD = 2.5  # meters per source pixel


@dataclass
class InterpolationPlan:
    """Exploration output in the image's window layout: each array has
    shape (H // window_h, W // window_w, window_h, window_w - 1), and
    [r, k, i, j] is the site between pixels (v, u) and (v, u + 1), with
    v = r * window_h + i, u = k * window_w + j; ravelled, window-major.
    Invalid sites' fill_value and neighbor_depth come from the raw grid
    values (EMPTY as 0.0): diagnostic only, never applied.
    """

    fill_value: np.ndarray
    neighbor_depth: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return self.valid.size


def check_policy(grad_threshold: float = DEFAULT_GRADIENT_THRESHOLD, max_fills: int | None = None,
                 policy_order: str = ASCENDING) -> None:
    """Raise ValueError unless grad_threshold > 0, max_fills is None
    (no budget) or an integer >= 0, and policy_order is ASCENDING or
    DESCENDING."""
    if policy_order not in (ASCENDING, DESCENDING):
        raise ValueError(f"policy_order must be {ASCENDING!r} or {DESCENDING!r}, got {policy_order!r}")
    if max_fills is not None and not (isinstance(max_fills, (int, np.integer)) and max_fills >= 0):
        raise ValueError(f"max_fills must be an integer >= 0 or None, got {max_fills}")
    if not grad_threshold > 0:
        raise ValueError(f"grad_threshold must be > 0, got {grad_threshold}")


def check_gradient_factors(factor_x: int, factor_y: int) -> None:
    """Raise ValueError unless the factors are (2, 1): the method doubles the width only."""
    if (factor_x, factor_y) != (2, 1):
        raise ValueError(f"gradient interpolation is 2x horizontal only, got factors "
                         f"({factor_x}, {factor_y})")


def check_window(g: RiGeometry, window_w: int, window_h: int) -> None:
    """Raise ValueError unless integer window_w >= 2 and window_h >= 1
    windows tile an image of geometry g."""
    integers = all(isinstance(n, (int, np.integer)) for n in (window_w, window_h))
    if not integers or window_w < 2 or window_h < 1 or g.width % window_w or g.height % window_h:
        raise ValueError(f"window {window_w}x{window_h} does not tile RI {g.width}x{g.height} "
                         f"(window_w must be an integer >= 2 and window_h an integer >= 1)")


def _windows(grid: np.ndarray, window_h: int, window_w: int) -> np.ndarray:
    """The (H // window_h, W // window_w, window_h, window_w) view of an
    H x W grid: [r, k] is the window at window row r, window column k."""
    h, w = grid.shape
    return grid.reshape(h // window_h, window_h, w // window_w, window_w).swapaxes(1, 2)


def explore_windows(
    ri: RangeImage,
    window_w: int = DEFAULT_WINDOW_W,
    window_h: int = DEFAULT_WINDOW_H,
    grad_threshold: float = DEFAULT_GRADIENT_THRESHOLD,
) -> InterpolationPlan:
    """Phase 1: enumerate the candidate sites of every window.

    For the pair (left, right): gradient g = right - left, fill value is
    the midpoint left + g/2, and the neighbor depth is min(left, right).
    """
    check_window(ri.geometry, window_w, window_h)
    check_policy(grad_threshold)

    windows = _windows(ri.depth, window_h, window_w)
    lv, rv = windows[..., :-1], windows[..., 1:]
    grad = rv - lv
    return InterpolationPlan(
        fill_value=lv + grad / 2.0,
        neighbor_depth=np.minimum(lv, rv),
        valid=(lv != EMPTY) & (rv != EMPTY) & (np.abs(grad) <= grad_threshold),
    )


def _budget_mask(plan: InterpolationPlan, max_fills: int, policy_order: str) -> np.ndarray:
    """The valid sites among the first max_fills of their window in
    policy_order."""
    depth = plan.neighbor_depth if policy_order == ASCENDING else -plan.neighbor_depth
    # one row of sites per window, in (row, col) order, which a stable sort keeps for equal keys
    key = np.where(plan.valid, depth, np.inf).reshape(*plan.valid.shape[:2], -1)
    first = np.argsort(key, axis=-1, kind="stable")[..., :max_fills]
    keep = np.zeros(key.shape, dtype=bool)
    np.put_along_axis(keep, first, True, axis=-1)
    return keep.reshape(plan.valid.shape) & plan.valid


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
    rows, cols, window_h, pairs = plan.valid.shape
    planned = (cols * (pairs + 1), rows * window_h)
    if planned != (g.width, g.height):
        raise ValueError(f"plan was built for {planned[0]}x{planned[1]}, RI is {g.width}x{g.height}")

    out = np.empty((g.height, g.width * 2))
    out[:, 0::2] = ri.depth
    apply = plan.valid if max_fills is None else _budget_mask(plan, max_fills, policy_order)
    odd = _windows(out[:, 1::2], window_h, pairs + 1)
    odd[..., :-1] = np.where(apply, plan.fill_value, EMPTY)
    odd[..., -1] = EMPTY
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
