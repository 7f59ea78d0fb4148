"""Axis-aligned rectangles and the two domination decision criteria.

Box a dominates box b with respect to box r when every point of a is closer
than every point of b to every point of r.  The corner-wise ("optimal")
criterion decides this exactly for rectangles: per dimension, the difference
MaxDist(a_i, t)^p - MinDist(b_i, t)^p is maximised over the two endpoints t
of r's projection interval (its maximum over the interval is attained at an
endpoint), and domination holds iff the sum over dimensions is negative.
The min/max baseline compares full-rectangle MaxDist(a, r) with
MinDist(b, r); it ignores that both distances depend on the same position of
r, so it is implied by (never tighter than) the corner-wise criterion.

All comparisons are strict and use p-th powers of distances; roots are never
taken because x^p is monotone on the nonnegatives.  Exact ties therefore never
count as domination, which keeps the criteria conservative.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

__all__ = [
    "Rect",
    "check_norm_order",
    "dominance_grid",
    "rect_min_dist",
]


class Rect:
    """Axis-aligned box held as two read-only (d,) arrays of per-dimension
    bounds; ``lo == hi`` in a dimension is a point there.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo = np.array(lo, dtype=float)
        hi = np.array(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ValueError("lo/hi must be equal-length non-empty 1d sequences")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("rectangle bounds must be finite")
        if (lo > hi).any():
            raise ValueError("rectangle requires lo <= hi in every dimension")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Rect is immutable")

    @property
    def ndim(self) -> int:
        return self.lo.size

    def __repr__(self):
        pairs = ", ".join(f"[{l:g}, {h:g}]" for l, h in zip(self.lo, self.hi))
        return f"Rect({pairs})"


def check_norm_order(p: float) -> float:
    """Validate an L_p norm order (database-level parameter, default 2)."""
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"norm order must satisfy p >= 1, got {p}")
    return p


def _check_count(value, name: str) -> None:
    """Reject a `value` that `operator.index` refuses (2.5, nan, inf) or below 1."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def rect_min_dist(a: Rect, b: Rect, p: float = 2.0) -> float:
    """Minimum L_p distance between two boxes (0 when they intersect)."""
    if a.ndim != b.ndim:
        raise ValueError(f"dimension mismatch: {a.ndim} vs {b.ndim}")
    p = check_norm_order(p)
    gaps = np.maximum(np.maximum(a.lo - b.hi, b.lo - a.hi), 0.0)
    return float((gaps**p).sum() ** (1.0 / p))


# ---------------------------------------------------------------------------
# Vectorised kernels: m a-boxes against n b-boxes under a (k, d) stack of
# r-boxes, computed on per-dimension columns, with (m, n, k) results, entry
# [..., z] under r-box z.  Every cell gets the same float operations in the
# same order whatever m, n and k are, so a stacked call equals k one-box calls
# bit for bit.
# ---------------------------------------------------------------------------


def _kernel_floats_per_cell(d: int) -> int:
    """Bound on one kernel call's float temporaries per (m, n, k) result cell: three
    result-sized arrays and 2d(m + n)k r-corner distances (2d per cell once m, n >= 2)."""
    return 2 * d + 3


def _optimal_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """Criterion values for every (a-box, b-box, r-box) triple.

    a_lo/a_hi: (m, d); b_lo/b_hi: (n, d); r_lo/r_hi: (k, d).  Returns
    (m, n, k); a value < 0 means the a-box dominates the b-box under that
    r-box.  Per dimension the larger of the two r-corner differences is added
    into the total in dimension order.
    """
    a_lo, a_hi, b_lo, b_hi = (x.T[..., None] for x in (a_lo, a_hi, b_lo, b_hi))  # (d, m, 1), (d, n, 1)
    # (2, d, 1, k): lower and upper r-corner, r-boxes contiguous so that they are the inner loop
    rc = np.ascontiguousarray(np.stack([r_lo.T, r_hi.T]))[:, :, None]
    max_a = rc - a_lo  # (2, d, m, k), worked in place
    np.maximum(max_a, a_hi - rc, out=max_a)
    max_a **= p
    min_b = b_lo - rc  # (2, d, n, k)
    np.maximum(min_b, rc - b_hi, out=min_b)
    np.maximum(min_b, 0.0, out=min_b)
    min_b **= p
    total = np.zeros(max_a.shape[2:3] + min_b.shape[2:])
    at_lo, at_hi = np.empty_like(total), np.empty_like(total)
    for i in range(rc.shape[1]):
        np.subtract(max_a[0, i, :, None], min_b[0, i], out=at_lo)
        np.subtract(max_a[1, i, :, None], min_b[1, i], out=at_hi)
        total += np.maximum(at_lo, at_hi, out=at_lo)
    return total


def _minmax_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """Same shape contract as _optimal_values_grid for the min/max baseline."""
    max_a = (np.maximum(r_hi - a_lo[:, None], a_hi[:, None] - r_lo) ** p).sum(axis=-1)  # (m, k)
    min_b = (np.maximum(np.maximum(b_lo[:, None] - r_hi, r_lo - b_hi[:, None]), 0.0) ** p).sum(axis=-1)  # (n, k)
    return max_a[:, None] - min_b[None]


def _no_overflow(fn, *args):
    """``fn(*args)``, with a float overflow raised as ValueError rather than
    warned: an infinite distance term would decide domination with
    certainty, whichever box is closer."""
    try:
        with np.errstate(over="raise"):
            return fn(*args)
    except FloatingPointError:
        raise ValueError("p-th power distances overflow; rescale the coordinates") from None


def dominance_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p=2.0, criterion="optimal"):
    """Boolean (m, n, k) array: a-box i dominates b-box j w.r.t. r-box z.

    a_lo/a_hi are (m, d), b_lo/b_hi (n, d) and r_lo/r_hi a (k, d) stack; one
    r-box is a (1, d) stack and gives an (m, n, 1) result.  Boxes whose
    p-th power distances, or their sums, overflow raise ValueError.
    """
    if criterion == "optimal":
        values = _optimal_values_grid
    elif criterion == "minmax":
        values = _minmax_values_grid
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return _no_overflow(values, a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p) < 0.0
