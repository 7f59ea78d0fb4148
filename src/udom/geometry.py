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

    @property
    def is_degenerate(self) -> bool:
        """True when the box is a single point in every dimension."""
        return bool((self.lo == self.hi).all())

    def contains_point(self, point: Sequence[float]) -> bool:
        pt = np.asarray(point, dtype=float)
        return bool((self.lo <= pt).all() and (pt <= self.hi).all())

    def __eq__(self, other):
        return (
            isinstance(other, Rect)
            and self.lo.shape == other.lo.shape
            and (self.lo == other.lo).all()
            and (self.hi == other.hi).all()
        )

    def __hash__(self):
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self):
        pairs = ", ".join(f"[{l:g}, {h:g}]" for l, h in zip(self.lo, self.hi))
        return f"Rect({pairs})"


def check_norm_order(p: float) -> float:
    """Validate an L_p norm order (database-level parameter, default 2)."""
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"norm order must satisfy p >= 1, got {p}")
    return p


def rect_min_dist(a: Rect, b: Rect, p: float = 2.0) -> float:
    """Minimum L_p distance between two boxes (0 when they intersect)."""
    if a.ndim != b.ndim:
        raise ValueError(f"dimension mismatch: {a.ndim} vs {b.ndim}")
    p = check_norm_order(p)
    gaps = np.maximum(np.maximum(a.lo - b.hi, b.lo - a.hi), 0.0)
    return float((gaps**p).sum() ** (1.0 / p))


# ---------------------------------------------------------------------------
# Vectorised kernels: m a-boxes against n b-boxes under one r-box, computed
# on (m,) and (n,) per-dimension columns, with (m, n) results and (m, n)
# temporaries only.
# ---------------------------------------------------------------------------


def _optimal_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """Criterion values for every (a-box, b-box) pair under one r-box.

    a_lo/a_hi: (m, d); b_lo/b_hi: (n, d); r_lo/r_hi: (d,).
    Returns (m, n); a value < 0 means the a-box dominates the b-box.  Per
    dimension the larger of the two r-corner (m, n) differences is added
    into the total in dimension order; peak temporary: three (m, n) arrays.
    """
    rc = np.stack([r_lo, r_hi])[:, :, None]  # (2, d, 1): lower and upper r-corner
    max_a = np.maximum(rc - a_lo.T, a_hi.T - rc) ** p  # (2, d, m)
    min_b = np.maximum(np.maximum(b_lo.T - rc, rc - b_hi.T), 0.0) ** p  # (2, d, n)
    total = np.zeros((a_lo.shape[0], b_lo.shape[0]))
    at_lo, at_hi = np.empty_like(total), np.empty_like(total)
    for i in range(rc.shape[1]):
        np.subtract(max_a[0, i, :, None], min_b[0, i], out=at_lo)
        np.subtract(max_a[1, i, :, None], min_b[1, i], out=at_hi)
        total += np.maximum(at_lo, at_hi, out=at_lo)
    return total


def _minmax_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """Same shape contract as _optimal_values_grid for the min/max baseline."""
    max_a = (np.maximum(r_hi[None] - a_lo, a_hi - r_lo[None]) ** p).sum(axis=1)  # (m,)
    min_b = (np.maximum(np.maximum(b_lo - r_hi[None], r_lo[None] - b_hi), 0.0) ** p).sum(axis=1)  # (n,)
    return max_a[:, None] - min_b[None]


def dominance_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p=2.0, criterion="optimal"):
    """Boolean (m, n) matrix: a-box i dominates b-box j w.r.t. the given r-box."""
    if criterion == "optimal":
        vals = _optimal_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p)
    elif criterion == "minmax":
        vals = _minmax_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return vals < 0.0
