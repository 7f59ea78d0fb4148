"""Axis-aligned intervals/rectangles and the two domination decision criteria.

All comparisons are strict and use p-th powers of distances; roots are never
taken because x^p is monotone on the nonnegatives.  Exact ties therefore never
count as domination, which keeps the criteria conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Interval",
    "Rect",
    "check_norm_order",
    "dominates_optimal",
    "dominates_minmax",
    "rect_min_dist",
    "rect_max_dist",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; degenerate intervals (lo == hi) are points."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


class Rect:
    """Axis-aligned box held as two (d,) arrays of per-dimension bounds.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, intervals: Iterable[Interval]):
        ivs = list(intervals)
        if not ivs:
            raise ValueError("rectangle needs at least one dimension")
        lo = np.array([iv.lo for iv in ivs], dtype=float)
        hi = np.array([iv.hi for iv in ivs], dtype=float)
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Rect is immutable")

    @classmethod
    def from_bounds(cls, lo: Sequence[float], hi: Sequence[float]) -> "Rect":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ValueError("lo/hi must be equal-length 1d sequences")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("rectangle bounds must be finite")
        if (lo > hi).any():
            raise ValueError("rectangle requires lo <= hi in every dimension")
        rect = cls.__new__(cls)
        lo = lo.copy()
        hi = hi.copy()
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(rect, "lo", lo)
        object.__setattr__(rect, "hi", hi)
        return rect

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        return cls.from_bounds(point, point)

    @property
    def ndim(self) -> int:
        return self.lo.size

    @property
    def dims(self) -> tuple[Interval, ...]:
        return tuple(Interval(float(l), float(h)) for l, h in zip(self.lo, self.hi))

    @property
    def is_degenerate(self) -> bool:
        """True when the box is a single point in every dimension."""
        return bool((self.lo == self.hi).all())

    def contains_point(self, point: Sequence[float]) -> bool:
        pt = np.asarray(point, dtype=float)
        return bool((self.lo <= pt).all() and (pt <= self.hi).all())

    def contains_rect(self, other: "Rect") -> bool:
        return bool((self.lo <= other.lo).all() and (other.hi <= self.hi).all())

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


def _check_dims(*rects: Rect):
    d = rects[0].ndim
    for rect in rects[1:]:
        if rect.ndim != d:
            raise ValueError(f"dimension mismatch: {d} vs {rect.ndim}")


def dominates_optimal(a: Rect, b: Rect, r: Rect, p: float = 2.0) -> bool:
    """Decide whether every point of a is closer than every point of b to every point of r.

    Per dimension, the difference MaxDist(a_i, t)^p - MinDist(b_i, t)^p is
    maximised over the two endpoint values t of r's projection interval (the
    maximum over the whole interval is attained at an endpoint); domination
    holds iff the sum over dimensions is strictly negative.  This is tight for
    rectangles, unlike the min/max baseline, because both distances are
    evaluated at the same position of r.
    """
    return _dominates(a, b, r, p, "optimal")


def dominates_minmax(a: Rect, b: Rect, r: Rect, p: float = 2.0) -> bool:
    """Baseline criterion: full-rectangle MaxDist(a, r) < MinDist(b, r).

    Ignores that both distances depend on the same realisation of r, so it is
    implied by (never tighter than) ``dominates_optimal``.
    """
    return _dominates(a, b, r, p, "minmax")


def _dominates(a: Rect, b: Rect, r: Rect, p: float, criterion: str) -> bool:
    _check_dims(a, b, r)
    p = check_norm_order(p)
    return bool(dominance_grid(a.lo[None], a.hi[None], b.lo[None], b.hi[None], r.lo, r.hi, p, criterion)[0, 0])


def rect_min_dist(a: Rect, b: Rect, p: float = 2.0) -> float:
    """Minimum L_p distance between two boxes (0 when they intersect)."""
    _check_dims(a, b)
    p = check_norm_order(p)
    gaps = np.maximum(np.maximum(a.lo - b.hi, b.lo - a.hi), 0.0)
    return float((gaps**p).sum() ** (1.0 / p))


def rect_max_dist(a: Rect, b: Rect, p: float = 2.0) -> float:
    """Maximum L_p distance between two boxes."""
    _check_dims(a, b)
    p = check_norm_order(p)
    spans = np.maximum(b.hi - a.lo, a.hi - b.lo)
    return float((spans**p).sum() ** (1.0 / p))


# ---------------------------------------------------------------------------
# Vectorised kernels: m a-boxes against n b-boxes under one r-box, computed
# on (m,) and (n,) per-dimension columns, with (m, n) results and (m, n)
# temporaries only.  The scalar criteria above are 1x1 calls of these.
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
