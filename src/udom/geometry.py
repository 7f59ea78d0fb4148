"""Axis-aligned rectangles and the two domination decision criteria.

Box a dominates box b with respect to box r when every point of a is closer
than every point of b to every point of r.  The corner-wise ("optimal")
criterion decides this exactly for rectangles: per dimension, the difference
fa_i - nb_i of fa_i = MaxDist(a_i, t)^p and nb_i = MinDist(b_i, t)^p is
maximised over the two endpoints t of r's projection interval (its maximum
over the interval is attained at an endpoint), and domination holds iff the
sum over dimensions is negative.  The min/max baseline compares
full-rectangle MaxDist(a, r) with MinDist(b, r); it ignores that both
distances depend on the same position of r, so it is implied by (never
tighter than) the corner-wise criterion.  One routine forms every such term,
over a corner or over r's interval, for both kernels and the band cells
below; the min/max value adds its far terms and its near terms each in
dimension order.

All comparisons are strict and use p-th powers of distances; roots are never
taken because x^p is monotone on the nonnegatives.  Exact ties therefore never
count as domination, which keeps the criteria conservative.

Under a point reference t both corners of r are t, so the corner-wise value
is V = sum_i (fa_i - nb_i): a dominates b iff a's far key A = sum_i fa_i is
below b's near key B = sum_i nb_i (MinDist/MaxDist pruning).  The kernel adds
the rounded terms fl(fa_i - nb_i) in dimension order; the keys add the same
fa_i and nb_i, in whatever order.  With u = eps / 2 and
gamma_k = k u / (1 - k u), the standard bounds for sums of d terms give
|A - sum fa_i| <= gamma_{d-1} sum fa_i (likewise B) and
|V - (sum fa_i - sum nb_i)| <= gamma_d (sum fa_i + sum nb_i), so V < 0 when
B - A > C (A + B) and V > 0 when A - B > C (A + B), with
C = (gamma_{d-1} + gamma_d) / (1 - gamma_{d-1}), about (2d - 1) u.  Both
tests are run as B > A (1 + s) and B < A (1 - s) with s = 2 d eps, which
covers C and the rounding of the two products; a product that lands among
the subnormals errs by at most half the smallest subnormal, which the
comparison with the float B absorbs (sums and differences of floats round
with relative error at most u, subnormal or not).  So every cell outside the
band A (1 - s) <= B <= A (1 + s) takes the kernel's decision from the keys
alone, and only the band cells get the kernel's sum, from the same terms in
the same order: the mask is the kernel's, bit for bit.  The keys are summed
with overflow ignored; when twice the sum of the largest far key and the
largest near key is not finite the caller runs the kernel, which then raises ValueError
exactly when it would have anyway, and otherwise no partial sum of the kernel
can overflow.  The keys take a box's terms from its two differences t - lo
and hi - t: its near differences are those negated, which floating point
keeps exact, so they are the kernel's terms.

One banded key comparison, `_point_runs`, decides these cells for a stack of
points, each box's key computed once per point and the other side's keys
sorted, so that each box's band is a run of ranks found by binary search.
It has two callers: `dominance_grid` under one point (the MBR filter's and
`classify`'s point q), which reads the mask off the runs, and the point
reference nodes of `udom.domination.pdom_bounds_grid`, which reads the runs
as counts and never forms the grid.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

__all__ = ["Rect", "check_norm_order", "dominance_grid", "rect_min_dist"]


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

    @classmethod
    def _checked(cls, lo: np.ndarray, hi: np.ndarray) -> "Rect":
        """A Rect over read-only float (d,) bounds already known finite with
        ``lo <= hi``, d >= 1: held as given, not copied or checked again."""
        rect = object.__new__(cls)
        object.__setattr__(rect, "lo", lo)
        object.__setattr__(rect, "hi", hi)
        return rect

    @property
    def ndim(self) -> int:
        return self.lo.size

    def __repr__(self):
        pairs = ", ".join(f"[{l:g}, {h:g}]" for l, h in zip(self.lo, self.hi))
        return f"Rect({pairs})"


def check_norm_order(p: float) -> float:
    """Validate an L_p norm order (database-level parameter, default 2); a
    bool is refused, though float() would read True as 1."""
    if isinstance(p, (bool, np.bool_)):
        raise ValueError(f"norm order must be a number, got {p!r}")
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"norm order must satisfy p >= 1, got {p}")
    return p


def _check_count(value, name: str) -> None:
    """Reject a `value` that `operator.index` refuses (2.5, nan, inf), a
    bool, or one below 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def rect_min_dist(a: Rect, b: Rect, p: float = 2.0) -> float:
    """Minimum L_p distance between two boxes (0 when they intersect).  A
    distance whose p-th power overflows raises ValueError, as in the kernel."""
    if a.ndim != b.ndim:
        raise ValueError(f"dimension mismatch: {a.ndim} vs {b.ndim}")
    p = check_norm_order(p)
    return float(_min_dists(a.lo[None], a.hi[None], b, p)[0] ** (1.0 / p))


def _min_dists(lo: np.ndarray, hi: np.ndarray, b: Rect, p: float) -> np.ndarray:
    """The p-th powers of `rect_min_dist` from each box ``[lo[i], hi[i]]`` of
    two (n, d) stacks to `b`, summed with the same operations in the same
    order: one (n,) array, its roots left to the caller."""
    gaps = np.maximum(np.maximum(lo - b.hi, b.lo - hi), 0.0)
    return _no_overflow(lambda: (gaps**p).sum(axis=1))


# Vectorised kernels: m a-boxes against n b-boxes under a (k, d) stack of
# r-boxes, worked one dimension at a time, with (m, n, k) results, entry
# [..., z] under r-box z.  Every cell gets the same float operations in the
# same order whatever m, n and k are, so a stacked call equals k one-box calls
# bit for bit.  Floats one call holds per result cell, for every m, n, k >= 1
# and d: "optimal" holds 3 mnk and one corner's terms, (m + n) k <= 2 mnk (their
# second operands go to a result array not yet in use); "minmax" holds its sums
# and one dimension's terms, 2 (m + n) k, and one second operand, max(m, n) k.
_KERNEL_FLOATS_PER_CELL = 5


def _distance_terms(a_lo, a_hi, b_lo, b_hi, t_lo, t_hi, p, out=(None,) * 4):
    """Every dominance decision's terms, for broadcast bounds and [t_lo, t_hi]
    an interval or a corner (t_lo == t_hi): far = max(t_hi - a_lo, a_hi - t_lo)^p,
    MaxDist(a_i, t)^p, and near = max(b_lo - t_hi, t_lo - b_hi, 0)^p, MinDist(b_i, t)^p.
    `out` may give the arrays of far, near and their second operands."""
    far, near, far_2nd, near_2nd = out
    far = np.subtract(t_hi, a_lo, out=far)
    np.maximum(far, np.subtract(a_hi, t_lo, out=far_2nd), out=far)
    far **= p
    near = np.subtract(b_lo, t_hi, out=near)
    np.maximum(near, np.subtract(t_lo, b_hi, out=near_2nd), out=near)
    np.maximum(near, 0.0, out=near)
    near **= p
    return far, near


def _optimal_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """Criterion values for every (a-box, b-box, r-box) triple: a_lo/a_hi
    (m, d), b_lo/b_hi (n, d) and r_lo/r_hi (k, d) give (m, n, k), a value < 0
    where the a-box dominates the b-box under that r-box.  Per dimension each
    r-corner's terms fill the call's buffers, and the larger corner
    difference is added into the total in dimension order."""
    m, n, k = len(a_lo), len(b_lo), len(r_lo)
    total = np.zeros((m, n, k))
    if total.size == 0:
        return total
    at_lo, at_hi = np.empty_like(total), np.empty_like(total)
    spare = at_hi.reshape(-1)  # free while a corner's terms are formed
    out = np.empty((m, k)), np.empty((n, k)), spare[: m * k].reshape(m, k), spare[: n * k].reshape(n, k)
    for i, corners in enumerate(zip(r_lo.T.copy(), r_hi.T.copy())):  # each corner (k,), contiguous
        boxes = [x[:, i, None] for x in (a_lo, a_hi, b_lo, b_hi)]
        for t, at in zip(corners, (at_lo, at_hi)):
            far, near = _distance_terms(*boxes, t, t, p, out)
            np.subtract(far[:, None], near, out=at)
        total += np.maximum(at_lo, at_hi, out=at_lo)
    return total


def _minmax_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """Same shape contract as _optimal_values_grid for the min/max baseline:
    MaxDist(a, r)^p - MinDist(b, r)^p, each sum added in dimension order."""
    far_sum, near_sum = np.zeros((len(a_lo), len(r_lo))), np.zeros((len(b_lo), len(r_lo)))
    for i in range(r_lo.shape[1]):
        far, near = _distance_terms(*(x[:, i, None] for x in (a_lo, a_hi, b_lo, b_hi)), r_lo[:, i], r_hi[:, i], p)
        far_sum += far
        near_sum += near
    return far_sum[:, None] - near_sum


def _no_overflow(fn, *args):
    """``fn(*args)``, with a float overflow raised as ValueError rather than
    warned: an infinite distance term would decide domination with
    certainty, whichever box is closer."""
    try:
        with np.errstate(over="raise"):
            return fn(*args)
    except FloatingPointError:
        raise ValueError("p-th power distances overflow; rescale the coordinates") from None


def _ranges(heads: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ranges ``heads[i]:ends[i]`` and their offsets in it."""
    offsets = np.concatenate([[0], np.cumsum(ends - heads)])
    return np.repeat(heads - offsets[:-1], ends - heads) + np.arange(offsets[-1]), offsets


def _cuts(cost: np.ndarray, fit: int) -> list[int]:
    """Boundaries of consecutive runs of items, the most whose cost fits
    `fit` (an item over it alone); ``cost[j]`` is the cost of items 0..j-1."""
    cuts = [0]
    while cuts[-1] < cost.size - 1:
        cuts.append(max(cuts[-1] + 1, int(np.searchsorted(cost, cost[cuts[-1]] + fit, side="right")) - 1))
    return cuts


# Floats one band cell of `_point_runs` holds while the kernel's sum decides it.
_BAND_FLOATS_PER_CELL = 16


def _point_runs(a_lo, a_hi, b_lo, b_hi, t, p, reverse=False, band_cells=None):
    """The banded key comparison of m a-boxes against n b-boxes under each
    point of the (k, d) stack t, from the boxes' far and near keys (see the
    module docstring); None when a key's sum may overflow.

    Row z < k of each result is the relation "a-box i dominates b-box j"
    under point z, a's far key against b's near key; with `reverse`, row
    k + z is "b-box j does not dominate a-box i", b's far key against a's
    near key.  Returns the a-boxes' keys in each row's test (rows, m); the
    b-boxes' order by theirs (rows, n); per a-box the run ``start:end``
    (rows, m) of b ranks in that order whose cells lie in the rounding band,
    the relation holding at every rank from `end` on and at none before
    `start`; and the band cells, an iterable of (row, i, j, holds) index
    arrays in row, i, rank order, with `holds` the relation as the kernel's
    value decides it, fl(fa_i - nb_i) added in dimension order from the same
    terms, `band_cells` cells at a time (default: a quarter of m n k), or
    the cells of one a-box if more.  `end` is nondecreasing in the a-box's
    key, so outside the band the a-boxes that hold the relation at a rank
    are those of the smallest keys."""
    (k, d), m = t.shape, len(a_lo)
    lo, hi = np.concatenate([a_lo.T, b_lo.T], axis=1), np.concatenate([a_hi.T, b_hi.T], axis=1)  # (d, m + n)
    col = np.ascontiguousarray(t.T)[..., None]  # (d, k, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        # `_distance_terms` of each box under each point: its near differences
        # are its far ones negated, which floating point keeps exact.
        to_lo, to_hi = col - lo[:, None], hi[:, None] - col  # (d, k, m + n)
        sides = (slice(None), slice(None)) if reverse else (slice(None, m), slice(m, None))  # far, near
        far = (np.maximum(to_lo[..., sides[0]], to_hi[..., sides[0]]) ** p).sum(axis=0)
        gap = np.minimum(to_lo[..., sides[1]], to_hi[..., sides[1]])
        near = (np.maximum(np.negative(gap, out=gap), 0.0, out=gap) ** p).sum(axis=0)
        del to_lo, to_hi, gap
        if not np.isfinite(2.0 * (far.max(initial=0.0) + near.max(initial=0.0))):
            return None
    slack = 2 * d * np.finfo(float).eps
    upper, lower = far * (1.0 + slack), far * (1.0 - slack)  # each far key's band
    a_key = np.concatenate([far[:, :m], near[:, :m]]) if reverse else far
    b_key = np.concatenate([near[:, m:], far[:, m:]]) if reverse else near
    order = b_key.argsort(axis=1)  # ties need no order: they share every count
    start, end = np.empty(a_key.shape, dtype=np.intp), np.empty(a_key.shape, dtype=np.intp)
    for z, rank in enumerate(order):
        if z < k:  # b's near keys against a's bands
            keys = b_key[z, rank]
            start[z], end[z] = keys.searchsorted(lower[z, :m]), keys.searchsorted(upper[z, :m], "right")
        else:  # b's bands, sorted with its far keys, against a's near keys
            start[z] = upper[z - k, m:][rank].searchsorted(a_key[z])
            end[z] = lower[z - k, m:][rank].searchsorted(a_key[z], "right")
    count = (end - start).ravel()
    if not count.any():
        return a_key, order, start, end, ()
    limit = max(1, m * b_key.shape[1] * k // 4) if band_cells is None else band_cells
    return a_key, order, start, end, _band(lo, hi, t, p, order, start.ravel(), end.ravel(), limit)


def _band(lo, hi, t, p, order, start, end, limit):
    """The band cells of `_point_runs`, `limit` at a time: each slice holds
    the cells of consecutive (row, a-box) runs ``start:end`` of b ranks."""
    k, m = len(t), start.size // len(order)
    cuts = _cuts(np.concatenate([[0], (end - start).cumsum()]), limit)
    for s, e in zip(cuts, cuts[1:]):
        ranks, offsets = _ranges(start[s:e], end[s:e])
        if not ranks.size:
            continue
        z, i = np.divmod(np.repeat(np.arange(s, e), np.diff(offsets)), m)
        j = order[z, ranks]
        forward = z < k
        xs, ys, row = np.where(forward, i, m + j), np.where(forward, m + j, i), z % k
        total = np.zeros(ranks.size)  # the kernel's sum, cell by cell
        for x_lo, x_hi, col in zip(lo, hi, t.T):
            fa, nb = _distance_terms(x_lo[xs], x_hi[xs], x_lo[ys], x_hi[ys], col[row], col[row], p)
            total += fa - nb
        yield z, i, j, (total < 0.0) == forward


def _point_reference_mask(a_lo, a_hi, b_lo, b_hi, t, p):
    """The optimal kernel's (m, n, 1) mask under the one point reference t,
    a (1, d) stack, from `_point_runs`, or None when the keys' sums may
    overflow."""
    runs = _point_runs(a_lo, a_hi, b_lo, b_hi, t, p)
    if runs is None:
        return None
    _, (order,), _, (end,), band = runs
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    mask = rank >= end[:, None]
    for _, i, j, holds in band:
        mask[i, j] = holds
    return mask[..., None]


def dominance_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p=2.0, criterion="optimal"):
    """Boolean (m, n, k) array: a-box i dominates b-box j w.r.t. r-box z.

    a_lo/a_hi are (m, d), b_lo/b_hi (n, d) and r_lo/r_hi a (k, d) stack; one
    r-box is a (1, d) stack and gives an (m, n, 1) result.  Boxes whose
    p-th power distances, or their sums, overflow raise ValueError.  An
    "optimal" call whose stack is one point decides each cell from one
    distance key per box, outside a proven rounding band, and sums the
    kernel's terms on the band cells only: the same mask, bit for bit.
    """
    values = {"optimal": _optimal_values_grid, "minmax": _minmax_values_grid}.get(criterion)
    if values is None:
        raise ValueError(f"unknown criterion {criterion!r}")
    if values is _optimal_values_grid and len(r_lo) == 1 and (r_lo == r_hi).all():
        mask = _point_reference_mask(a_lo, a_hi, b_lo, b_hi, r_lo, p)
        if mask is not None:
            return mask
    return _no_overflow(values, a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p) < 0.0
