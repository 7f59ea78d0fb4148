"""Reference formulations the engine's kernels are tested against.

Each function here is a slower or more literal form of an engine kernel, kept
as an oracle: scalar loops over dimensions, the dominance criterion as one
(m, n, d, 2) broadcast, pdom bounds of one candidate frontier at a time, the
UGF expanded on the full (rows, n+1, n+1) grid, extraction as a double loop
over counts and x-degrees, and one IDCA depth evaluated on those two.
"""

import numpy as np

from udom.domination import pdom_bounds_grid
from udom.genfunc import DomCountDistribution
from udom.geometry import Interval, Rect, _minmax_values_grid
from udom.model import FrontierStack


def min_dist_1d(a: Interval, r: float) -> float:
    """Distance from point r to the nearest point of interval a (0 if inside)."""
    return max(a.lo - r, r - a.hi, 0.0)


def max_dist_1d(a: Interval, r: float) -> float:
    """Distance from point r to the farthest point of interval a."""
    return max(r - a.lo, a.hi - r)


def dominates_optimal_loop(a: Rect, b: Rect, r: Rect, p: float = 2.0) -> bool:
    """Corner-wise criterion as a scalar loop: per dimension, the larger of the
    two r-corner differences MaxDist(a_i, t)^p - MinDist(b_i, t)^p, summed."""
    total = 0.0
    for i in range(a.ndim):
        best = -np.inf
        for t in (r.lo[i], r.hi[i]):
            max_a = max(t - a.lo[i], a.hi[i] - t)
            min_b = max(b.lo[i] - t, t - b.hi[i], 0.0)
            best = max(best, max_a**p - min_b**p)
        total += best
    return total < 0.0


def dominates_minmax_loop(a: Rect, b: Rect, r: Rect, p: float = 2.0) -> bool:
    """Min/max baseline as a scalar loop: MaxDist(a, r)^p < MinDist(b, r)^p."""
    maxd = 0.0
    mind = 0.0
    for i in range(a.ndim):
        maxd += max(r.hi[i] - a.lo[i], a.hi[i] - r.lo[i]) ** p
        mind += max(b.lo[i] - r.hi[i], r.lo[i] - b.hi[i], 0.0) ** p
    return maxd < mind


def optimal_values_4d(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """Corner-wise criterion values as one (m, n, d, 2) broadcast: the maximum
    over the two r-corners, then numpy's sum over the d axis."""
    rc = np.stack([r_lo, r_hi], axis=-1)  # (d, 2)
    max_a = np.maximum(rc[None] - a_lo[:, :, None], a_hi[:, :, None] - rc[None]) ** p  # (m, d, 2)
    min_b = np.maximum(np.maximum(b_lo[:, :, None] - rc[None], rc[None] - b_hi[:, :, None]), 0.0) ** p  # (n, d, 2)
    diff = max_a[:, None] - min_b[None]  # (m, n, d, 2)
    return diff.max(axis=3).sum(axis=2)


def pdom_bounds_one(a_lo, a_hi, a_mass, b, r, p=2.0, criterion="optimal"):
    """pdom bounds of one candidate frontier (its node arrays) against every
    (b-node, r-node) pair, as (len(b), len(r)) arrays, one candidate per call."""
    values = optimal_values_4d if criterion == "optimal" else _minmax_values_grid
    lb = np.zeros((len(b), len(r)))
    ub = np.ones((len(b), len(r)))
    for z, (r_lo, r_hi) in enumerate(zip(r.lo, r.hi)):
        dom = values(a_lo, a_hi, b.lo, b.hi, r_lo, r_hi, p) < 0.0
        rev = values(b.lo, b.hi, a_lo, a_hi, r_lo, r_hi, p) < 0.0
        lb[:, z] = a_mass @ dom.astype(float)
        ub[:, z] = 1.0 - rev.astype(float) @ a_mass
    np.minimum(lb, 1.0, out=lb)
    np.maximum(ub, lb, out=ub)
    return lb, ub


def pdom_bounds_stacked(stack, b, r, p=2.0, criterion="optimal"):
    """`pdom_bounds_grid`'s contract, one candidate at a time: each segment of
    the stack is copied out into its own arrays and evaluated alone."""
    parts = [
        pdom_bounds_one(*(np.array(x[s:e]) for x in (stack.lo, stack.hi, stack.mass)), b, r, p, criterion)
        for s, e in zip(stack.seg[:-1], stack.seg[1:])
    ]
    return np.stack([lb for lb, _ in parts]), np.stack([ub for _, ub in parts])


def pdom_bounds_loop(a, b_rect: Rect, r_rect: Rect, p: float = 2.0, depth: int = 1):
    """Scalar pdom bounds: one `dominates_optimal_loop` test per frontier node,
    masses added in node order.  Returns (lb, ub)."""
    f = a.leaves_at_depth(depth)
    lb = 0.0
    dominated_mass = 0.0
    for lo, hi, mass in zip(f.lo, f.hi, f.mass.tolist()):
        node = Rect.from_bounds(lo, hi)
        if dominates_optimal_loop(node, b_rect, r_rect, p):
            lb += mass
        elif dominates_optimal_loop(b_rect, node, r_rect, p):
            dominated_mass += mass
    lb = min(lb, 1.0)
    return lb, max(min(1.0 - dominated_mass, 1.0), lb)


def ugf_expand_batch_dense(plb: np.ndarray, pub: np.ndarray) -> np.ndarray:
    """Expand UGFs for many bound vectors at once.

    plb/pub: (rows, n) arrays.  Returns (rows, n+1, n+1) dense coefficient
    grids indexed [row, x-degree, y-degree].
    """
    rows, n = plb.shape
    f = np.zeros((rows, n + 1, n + 1))
    f[:, 0, 0] = 1.0
    for l in range(n):
        x = plb[:, l, None, None]
        y = (pub[:, l] - plb[:, l])[:, None, None]
        z = (1.0 - pub[:, l])[:, None, None]
        nxt = z * f
        nxt[:, 1:, :] += x * f[:, :-1, :]
        nxt[:, :, 1:] += y * f[:, :, :-1]
        f = nxt
    return f


def extract_batch_loop(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of extract_bounds over dense grids from ugf_expand_batch_dense."""
    rows, size, _ = f.shape
    lb = f[:, :, 0].copy()
    csum = f.cumsum(axis=2)
    total = csum[:, :, -1]
    ub = np.zeros((rows, size))
    for k in range(size):
        acc = np.zeros(rows)
        for i in range(k + 1):
            jmin = k - i
            acc += total[:, i]
            if jmin >= 1:
                acc -= csum[:, i, jmin - 1]
        ub[:, k] = acc
    return lb, np.minimum(ub, 1.0)


def evaluate_depth_dense(cands, b, r, depth, shift, n_total, p, criterion, budget):
    """`idca._evaluate_depth` on the dense kernels above: pairs in chunks of
    ``max(1, budget // (n+1)^2)`` rows, each chunk's weighted bounds added to
    the running mix in chunk order."""
    lb = np.zeros(n_total)
    ub = np.zeros(n_total)
    if not cands:
        lb[shift] = 1.0
        ub[shift] = 1.0
        return DomCountDistribution(lb, ub)

    b_front = b.leaves_at_depth(depth)
    r_front = r.leaves_at_depth(depth)
    n_pairs = len(b_front) * len(r_front)
    n_cands = len(cands)

    stack = FrontierStack.of([cand.leaves_at_depth(depth) for cand in cands])
    plb, pub = (g.reshape(n_cands, n_pairs) for g in pdom_bounds_grid(stack, b_front, r_front, p, criterion))

    pair_w = np.outer(b_front.mass, r_front.mass).ravel()

    mixed_lb = np.zeros(n_cands + 1)
    mixed_ub = np.zeros(n_cands + 1)
    chunk = max(1, budget // ((n_cands + 1) * (n_cands + 1)))
    for start in range(0, n_pairs, chunk):
        sl = slice(start, start + chunk)
        grids = ugf_expand_batch_dense(plb[:, sl].T, pub[:, sl].T)
        pair_lb, pair_ub = extract_batch_loop(grids)
        mixed_lb += pair_w[sl] @ pair_lb
        mixed_ub += pair_w[sl] @ pair_ub

    lb[shift : shift + n_cands + 1] = mixed_lb
    ub[shift : shift + n_cands + 1] = np.minimum(mixed_ub, 1.0)
    return DomCountDistribution(lb, np.maximum(ub, lb))
