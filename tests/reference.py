"""Reference formulations the engine's kernels are tested against.

Each function here is a slower or more literal form of an engine kernel, kept
as an oracle: scalar loops over dimensions, one cell of the dominance kernel
for a single box triple, the dominance criterion as one (m, n, d, 2)
broadcast, pdom bounds of one candidate frontier at a time, the UGF as a
sparse product over one bound list (optionally k-truncated) and on the full
(rows, n+1, n+1) grid, extraction as a double loop over counts and
x-degrees, the looser plain-GF bounds, and one IDCA depth evaluated on the
dense kernels.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from udom.domination import pdom_bounds_grid
from udom.genfunc import DomCountDistribution, _gf_affine
from udom.geometry import Rect, _minmax_values_grid, dominance_grid
from udom.model import FrontierStack


def min_dist_1d(lo: float, hi: float, r: float) -> float:
    """Distance from point r to the nearest point of [lo, hi] (0 if inside)."""
    return max(lo - r, r - hi, 0.0)


def max_dist_1d(lo: float, hi: float, r: float) -> float:
    """Distance from point r to the farthest point of [lo, hi]."""
    return max(r - lo, hi - r)


def dominates_optimal(a: Rect, b: Rect, r: Rect, p: float = 2.0) -> bool:
    """The engine's corner-wise `dominance_grid` for one (a, b) pair under r."""
    return bool(dominance_grid(a.lo[None], a.hi[None], b.lo[None], b.hi[None], r.lo, r.hi, p)[0, 0])


def dominates_minmax(a: Rect, b: Rect, r: Rect, p: float = 2.0) -> bool:
    """The engine's min/max `dominance_grid` for one (a, b) pair under r."""
    return bool(dominance_grid(a.lo[None], a.hi[None], b.lo[None], b.hi[None], r.lo, r.hi, p, "minmax")[0, 0])


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
        node = Rect(lo, hi)
        if dominates_optimal_loop(node, b_rect, r_rect, p):
            lb += mass
        elif dominates_optimal_loop(b_rect, node, r_rect, p):
            dominated_mass += mass
    lb = min(lb, 1.0)
    return lb, max(min(1.0 - dominated_mass, 1.0), lb)


@dataclass(frozen=True)
class UGFPoly:
    """Sparse bivariate polynomial keyed by (x-degree, y-degree)."""

    coeffs: dict
    n_factors: int

    def coefficient(self, i: int, j: int) -> float:
        return self.coeffs.get((i, j), 0.0)

    def total_mass(self) -> float:
        return float(sum(self.coeffs.values()))


def _multiply_factor(coeffs, x, y, z, truncate_at):
    """One incremental step F^l = F^(l-1) * (x*X + y*Y + z).

    Source keys are visited in sorted order so accumulation is deterministic.
    With truncation k, targets with x-degree >= k are dropped and targets with
    total degree > k are merged into the bucket (i, k + 1 - i); bucketed mass
    only ever influences upper bounds for counts < k, where any representative
    with total degree > k acts identically.
    """
    out: dict = {}
    for key in sorted(coeffs):
        v = coeffs[key]
        i, j = key
        for di, dj, f in ((1, 0, x), (0, 1, y), (0, 0, z)):
            if f == 0.0:
                continue
            ti, tj = i + di, j + dj
            if truncate_at is not None:
                if ti >= truncate_at:
                    continue
                if ti + tj > truncate_at:
                    tj = truncate_at + 1 - ti
            out[(ti, tj)] = out.get((ti, tj), 0.0) + v * f
    return out


def ugf_expand(bounds, truncate_at: Optional[int] = None) -> UGFPoly:
    """The product of p_lb*x + (p_ub - p_lb)*y + (1 - p_ub) over the
    (p_lb, p_ub) pairs, one factor at a time.

    With ``truncate_at = k`` the result is only meaningful for counts below k:
    extracted bounds for those counts match the untruncated expansion, and the
    number of stored coefficients stays O(k^2) per step.
    """
    bounds = list(bounds)
    coeffs = {(0, 0): 1.0}
    for lb, ub in bounds:
        coeffs = _multiply_factor(coeffs, lb, ub - lb, 1.0 - ub, truncate_at)
    return UGFPoly(coeffs=coeffs, n_factors=len(bounds))


def extract_bounds(poly: UGFPoly, n: Optional[int] = None) -> DomCountDistribution:
    """Count bounds for counts 0..n: lb[k] = c[k, 0] and ub[k] sums c[i, j]
    over i <= k <= i + j.  A truncated polynomial has valid bounds only for
    counts below the truncation point."""
    if n is None:
        n = poly.n_factors
    items = sorted(poly.coeffs.items())
    lb = np.zeros(n + 1)
    ub = np.zeros(n + 1)
    for k in range(n + 1):
        lb[k] = poly.coeffs.get((k, 0), 0.0)
        ub[k] = sum(v for (i, j), v in items if i <= k <= i + j)
    return DomCountDistribution(lb, ub)


def gf_bounds_plain(bounds) -> DomCountDistribution:
    """Count bounds from two plain univariate products instead of one UGF.

    The lower product prod(p_lb*x + (1 - p_ub)) gives exactly the UGF lower
    bounds.  The upper product prod(p_ub*x + (1 - p_lb)) double-counts the
    unresolved fraction on both sides, so its coefficients are valid but in
    general looser than the UGF upper bounds (and may exceed 1 on very wide
    bounds; such values are kept raw, not clamped).
    """
    plb = np.array([lb for lb, _ in bounds], dtype=float)
    pub = np.array([ub for _, ub in bounds], dtype=float)
    return DomCountDistribution(_gf_affine(plb, 1.0 - pub), _gf_affine(pub, 1.0 - plb))


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
    """`extract_bounds` for every row of dense grids from ugf_expand_batch_dense."""
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
