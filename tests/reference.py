"""Reference formulations the engine's kernels are tested against.

Each function here is a slower or more literal form of an engine kernel, kept
as an oracle: scalar loops over dimensions, one cell of the dominance kernel
for a single box triple, the dominance criterion as one (m, n, d, 2)
broadcast, pdom bounds of one candidate frontier at a time, the UGF as a
sparse product over one bound list (optionally k-truncated) and on the full
(rows, n+1, n+1) grid, extraction as a double loop over counts and
x-degrees, the looser plain-GF bounds from two univariate products, one IDCA
depth evaluated on the dense kernels, and the query drivers as one full
`idca` run per target.  Earlier forms are kept too: the dominance kernels'
corner arrays of every p-th power and min/max sums over the last axis, and
pdom bounds as one forward and one reverse kernel call per r-node.
The synthetic generator is kept as three draws and one `UncertainObject` per
object, the jsonl reader and writer as one (point, weight) pair per sample,
and the bench's pair rule as a sort whose key takes the one-pair MinDist once
per object.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from udom.domination import others, pdom_bounds_grid
from udom.genfunc import DomCountDistribution
from udom.geometry import Rect, _minmax_values_grid, dominance_grid
from udom.idca import idca
from udom.model import DatasetError, UncertainObject, _append_checked, build_object
from udom.queries import ObjectDecision, QueryPredicate, expected_rank_interval, knn_probability_bounds


def min_dist_1d(lo: float, hi: float, r: float) -> float:
    """Distance from point r to the nearest point of [lo, hi] (0 if inside)."""
    return max(lo - r, r - hi, 0.0)


def max_dist_1d(lo: float, hi: float, r: float) -> float:
    """Distance from point r to the farthest point of [lo, hi]."""
    return max(r - lo, hi - r)


def rect_min_dist_scalar(a: Rect, b: Rect, p: float = 2.0) -> float:
    """`rect_min_dist` on one pair of (d,) bounds: the p-th powers of the
    gaps summed as one vector, then the root of the numpy scalar."""
    gaps = np.maximum(np.maximum(a.lo - b.hi, b.lo - a.hi), 0.0)
    return float((gaps**p).sum() ** (1.0 / p))


def dominates_optimal(a: Rect, b: Rect, r: Rect, p: float = 2.0) -> bool:
    """The engine's corner-wise `dominance_grid` for one (a, b) pair under r."""
    return bool(dominance_grid(a.lo[None], a.hi[None], b.lo[None], b.hi[None], r.lo[None], r.hi[None], p)[0, 0, 0])


def dominates_minmax(a: Rect, b: Rect, r: Rect, p: float = 2.0) -> bool:
    """The engine's min/max `dominance_grid` for one (a, b) pair under r."""
    return bool(
        dominance_grid(a.lo[None], a.hi[None], b.lo[None], b.hi[None], r.lo[None], r.hi[None], p, "minmax")[0, 0, 0]
    )


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


def optimal_values_corners(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """The corner-wise kernel as it stood before its dimension loop formed
    one corner's terms at a time: (2, d, m, k) and (2, d, n, k) corner
    arrays of every p-th power, then the same dimension-order total."""
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


def minmax_values_last_axis(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """The min/max kernel as it stood before it added one dimension at a
    time: numpy's sum over the last (d) axis, sequential below 8 terms and
    pairwise from 8 on, so the last bits may differ from d = 8."""
    max_a = (np.maximum(r_hi - a_lo[:, None], a_hi[:, None] - r_lo) ** p).sum(axis=-1)  # (m, k)
    min_b = (np.maximum(np.maximum(b_lo[:, None] - r_hi, r_lo - b_hi[:, None]), 0.0) ** p).sum(axis=-1)  # (n, k)
    return max_a[:, None] - min_b[None]


def minmax_values_dimension_order(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """The same terms as `minmax_values_last_axis`, each sum added in
    dimension order, as `dominates_minmax_loop` adds them."""
    max_a = np.maximum(r_hi - a_lo[:, None], a_hi[:, None] - r_lo) ** p  # (m, k, d)
    min_b = np.maximum(np.maximum(b_lo[:, None] - r_hi, r_lo - b_hi[:, None]), 0.0) ** p  # (n, k, d)
    far, near = np.zeros(max_a.shape[:2]), np.zeros(min_b.shape[:2])
    for i in range(max_a.shape[2]):
        far += max_a[..., i]
        near += min_b[..., i]
    return far[:, None] - near[None]


def minmax_values_one(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p):
    """The engine's min/max values under one r-box, passed as a one-box stack: (m, n)."""
    return _minmax_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo[None], r_hi[None], p)[..., 0]


def pdom_bounds_one(a_lo, a_hi, a_mass, b, r, p=2.0, criterion="optimal"):
    """pdom bounds of one candidate frontier (its node arrays) against every
    (b-node, r-node) pair, as (len(b), len(r)) arrays, one candidate per call.
    Its node masses are added by the engine's reduction, `np.add.reduceat`
    over one segment, whose order of additions is numpy's own (not left to
    right), so a stack can be compared with each candidate alone bit for bit."""
    values = optimal_values_4d if criterion == "optimal" else minmax_values_one
    lb = np.zeros((len(b), len(r)))
    ub = np.ones((len(b), len(r)))
    for z, (r_lo, r_hi) in enumerate(zip(r.lo, r.hi)):
        dom = values(a_lo, a_hi, b.lo, b.hi, r_lo, r_hi, p) < 0.0
        rev = values(b.lo, b.hi, a_lo, a_hi, r_lo, r_hi, p) < 0.0
        lb[:, z] = np.add.reduceat(a_mass[:, None] * dom, [0])[0]
        ub[:, z] = np.add.reduceat(a_mass[:, None] * ~rev.T, [0])[0]
    np.minimum(lb, 1.0, out=lb)
    np.minimum(ub, 1.0, out=ub)
    return lb, ub


def pdom_bounds_stacked(stack, b, r, p=2.0, criterion="optimal"):
    """`pdom_bounds_grid`'s contract, one candidate at a time: each segment of
    the stack is copied out into its own arrays and evaluated alone."""
    parts = [
        pdom_bounds_one(*(np.array(x[s:e]) for x in (stack.lo, stack.hi, stack.mass)), b, r, p, criterion)
        for s, e in zip(stack.seg[:-1], stack.seg[1:])
    ]
    return np.stack([lb for lb, _ in parts]), np.stack([ub for _, ub in parts])


def pdom_bounds_per_r_node(a, b, r, p=2.0, criterion="optimal"):
    """`pdom_bounds_grid` one r-node at a time: two `dominance_grid` calls
    over a one-box stack and two `np.add.reduceat` per r-node."""
    lb = np.empty((a.seg.size - 1, len(b), len(r)))
    ub = np.empty((a.seg.size - 1, len(b), len(r)))
    mass = a.mass[:, None]
    for z, (r_lo, r_hi) in enumerate(zip(r.lo[:, None], r.hi[:, None])):  # one-box stacks
        dom = dominance_grid(a.lo, a.hi, b.lo, b.hi, r_lo, r_hi, p, criterion)[..., 0]
        rev = dominance_grid(b.lo, b.hi, a.lo, a.hi, r_lo, r_hi, p, criterion)[..., 0]
        lb[:, :, z] = np.add.reduceat(mass * dom, a.seg[:-1])
        ub[:, :, z] = np.add.reduceat(mass * ~rev.T, a.seg[:-1])
    np.minimum(lb, 1.0, out=lb)
    np.minimum(ub, 1.0, out=ub)
    return lb, ub


def pdom_bounds_loop(f, b_rect: Rect, r_rect: Rect, p: float = 2.0):
    """Scalar pdom bounds of a candidate's frontier `f` (a one-object
    level): one `dominates_optimal_loop` test per node, masses added in node
    order.  Returns (lb, ub)."""
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


def _gf_affine(x_coeffs: np.ndarray, const_coeffs: np.ndarray) -> np.ndarray:
    """Expand prod_i (x_coeffs[i] * x + const_coeffs[i]); returns n+1 coefficients."""
    c = np.array([1.0])
    for xc, cc in zip(x_coeffs, const_coeffs):
        nxt = np.zeros(c.size + 1)
        nxt[:-1] += c * cc
        nxt[1:] += c * xc
        c = nxt
    return c


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


def evaluate_depth_dense(level, n_cands, shift, n_total, p, criterion, budget):
    """`idca._evaluate_depth` on the dense kernels above: pairs expanded in
    chunks of ``max(1, budget // (n+1)^2)`` rows, then mixed in one weighted
    product over every pair.  `level` is a frontier of the forest of
    ``[*cands, b, r]``, with at least one candidate."""
    b_front = level.take(np.array([n_cands]))
    r_front = level.take(np.array([n_cands + 1]))
    n_pairs = len(b_front) * len(r_front)

    stack = level.take(np.arange(n_cands))
    plb, pub = (g.reshape(n_cands, n_pairs) for g in pdom_bounds_grid(stack, b_front, r_front, p, criterion))

    pair_w = np.outer(b_front.mass, r_front.mass).ravel()

    chunk = max(1, budget // ((n_cands + 1) * (n_cands + 1)))
    chunks = [
        extract_batch_loop(ugf_expand_batch_dense(plb[:, s : s + chunk].T, pub[:, s : s + chunk].T))
        for s in range(0, n_pairs, chunk)
    ]
    pair_lb, pair_ub = (np.concatenate(g) for g in zip(*chunks))

    lb = np.zeros(n_total)
    ub = np.zeros(n_total)
    lb[shift : shift + n_cands + 1] = pair_w @ pair_lb
    ub[shift : shift + n_cands + 1] = np.minimum(pair_w @ pair_ub, 1.0)
    return DomCountDistribution(lb, np.maximum(ub, lb))


def per_target(db, q, roles, **engine_kwargs):
    """One full `idca` run, its own classification included, per database
    object other than q, in str(id) order: (target, result) pairs.  Roles
    "knn" make each target b and q the reference; "rknn" swap them."""
    for target in sorted(others(db, q), key=lambda o: str(o.id)):
        b, r = (target, q) if roles == "knn" else (q, target)
        yield target, idca(db, b, r, **engine_kwargs)


def threshold_query_per_target(kind, db, q, k, tau, **engine_kwargs):
    """`pknn_query` ("knn") or `prknn_query` ("rknn") decisions from `per_target`."""
    predicate = QueryPredicate(kind, k, tau)
    decisions = []
    for target, result in per_target(db, q, kind, decide=predicate.decide, **engine_kwargs):
        bounds = knn_probability_bounds(result.distribution, k)
        verdict = predicate.decide(result.distribution) or "undecided"
        decisions.append(
            ObjectDecision(target.id, verdict, bounds.lb, bounds.ub, result.iterations_run, result.stop_reason)
        )
    return decisions


def expected_rank_per_target(db, q, **engine_kwargs):
    """`expected_rank` from `per_target`."""
    return [(t.id, *expected_rank_interval(res.distribution)) for t, res in per_target(db, q, "knn", **engine_kwargs)]


def generate_synthetic_loop(n, d, max_extent, samples_per_object, seed):
    """`generate_synthetic` object by object: per object an anchor draw, an
    extent draw and a sample draw, built by `UncertainObject`."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        anchor = rng.uniform(0.0, 1.0, size=d)
        extent = (1.0 - rng.uniform(0.0, 1.0, size=d)) * max_extent
        pts = anchor + rng.uniform(0.0, 1.0, size=(samples_per_object, d)) * extent
        wts = np.full(samples_per_object, 1.0 / samples_per_object)
        objects.append(UncertainObject(i, pts, wts))
    return objects


def load_jsonl_pairs(path) -> list[UncertainObject]:
    """`load_dataset` on a jsonl file in a loop of its own, every sample a
    (point, weight) pair through `build_object`."""
    objects: list[UncertainObject] = []
    lines: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            try:
                obj_id = row["id"]
                hash(obj_id)  # ids key dicts downstream; a list or object id is malformed
                raw = row["samples"]
                for value in (v for entry in raw for v in entry):  # true or "0.5" would pass as floats
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise ValueError(f"sample value {json.dumps(value)} is not a number")
                samples = [(entry[:-1], entry[-1]) for entry in raw]
                obj = build_object(obj_id, samples)
            except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past the float range
                raise DatasetError(f"line {lineno}: {exc}") from exc
            _append_checked(objects, lines, obj, lineno)
    if not objects:
        raise DatasetError("dataset is empty")
    return objects


def save_dataset_jsonl_pairs(objects, path):
    """`save_dataset_jsonl` one (point, weight) pair at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            samples = [[*map(float, pt), float(w)] for pt, w in zip(obj.points, obj.weights)]
            fh.write(json.dumps({"id": obj.id, "samples": samples}) + "\n")


def select_query_pair_sorted(db, rng, m: int):
    """`select_query_pair` as one sort of the other objects by
    (`rect_min_dist_scalar`, str(id)), one distance call per object."""
    if m < 1:
        raise ValueError("target rank m must be >= 1")
    if len(db) < 2:
        raise ValueError("a target and a reference need a database of at least two objects")
    ref = db[int(rng.integers(0, len(db)))]
    rest = others(db, ref)
    rest.sort(key=lambda o: (rect_min_dist_scalar(o.mbr, ref.mbr), str(o.id)))
    target = rest[min(m - 1, len(rest) - 1)]
    return target, ref
