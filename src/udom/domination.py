"""Candidate classification and decomposition-based domination probability bounds.

Bounds are always computed against one fixed (target-node, reference-node)
pair: decomposing the target or reference jointly with several candidates
couples their domination events, so the API takes node rectangles (never a
whole object) for those two roles.  Only the candidate side is enumerated over
its decomposition frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .geometry import _BAND_FLOATS_PER_CELL, _KERNEL_FLOATS_PER_CELL, _cuts, _point_runs, check_norm_order, dominance_grid
from .model import Frontier, UncertainObject

__all__ = [
    "ProbBounds",
    "DominationClassification",
    "classify",
    "pdom_bounds_grid",
]

# Cap on floats held by one batched chunk (~128 MB of float64): one chunk of
# targets in `_target_labels`.  A 64th of it (`_cap`) caps one
# `pdom_bounds_grid` kernel call, r-chunk and all, and a batch's histories.
_BATCH_FLOAT_BUDGET = 1 << 24


def _cap() -> int:
    """Floats that one `pdom_bounds_grid` kernel call, of candidate nodes x
    target nodes x the r-nodes of one r-chunk at `_KERNEL_FLOATS_PER_CELL`
    floats a cell, or one batch's histories may hold: a 64th of
    `_BATCH_FLOAT_BUDGET` (~2 MB), so many small runs share a batch and
    many small r-nodes a kernel call while memory stays bounded."""
    return _BATCH_FLOAT_BUDGET >> 6


# Floats the point pass of `pdom_bounds_grid` holds per point r-node, at any
# d: _POINT_FLOATS_PER_ROOT x (target nodes + 2 + the widest root's nodes)
# per root of its cut, and 5 d + _POINT_FLOATS_PER_NODE per candidate node
# and per target node (`test_pdom_bounds_grid_peak_memory_fits_the_cap`).
_POINT_FLOATS_PER_ROOT = 9
_POINT_FLOATS_PER_NODE = 8


@dataclass(frozen=True)
class ProbBounds:
    """Probability interval [lb, ub] for one domination relation."""

    lb: float
    ub: float

    def __post_init__(self):
        if not (-1e-12 <= self.lb <= self.ub + 1e-12 and self.ub <= 1.0 + 1e-12):
            raise ValueError(f"invalid probability bounds ({self.lb}, {self.ub})")


@dataclass(frozen=True)
class DominationClassification:
    """Split of the database relative to a target b and reference r.

    ``complete_dominators`` are closer than b to r in every possible world,
    ``irrelevant`` objects in none; both are only counted, so they hold ids
    and a kept result never keeps the database alive.  ``influence_objects``,
    undecided by the MBRs and the refinement candidates, are the database
    objects themselves.  Groups keep database order and exclude b and r (`others`).
    """

    complete_dominators: tuple
    influence_objects: tuple
    irrelevant: tuple

    @property
    def complete_domination_count(self) -> int:
        return len(self.complete_dominators)


def others(db: Sequence[UncertainObject], *exclude: UncertainObject) -> list[UncertainObject]:
    """The database objects other than `exclude`, in database order.

    Identity is the Python object, so an external object whose id equals a
    database id excludes nothing.  Ids still label answers, so repeated
    database ids raise ValueError, as do objects of differing dimensionality
    and b and r as one object, which has one position a world, not two.
    """
    if len({o.id for o in db}) != len(db):
        raise ValueError("database object ids must be unique")
    if len({id(o) for o in exclude}) != len(exclude):
        raise ValueError("the target and the reference must be different objects")
    if len({o.mbr.lo.size for o in (*db, *exclude)}) > 1:
        raise ValueError("dimension mismatch between database, target and reference")
    skip = {id(o) for o in exclude}
    return [o for o in db if id(o) not in skip]


def _pdf_length(db: Sequence[UncertainObject], b: UncertainObject) -> int:
    """Length of b's count PDF: one slot per database object other than b, plus one."""
    return len(db) + 1 - any(o is b for o in db)


def _target_labels(objs, order, q, roles, p, criterion) -> Iterator[tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Split every object of `objs` against each target in `order` (row
    indices), q fixed: role "knn" makes the target b and q the reference,
    "rknn" makes q b and the target the reference.  An object that dominates
    b is a complete dominator, one that b dominates is irrelevant, any other
    an influence object.  The MBRs are stacked once and the targets split in
    chunks within `_BATCH_FLOAT_BUDGET` at `_KERNEL_FLOATS_PER_CELL` floats a
    grid cell, at any d, kNN (·, chunk, 1) and RkNN (·, 1, chunk) grids
    alike, each by one forward and one reverse kernel call; a kNN chunk of
    every object makes the forward grid square, so its transpose is the
    reverse grid, both gathered in chunk order.  Yields per chunk: its row
    indices, per target its complete-dominator count s and its influence
    count m, and the (len(objs), chunk) bool masks of complete dominators
    and of influence objects, each target's own row False in both (an
    irrelevant object is in neither).  Every MBR split of the package comes
    from here (`classify` is the one-target pass)."""
    lo, hi = (np.concatenate([getattr(o.mbr, side) for o in objs]).reshape(len(objs), -1) for side in ("lo", "hi"))
    one = q.mbr.lo[None], q.mbr.hi[None]
    chunk = max(1, _BATCH_FLOAT_BUDGET // (_KERNEL_FLOATS_PER_CELL * len(objs)))
    for start in range(0, len(order), chunk):
        cols = order[start : start + chunk]
        square = roles == "knn" and len(cols) == len(objs)
        stack = (lo, hi) if square else (lo[cols], hi[cols])
        b, r = (stack, one) if roles == "knn" else (one, stack)
        dom = dominance_grid(lo, hi, *b, *r, p, criterion).reshape(len(objs), -1)
        if square:
            dom, rev = dom[:, cols], dom.T[:, cols]
        else:
            rev = dominance_grid(*b, lo, hi, *r, p, criterion).swapaxes(0, 1).reshape(len(objs), -1)
        influence = ~(dom | rev)
        own = cols, np.arange(len(cols))
        dom[own] = influence[own] = False  # an RkNN point target dominates q under its own box
        yield cols, dom.sum(axis=0), influence.sum(axis=0), dom, influence


def classify(
    db: Sequence[UncertainObject],
    b: UncertainObject,
    r: UncertainObject,
    p: float = 2.0,
    criterion: str = "optimal",
) -> DominationClassification:
    """Group the objects of `others(db, b, r)` by their MBRs against b under r.

    ``criterion`` selects the decision rule: "optimal" (corner-wise, tight) or
    "minmax" (baseline, kept for comparisons; never prunes more than optimal).
    This is the one-target kNN pass of `_target_labels`, the split a
    threshold query runs for all its targets: b, appended to the objects,
    is its own target, and its row (the last) is dropped; an object in
    neither mask is irrelevant.
    """
    p = check_norm_order(p)
    if criterion not in ("optimal", "minmax"):
        raise ValueError(f"unknown criterion {criterion!r}")
    objs = others(db, b, r)
    ((_, _, _, complete, influence),) = _target_labels([*objs, b], [len(objs)], r, "knn", p, criterion)
    masks = complete, influence, ~(complete | influence)
    dominators, cands, irrelevant = ([objs[i] for i in np.flatnonzero(m[:-1, 0])] for m in masks)
    return DominationClassification(tuple(o.id for o in dominators), tuple(cands), tuple(o.id for o in irrelevant))


def _point_bounds(lo, hi, mass, seg, b_lo, b_hi, t, p):
    """lb and ub, (roots, len(b_lo), k), of the roots of one cut (node rows
    `lo`, `hi`, `mass`, root j's rows ``seg[j]:seg[j + 1]``) against the
    b-nodes `b_lo`, `b_hi` under the point r-nodes t, a (k, d) stack, from
    `_point_runs`; None when the keys may overflow.

    A bound sums the masses of the root's nodes that dominate the b-node
    (lb) or that the b-node does not dominate (ub).  Outside the rounding
    band those are the `count` nodes of the root's smallest keys, so their
    mass is the prefix of the root's masses, stably sorted by its own keys
    and added from zero; band nodes that count are added after it, in node
    order.  The integer counts then settle each cell they can: every node
    dominates, lb = 1; none is dominated, ub = 1; every node decided, ub = lb."""
    runs = _point_runs(lo, hi, b_lo, b_hi, t, p, reverse=True, band_cells=_cap() // (4 * _BAND_FLOATS_PER_CELL))
    if runs is None:
        return None
    key, order, _, end, band = runs
    (rows, n), k = order.shape, len(t)  # rows: lb's k, then ub's k
    sizes = seg[1:] - seg[:-1]
    roots, width = sizes.size, int(sizes.max())
    root = np.repeat(np.arange(roots), sizes)
    slot = root * width + np.arange(len(mass)) - seg[root]  # each node's place in a (roots, width) layout
    padded = np.full((rows, roots * width), np.inf)
    padded[:, slot] = key
    by_key = padded.reshape(rows, roots, width).argsort(axis=-1, kind="stable").transpose(2, 0, 1)
    masses = np.zeros(roots * width)
    masses[slot] = mass
    blocks = rows * roots  # one per (row, root)
    prefix = np.zeros((width + 1, blocks))  # [c, block]: the mass of the root's c smallest keys
    np.cumsum(masses[by_key + np.arange(0, roots * width, width)], axis=0, out=prefix[1:].reshape(width, rows, roots))
    # [rank, block]: the root's nodes whose band ends at or before that b rank, then in b order.
    block = np.arange(0, blocks, roots)[:, None] + root
    held = np.bincount((end * blocks + block).ravel(), minlength=(n + 1) * blocks).reshape(n + 1, blocks).cumsum(axis=0)
    cells = np.arange(blocks).reshape(rows, roots, 1)
    count = held.reshape(-1)[order.argsort(axis=1)[:, None, :] * blocks + cells]
    value = prefix.reshape(-1)[count * blocks + cells]
    for z, i, j, holds in band:  # band nodes that count, after the prefix, in node order
        at = ((z * roots + root[i]) * n + j)[holds]
        np.add.at(value.reshape(-1), at, mass[i[holds]])
        np.add.at(count.reshape(-1), at, 1)
    np.copyto(value, 1.0, where=count == sizes[:, None])  # every node counts: lb = 1 or ub = 1
    (lb, ub), (dominating, free) = value.reshape(2, k, roots, n), count.reshape(2, k, roots, n)
    np.copyto(ub, lb, where=free == dominating)
    np.maximum(ub, lb, out=ub)
    return lb.transpose(1, 2, 0), ub.transpose(1, 2, 0)


def _kernel_bounds(lo, hi, mass, heads, b_lo, b_hi, r_lo, r_hi, p, criterion):
    """lb and ub, (roots, len(b_lo), len(r_lo)), of the roots whose node rows
    (`lo`, `hi`, `mass`) start at `heads`: one forward and one reverse
    kernel call, each mask times the masses summed per root in node order
    (one `np.add.reduceat` per bound)."""
    dom = dominance_grid(lo, hi, b_lo, b_hi, r_lo, r_hi, p, criterion)
    rev = dominance_grid(b_lo, b_hi, lo, hi, r_lo, r_hi, p, criterion)
    mass = mass[:, None, None]
    return np.add.reduceat(mass * dom, heads), np.add.reduceat(mass * ~rev.transpose(1, 0, 2), heads)


def _point_cells(a, b, r, block, p, lb, ub):
    """Fill lb and ub on the cells of `block`, a range of consecutive roots
    of `a`, a range of b-nodes and an array of point r-nodes, by
    `_point_bounds`.  Where some cell's keys may overflow, each half of the
    block along its longest side goes again, down to one cell, which the
    kernel decides as it would under a box; so whether a cell goes to the
    kernel rests on its own keys alone."""
    roots, nodes, points = block
    rows, seg = slice(a.seg[roots.start], a.seg[roots.stop]), a.seg[roots.start : roots.stop + 1] - a.seg[roots.start]
    at = slice(roots.start, roots.stop), slice(nodes.start, nodes.stop), points
    args = a.lo[rows], a.hi[rows], a.mass[rows], seg, b.lo[at[1]], b.hi[at[1]], r.lo[points]
    got = _point_bounds(*args, p)
    if got is None and len(roots) == len(nodes) == len(points) == 1:
        got = _kernel_bounds(*args[:3], seg[:-1], *args[4:], r.hi[points], p, "optimal")
    if got is not None:
        lb[at], ub[at] = got
        return
    side = max(range(3), key=lambda x: len(block[x]))
    half = len(block[side]) // 2
    for part in (block[side][:half], block[side][half:]):
        _point_cells(a, b, r, [*block[:side], part, *block[side + 1 :]], p, lb, ub)


def pdom_bounds_grid(
    a: Frontier,
    b: Frontier,
    r: Frontier,
    p: float = 2.0,
    criterion: str = "optimal",
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised pdom bounds of every candidate frontier against every
    (b-node, r-node) pair.

    `a` holds one root per candidate and `b` one root per target (one in a
    single-pair sweep); only the ``lo``/``hi`` node arrays of `b` and `r`
    are read.  Returns (lb, ub) arrays of shape (a's roots, len(b), len(r)):
    a candidate root's bound on one (b-node, r-node) pair sums the masses of
    its nodes that dominate the b-node (lb), or that the b-node does not
    dominate (ub), capped at 1.  A node that dominates is never dominated,
    so ub >= lb.  Under "minmax" every r-node counts as a box.

    Box r-nodes go to `dominance_grid`, each call within `_cap` floats at
    `_KERNEL_FLOATS_PER_CELL` a cell.  The call cuts `a` into consecutive
    whole roots, the most whose candidate nodes x len(b) cells fit (a root
    over that on its own goes alone, one r-node a kernel call), each cut
    read as row slices of `a`, and sends the box r-nodes of a cut in
    consecutive r-chunks of K, the most (at least 1) whose (cut nodes,
    len(b), K) grid fits, by one forward and one reverse call.  A stacked
    call equals its K one-box calls bit for bit.  A bound is a segmented sum
    of the masks times the masses (one `np.add.reduceat` per bound and
    kernel call), so a cell whose every node is decided sums the same masses
    in the same order for both bounds: ub == lb bit for bit.

    Under "optimal" the point r-nodes (``lo == hi``, every r-node of a fully
    separated level) make no kernel call: `_point_bounds` decides them, many
    at a time, from sorted distance keys (`geometry._point_runs`).  It cuts
    `a` into whole roots and stacks the point r-nodes of a cut in passes of
    the most whose floats, at `_POINT_FLOATS_PER_ROOT` and
    `_POINT_FLOATS_PER_NODE` per point r-node, fit three quarters of
    `_cap` (the rest holds the band cells' slices).  Outside the rounding
    band the nodes of a root that dominate a b-node are those of its
    smallest far keys, and those the b-node does not dominate those of its
    smallest near keys; so a bound is a prefix sum of the root's own masses,
    stably sorted by its own keys and added from zero, at an integer count,
    and the band nodes that count, each decided by the kernel's own sum,
    are added after it in node order.  Against the node-order sum of the
    kernel path such a cell moves by at most (K - 1) eps, K the root's node
    count: both add the same c <= K masses of total at most 1.  The counts
    make a cell exact: every node dominates, lb = 1.0; none is dominated,
    ub = 1.0; every node decided, ub = lb bit for bit.  A cell whose own
    keys may overflow goes alone to the kernel (`_point_cells`), which
    raises ValueError where it would anyway; the pass's other cells keep the
    key pass.

    A bound reads only its own root's nodes, that b-node and that r-node:
    sums, sort orders and counts are per (root, b-node, r-node), so a
    candidate root's bounds depend neither on the other roots of `a` or of
    its cut, nor a b-node's on the other nodes of `b`, nor an r-node's on
    its r-chunk or pass: all are what a one-root call with one b-node and
    one r-node gives, bit for bit.
    """
    lb = np.empty((a.seg.size - 1, len(b), len(r)))
    ub = np.empty((a.seg.size - 1, len(b), len(r)))
    point = (r.lo == r.hi).all(axis=1) & (criterion == "optimal")
    boxes, points = np.flatnonzero(~point), np.flatnonzero(point)
    if points.size:
        n = len(b)
        per_root = _POINT_FLOATS_PER_ROOT * (n + 2 + int((a.seg[1:] - a.seg[:-1]).max()))
        per_node = 5 * a.lo.shape[1] + _POINT_FLOATS_PER_NODE
        room = 3 * _cap() // 4  # a quarter for the band cells' slices
        cuts = _cuts(per_root * np.arange(a.seg.size) + per_node * a.seg, room - per_node * n)
        for s, e in zip(cuts, cuts[1:]):
            k = max(1, room // (per_root * (e - s) + per_node * int(a.seg[e] - a.seg[s] + n)))  # point r-nodes a pass
            for z in (points[i : i + k] for i in range(0, points.size, k)):
                _point_cells(a, b, r, [range(s, e), range(n), z], p, lb, ub)
    if boxes.size:
        fit = _cap() // (len(b) * _KERNEL_FLOATS_PER_CELL)  # candidate nodes x r-nodes per kernel call
        cuts = _cuts(a.seg, fit)
        for s, e in zip(cuts, cuts[1:]):
            rows, heads = slice(a.seg[s], a.seg[e]), a.seg[s:e] - a.seg[s]
            k = max(1, fit // (a.seg[e] - a.seg[s]))  # box r-nodes per chunk
            for z in (boxes[i : i + k] for i in range(0, boxes.size, k)):
                lb[s:e, :, z], ub[s:e, :, z] = _kernel_bounds(a.lo[rows], a.hi[rows], a.mass[rows], heads, b.lo, b.hi, r.lo[z], r.hi[z], p, criterion)
    np.minimum(lb, 1.0, out=lb)
    np.minimum(ub, 1.0, out=ub)
    return lb, ub
