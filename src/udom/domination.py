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

from .geometry import _KERNEL_FLOATS_PER_CELL, check_norm_order, dominance_grid
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
    if len({o.points.shape[1] for o in (*db, *exclude)}) > 1:
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
    lo, hi = np.array([o.mbr.lo for o in objs]), np.array([o.mbr.hi for o in objs])
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
    are read.  Returns (lb, ub) arrays of shape (a's roots, len(b), len(r)).
    The call alone sizes its `dominance_grid` calls, each within `_cap`
    floats at `_KERNEL_FLOATS_PER_CELL` a cell.  It cuts `a` into
    consecutive whole roots, the most whose candidate nodes x len(b) cells
    fit (a root over that on its own goes alone, one r-node a kernel call),
    each cut read as row slices of `a`.  Within a cut the r-nodes reach the
    kernel as stacks, each by one forward and one reverse call: the box
    r-nodes in consecutive r-chunks of K, the most (at least 1) whose (cut
    nodes, len(b), K) grid fits, and under "optimal" each point r-node
    (``lo == hi``, every r-node of a fully separated level) alone, so both
    calls decide each cell from one distance key per node.  Under "minmax"
    every r-node counts as a box.  A stacked call equals its K one-box calls
    bit for bit.  A candidate root's bound on one (b-node, r-node) pair is a
    segmented sum (one `np.add.reduceat` per bound and kernel call) of the
    masses of its nodes that dominate the b-node (lb), or that the b-node
    does not dominate (ub), capped at 1.  A node that dominates is never
    dominated, so ub >= lb, and a cell whose every node is decided sums the
    same masses in the same order for both: ub == lb bit for bit.  Each
    (segment, b-node, r-node) column is reduced on its own, so a candidate
    root's bounds depend neither on the other roots of `a` or of its cut,
    nor a b-node's on the other nodes of `b`, nor an r-node's on its
    r-chunk: all are what a one-root call with one r-node gives, bit for bit.
    """
    lb = np.empty((a.seg.size - 1, len(b), len(r)))
    ub = np.empty((a.seg.size - 1, len(b), len(r)))
    point = (r.lo == r.hi).all(axis=1) & (criterion == "optimal")
    boxes = np.flatnonzero(~point)
    points = [slice(i, i + 1) for i in np.flatnonzero(point).tolist()]
    fit = _cap() // (len(b) * _KERNEL_FLOATS_PER_CELL)  # candidate nodes x r-nodes per kernel call
    cuts = [0]
    while cuts[-1] < a.seg.size - 1:
        cuts.append(max(cuts[-1] + 1, int(np.searchsorted(a.seg, a.seg[cuts[-1]] + fit, side="right")) - 1))
    for s, e in zip(cuts, cuts[1:]):
        rows, heads = slice(a.seg[s], a.seg[e]), a.seg[s:e] - a.seg[s]
        lo, hi, mass = a.lo[rows], a.hi[rows], a.mass[rows, None, None]
        k = max(1, fit // (a.seg[e] - a.seg[s]))  # box r-nodes per chunk
        for z in [boxes[i : i + k] for i in range(0, boxes.size, k)] + points:
            r_lo, r_hi = r.lo[z], r.hi[z]
            dom = dominance_grid(lo, hi, b.lo, b.hi, r_lo, r_hi, p, criterion)
            rev = dominance_grid(b.lo, b.hi, lo, hi, r_lo, r_hi, p, criterion)
            lb[s:e, :, z] = np.add.reduceat(mass * dom, heads)
            ub[s:e, :, z] = np.add.reduceat(mass * ~rev.transpose(1, 0, 2), heads)
    np.minimum(lb, 1.0, out=lb)
    np.minimum(ub, 1.0, out=ub)
    return lb, ub
