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

from .geometry import _kernel_floats_per_cell, check_norm_order, dominance_grid
from .model import Frontier, UncertainObject, _by_size

__all__ = [
    "ProbBounds",
    "DominationClassification",
    "classify",
    "pdom_bounds_grid",
]

# Cap on floats held by one batched chunk (~128 MB of float64): one chunk of
# targets in `_target_labels`, and in `idca` one range of a sweep's pair
# rows, at most (width+1)^2 grid floats per row for its widest run.  A 64th
# of it (`idca._cap`) caps one sweep's `pdom_bounds_grid` call and a batch's
# histories.
_BATCH_FLOAT_BUDGET = 1 << 24


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
    database ids raise ValueError, as do objects of differing dimensionality.
    """
    if len({o.id for o in db}) != len(db):
        raise ValueError("database object ids must be unique")
    if len({o.points.shape[1] for o in (*db, *exclude)}) > 1:
        raise ValueError("dimension mismatch between database, target and reference")
    skip = {id(o) for o in exclude}
    return [o for o in db if id(o) not in skip]


def _pdf_length(db: Sequence[UncertainObject], b: UncertainObject) -> int:
    """Length of b's count PDF: one slot per database object other than b, plus one."""
    return len(db) + 1 - any(o is b for o in db)


# Group labels of one database object against one (target, reference) pair.
COMPLETE, INFLUENCE, IRRELEVANT, EXCLUDED = range(4)


def _mbr_rows(objs: Sequence[UncertainObject]) -> tuple[np.ndarray, np.ndarray]:
    """The objects' MBRs as two (N, d) arrays of lower and upper corners."""
    return np.array([o.mbr.lo for o in objs]), np.array([o.mbr.hi for o in objs])


def _mbr_labels(lo, hi, b_lo, b_hi, r_lo, r_hi, p, criterion) -> np.ndarray:
    """(N, t_b * t_r) int8 group labels, target-major, of the N boxes `lo`/`hi`
    against a (t_b, d) stack of targets b under a (t_r, d) stack of references.
    An object that dominates b is COMPLETE, one that b dominates IRRELEVANT.
    A target stack that *is* `lo`/`hi`, under one reference, makes the forward
    grid square, and its transpose the reverse grid: one kernel call serves both.
    """
    dom = dominance_grid(lo, hi, b_lo, b_hi, r_lo, r_hi, p, criterion).reshape(len(lo), -1)
    if b_lo is lo and b_hi is hi:
        rev = dom.T
    else:
        rev = dominance_grid(b_lo, b_hi, lo, hi, r_lo, r_hi, p, criterion).swapaxes(0, 1).reshape(len(lo), -1)
    labels = np.full(dom.shape, INFLUENCE, dtype=np.int8)
    labels[rev] = IRRELEVANT
    labels[dom] = COMPLETE
    return labels


def _target_labels(targets, order, q, roles, p, criterion) -> Iterator[tuple[list, np.ndarray, np.ndarray, np.ndarray]]:
    """Label every object of `targets` against each target in `order` (row
    indices), q fixed: role "knn" makes the target b and q the reference,
    "rknn" makes q b and the target the reference.  The MBRs are stacked once
    and the targets labelled in chunks within `_BATCH_FLOAT_BUDGET` (a kNN
    chunk of every target labels the square grid, then orders its columns).
    Yields per chunk: its row indices, per target its COMPLETE count s and
    its INFLUENCE count m, and the (len(targets), chunk) label columns, each
    target's own row EXCLUDED."""
    lo, hi = _mbr_rows(targets)
    one = q.mbr.lo[None], q.mbr.hi[None]
    chunk = max(1, _BATCH_FLOAT_BUDGET // (_kernel_floats_per_cell(lo.shape[1]) * len(targets)))
    for start in range(0, len(order), chunk):
        cols = order[start : start + chunk]
        square = roles == "knn" and len(cols) == len(lo)
        stack = (lo, hi) if square else (lo[cols], hi[cols])
        b, r = (stack, one) if roles == "knn" else (one, stack)
        labels = _mbr_labels(lo, hi, *b, *r, p, criterion)
        if square:
            labels = labels[:, cols]
        labels[cols, np.arange(len(cols))] = EXCLUDED
        yield cols, (labels == COMPLETE).sum(axis=0), (labels == INFLUENCE).sum(axis=0), labels


def _group(objs: Sequence[UncertainObject], labels: np.ndarray) -> DominationClassification:
    """The classification that one target's label column over `objs` encodes."""

    def ids(label):
        return tuple(objs[i].id for i in np.flatnonzero(labels == label))

    influence = tuple(objs[i] for i in np.flatnonzero(labels == INFLUENCE))
    return DominationClassification(ids(COMPLETE), influence, ids(IRRELEVANT))


def classify(
    db: Sequence[UncertainObject],
    b: UncertainObject,
    r: UncertainObject,
    p: float = 2.0,
    criterion: str = "optimal",
) -> DominationClassification:
    """Group the objects of `others(db, b, r)` by two MBR kernel masks.

    ``criterion`` selects the decision rule: "optimal" (corner-wise, tight) or
    "minmax" (baseline, kept for comparisons; never prunes more than optimal).
    This is the one-target case of the labelling a threshold query runs for
    all its targets at once.
    """
    p = check_norm_order(p)
    if criterion not in ("optimal", "minmax"):
        raise ValueError(f"unknown criterion {criterion!r}")
    cands = others(db, b, r)
    if not cands:
        return DominationClassification((), (), ())
    lo, hi = _mbr_rows(cands)
    labels = _mbr_labels(lo, hi, b.mbr.lo[None], b.mbr.hi[None], r.mbr.lo[None], r.mbr.hi[None], p, criterion)
    return _group(cands, labels[:, 0])


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
    single-pair sweep); only the ``lo``/``hi`` node arrays of `r` are read.
    Returns (lb, ub) arrays of shape (a's roots, len(b), len(r)).  Each
    r-node costs one forward and one reverse `dominance_grid` call over all
    nodes at once, so the peak temporary is O(len(a) * len(b)) per r-node.
    A candidate's bounds against one b-root are products over that
    (candidate, b-root) block alone, its masses summed in node order, so
    they are what a one-root `b` gives, bit for bit; likewise a candidate
    root's bounds do not depend on the other roots of `a`, bit for bit.
    """
    # Roots of one node count are one (roots, rows) group; every pair of an
    # a-group and a b-group is one stack of same-shaped (M, N) blocks.  A
    # group of every root reads all rows in order: a slice, not a gather.
    def index(rows, f):
        return slice(None) if rows.size == len(f) else rows.ravel()

    blocks = [
        (roots[:, None, None], a.mass[rows][:, None, None, :], cols, (*rows.shape, *cols.shape), index(rows, a), index(cols, b))
        for roots, rows in _by_size(a.seg, np.arange(a.seg.size - 1))
        for _, cols in _by_size(b.seg, np.arange(b.seg.size - 1))
    ]
    lb = np.zeros((a.seg.size - 1, len(b), len(r)))
    ub = np.ones((a.seg.size - 1, len(b), len(r)))
    for z, (r_lo, r_hi) in enumerate(zip(r.lo[:, None], r.hi[:, None])):  # one-box stacks
        dom = dominance_grid(a.lo, a.hi, b.lo, b.hi, r_lo, r_hi, p, criterion)[..., 0]
        rev = dominance_grid(b.lo, b.hi, a.lo, a.hi, r_lo, r_hi, p, criterion)[..., 0]
        for roots, mass, cols, (pa, m, pb, n), ri, ci in blocks:
            # C-ordered blocks, gathered by two axis takes: one vector-matrix product each
            fwd = dom[ri][:, ci].reshape(pa, m, pb, n).transpose(0, 2, 1, 3)
            lb[roots, cols, z] = (mass @ np.ascontiguousarray(fwd, dtype=float))[:, :, 0]
            back = rev[ci][:, ri].reshape(pb, n, pa, m).transpose(2, 0, 1, 3)
            ub[roots, cols, z] = 1.0 - (np.ascontiguousarray(back, dtype=float) @ mass.swapaxes(2, 3))[..., 0]
    np.minimum(lb, 1.0, out=lb)
    np.maximum(ub, lb, out=ub)
    return lb, ub
