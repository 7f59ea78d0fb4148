"""Iterative domination count approximation.

Iteration 0 is the MBR classification alone: certain dominators become a fixed
count offset s, certainly-dominated objects drop out, and each of the m
remaining influence objects may or may not dominate, so every count in s..s+m
is possible and none is certain.  Refinement steps a batch of (b, r) runs,
the open targets of a threshold query or the one pair of a direct call, in
one decomposition forest with one root per distinct participant.  From
depth 2 on, each step deepens every root by one level in one segmented
`split` and sweeps every active run together, once: one kernel pass per
reference (`pdom_bounds_grid`, in calls over whole candidate roots whose
kernel grid fits `_cap`), then one padded expansion of an uncertain
generating function per (target-leaf, reference-leaf) pair, mixed into its
run in one product with the pair masses and shifted by s.  A run reads only
its own roots' rows, so its bounds are bit for bit those it would get alone;
each run answers through its own `idca` call.  Nested decompositions only
tighten bounds, so lower bounds rise and upper bounds fall monotonically until
a stop rule fires, the pair budget would be exceeded, or every object is fully
separated.  Then the bounds are exact for discrete objects, unless two samples
tie exactly in distance to a reference sample: a tie never counts as
domination, so such a sample triple keeps its pdom bounds at (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .domination import _BATCH_FLOAT_BUDGET, DominationClassification, _pdf_length, classify, pdom_bounds_grid
from .genfunc import DomCountDistribution, _extract_batch, _ugf_expand_batch
from .geometry import _check_count, _kernel_floats_per_cell, check_norm_order
from .model import DecompositionTree, Frontier, UncertainObject

__all__ = [
    "IdcaResult",
    "idca",
    "uncertainty",
    "DEFAULT_MAX_DEPTH",
]

DEFAULT_MAX_DEPTH = 10

# Cap on target-leaf x reference-leaf pairs one sweep may evaluate; a run
# whose next sweep would exceed it stops with reason "pair_budget".
_PAIR_BUDGET = 1 << 16


@dataclass
class IdcaResult:
    """Final count distribution plus the whole refinement trace.

    ``history[i]`` and ``uncertainty_trace[i]`` describe iteration i.
    Iteration 0 is the MBR classification: zero lower bounds, and upper
    bounds equal to the root-mass product (capped at 1) on the counts
    s..s+m, or the exact count s when no influence object is left.
    Iteration i >= 1 is the sweep at frontier depth i + 1.
    ``stop_reason`` is "criterion", "pair_budget" or "exhausted".
    """

    distribution: DomCountDistribution
    iterations_run: int
    uncertainty_trace: list[float]
    classification: DominationClassification
    stop_reason: str
    history: list[DomCountDistribution] = field(default_factory=list)


def uncertainty(dist: DomCountDistribution) -> float:
    """Summed width of the count bounds; 0 iff the PDF is pinned exactly."""
    return float((dist.ub - dist.lb).sum())


def _check_engine_args(p: float, max_depth: int, epsilon: Optional[float], criterion: str) -> float:
    """Reject bad engine arguments; returns the validated norm order."""
    p = check_norm_order(p)
    _check_count(max_depth, "max_depth")
    if epsilon is not None and not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    if criterion not in ("optimal", "minmax"):
        raise ValueError(f"unknown criterion {criterion!r}")
    return p


def _stopped(depth: int, dist: DomCountDistribution, max_depth: int, epsilon, decide) -> bool:
    """`idca`'s stop rule ("criterion") after the evaluation at `depth`: `max_depth`
    levels, a summed bound width at most `epsilon`, or a verdict from `decide`."""
    return (
        depth >= max_depth
        or (epsilon is not None and uncertainty(dist) <= epsilon)
        or (decide is not None and decide(dist) is not None)
    )


def _classified_bounds(n_cands, weights, shifts, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Iteration 0 of each target: the bounds the MBR classification alone
    allows, as (lb, ub) rows over the counts 0..width-1.

    At depth 1 every influence object's domination bounds are (0, 1), so the
    one (b-root, r-root) pair expands to y^m: no count is certain and every
    count in s..s+m is possible, weighted by the root-mass product
    ``min(b.weights.sum() * r.weights.sum(), 1)`` (which need not be exactly
    1); with m = 0 the count s is exact.  This is what a depth-1 sweep
    returns, byte for byte, without building a decomposition.
    """
    counts = np.arange(width)
    exact = (n_cands == 0)[:, None]
    ub = np.where(exact, 1.0, weights[:, None]) * ((counts >= shifts[:, None]) & (counts <= (shifts + n_cands)[:, None]))
    return np.where(exact, ub, 0.0), ub


@dataclass(eq=False)
class _Run:
    """One (b, r) refinement: its classification, its history (iteration 0
    first), the steps of its batch (`_refine`) and, once stopped, its stop reason."""

    b: UncertainObject
    r: UncertainObject
    cls: DominationClassification
    history: list
    reason: str = ""
    steps: Optional[Iterator] = None
    roots: Optional[np.ndarray] = None  # its forest roots: candidates, b, r
    cands = property(lambda self: self.cls.influence_objects)
    shift = property(lambda self: self.cls.complete_domination_count)


def _cap() -> int:
    """Floats that one batch's histories or one `pdom_bounds_grid` call's
    kernel grid may hold: a 64th of `_BATCH_FLOAT_BUDGET` (~2 MB), so many
    small runs share a batch while memory stays bounded."""
    return _BATCH_FLOAT_BUDGET >> 6


def _refine(runs: list, p: float, max_depth: int, epsilon, decide, criterion: str) -> None:
    """Give each of `runs` (each open at iteration 0) the steps of its batch:
    consecutive runs whose histories, at `max_depth` iterations, fit
    `_cap` share one `_sweeps`."""
    if not runs:
        return
    size = max(1, _cap() // (2 * len(runs[0].history[0]) * max_depth))
    for s in range(0, len(runs), size):
        steps = _sweeps(runs[s : s + size], p, max_depth, epsilon, decide, criterion)
        for run in runs[s : s + size]:
            run.steps = steps


def _sweeps(runs: list, p: float, max_depth: int, epsilon, decide, criterion: str) -> Iterator[None]:
    """Refine `runs` in one forest with one root per distinct participant,
    one step per depth: each step stops the runs whose own stop rule fires,
    then sweeps every other run together in one `_evaluate_depth`.
    A run reads only its own roots' rows, so it stops where it would stop
    alone: on `_stopped` ("criterion"), with no candidates or its roots all
    atomic ("exhausted"), or before a sweep over the pair budget
    ("pair_budget").  The steps end when every run has stopped."""
    live = [run for run in runs if run.cands]
    for run in runs:
        run.reason = "" if run.cands else "exhausted"
    if not live:
        return
    members = list({id(o): o for run in live for o in (*run.cands, run.b, run.r)}.values())
    roots = {id(o): k for k, o in enumerate(members)}
    for run in live:
        run.roots = np.array([roots[id(o)] for o in (*run.cands, run.b, run.r)])
    forest = DecompositionTree(members)
    depth, level = 1, forest.leaves(1)
    while True:
        atomic = np.logical_and.reduceat(level.atomic, level.seg[:-1])
        # Node count of each root one level deeper: each non-atomic node splits in two.
        grown = np.diff(level.seg) + np.add.reduceat(~level.atomic, level.seg[:-1], dtype=np.intp)
        for run in live:
            if depth > 1 and _stopped(depth, run.history[-1], max_depth, epsilon, decide):
                run.reason = "criterion"
            elif atomic[run.roots].all():
                run.reason = "exhausted"
            elif grown[run.roots[-2]] * grown[run.roots[-1]] > _PAIR_BUDGET:
                run.reason = "pair_budget"
        live = [run for run in live if not run.reason]
        if not live:
            return
        depth += 1
        level = forest.leaves(depth)
        for run, dist in zip(live, _evaluate_depth(level, live, p, criterion)):
            run.history.append(dist)
        yield


def _expand_open(plb: np.ndarray, pub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_extract_batch(_ugf_expand_batch(plb, pub), n)`` for (rows, n)
    factor bounds, byte for byte; packed as `_evaluate_depth` states."""
    n = plb.shape[1]
    open_ = (pub > 0.0) & (plb < 1.0)  # plb == 1 implies pub == 1: a certain factor
    w = int(open_.sum(axis=1).max(initial=0))
    pos = plb > 0.0
    a, a_open = pos.sum(axis=1).max(initial=0), (pos & open_).sum(axis=1).max(initial=0)
    if (a_open + 1) * w >= (a + 1) * int((pub > 0.0).any(axis=0).sum()):
        return _extract_batch(_ugf_expand_batch(plb, pub), n)
    r, c = np.nonzero(open_)  # row-major: each row's open factors in order
    packed = np.zeros((2, len(plb), w))
    packed[:, r, np.cumsum(open_, axis=1)[r, c] - 1] = plb[r, c], pub[r, c]
    cols = (plb == 1.0).sum(axis=1)[:, None] + np.arange(w + 1)
    out = np.zeros((2, len(plb), n + w + 1))
    for o, bounds in zip(out, _extract_batch(_ugf_expand_batch(*packed), w)):
        np.put_along_axis(o, cols, bounds, axis=1)
    return out[0, :, : n + 1], out[1, :, : n + 1]


def _evaluate_depth(level: Frontier, runs: list, p: float, criterion: str) -> list[DomCountDistribution]:
    """One refinement sweep over a frontier `level` of the forest for every
    run of `runs` (each with >= 1 candidate, budget pre-validated); `_refine`
    runs it from depth 2 on.

    The sweep fills one (2, rows, width) block of pdom bounds, one row per
    (b-leaf, r-leaf) pair of each run in turn (b-leaf major), width the most
    candidates of any run.  The runs of one reference share its
    `pdom_bounds_grid` calls: its candidate roots, cut into consecutive calls
    whose grid of candidate nodes x target nodes x
    `_kernel_floats_per_cell(d)` floats fits `_cap` (a root over it alone),
    their bounds concatenated along the candidate axis; a candidate root's
    bounds do not depend on the other roots of its call, so the cut changes
    no bit.  A narrower run is padded with plb = pub = 0, factors that
    multiply by exactly 1.  The block is expanded and extracted
    in consecutive ranges of ``max(1, _BATCH_FLOAT_BUDGET // (width+1)^2)``
    rows; a run's rows may span ranges, as a row's expansion does not depend
    on its neighbours.  Each run is then mixed in one product with its pair
    masses and shifted by s, so its bounds are those of its own sweep, bit
    for bit, however the rows were cut.  A range may expand only its open
    factors (`_expand_open`): each row's (1, 1) factors become its x-shift,
    its (0, 0) ones drop out, the rest are packed left in order and padded
    with (0, 0), and the packed block of width w is put at counts
    shift..shift+w of each row.  It packs only when (a' + 1) * w < (a + 1) * L,
    fewer grid cells: a and a' count a row's most plb > 0 factors before
    and after packing, L the columns with pub > 0 in some row.
    """
    nodes = np.diff(level.seg)
    rows = np.cumsum([0] + [nodes[run.roots[-2]] * nodes[run.roots[-1]] for run in runs])
    width = max(len(run.cands) for run in runs)
    block = np.zeros((2, rows[-1], width))
    for ref in dict.fromkeys(int(run.roots[-1]) for run in runs):
        group = [i for i, run in enumerate(runs) if run.roots[-1] == ref]
        cands = np.unique(np.concatenate([runs[i].roots[:-2] for i in group]))
        bs = np.unique([runs[i].roots[-2] for i in group])
        b, r = level.take(bs), level.take(np.array([ref]))
        fit = _cap() // (len(b) * _kernel_floats_per_cell(level.lo.shape[1]))  # candidate nodes per call
        ends = np.concatenate([[0], np.cumsum(nodes[cands])])  # nodes of the first i candidate roots
        cuts = [0]
        while cuts[-1] < cands.size:
            cuts.append(max(cuts[-1] + 1, int(np.searchsorted(ends, ends[cuts[-1]] + fit, side="right")) - 1))
        calls = [pdom_bounds_grid(level.take(cands[s:e]), b, r, p, criterion) for s, e in zip(cuts, cuts[1:])]
        bounds = [np.concatenate(g) if len(calls) > 1 else g[0] for g in zip(*calls)]  # lb, ub
        for i in group:
            c, j = np.searchsorted(cands, runs[i].roots[:-2]), np.searchsorted(bs, runs[i].roots[-2])
            for out, g in zip(block, bounds):
                out[rows[i] : rows[i + 1], : c.size] = g[c, b.seg[j] : b.seg[j + 1]].reshape(c.size, -1).T
    step = max(1, _BATCH_FLOAT_BUDGET // (width + 1) ** 2)
    ranges = [_expand_open(*block[:, s : s + step]) for s in range(0, rows[-1], step)]
    pair = [np.concatenate(g) if len(ranges) > 1 else g[0] for g in zip(*ranges)]  # lb, ub
    dists = []
    for run, first, last in zip(runs, rows[:-1], rows[1:]):
        w = np.outer(*(level.mass[level.seg[k] : level.seg[k + 1]] for k in run.roots[-2:])).ravel()
        counts = slice(run.shift, run.shift + len(run.cands) + 1)  # shifted by s
        lb, ub = np.zeros(len(run.history[0])), np.zeros(len(run.history[0]))  # not views of one block: a history keeps lb
        for mixed, g in zip((lb, ub), pair):
            mixed[counts] = w @ np.ascontiguousarray(g[first:last, : len(run.cands) + 1])
        dists.append(DomCountDistribution._unchecked(lb, np.maximum(np.minimum(ub, 1.0), lb)))
    return dists


def idca(
    db: Sequence[UncertainObject],
    b: UncertainObject,
    r: UncertainObject,
    p: float = 2.0,
    max_depth: int = DEFAULT_MAX_DEPTH,
    epsilon: Optional[float] = None,
    decide: Optional[Callable[[DomCountDistribution], object]] = None,
    criterion: str = "optimal",
    on_iteration: Optional[Callable[[int, DomCountDistribution], None]] = None,
    _start: Optional[_Run] = None,
) -> IdcaResult:
    """Approximate the PDF of b's domination count w.r.t. r over db.

    The returned arrays have one slot per database object other than `b`,
    plus one (counts that are provably impossible keep zero bounds).  The
    candidates are the classification's influence objects: `b`, and `r` when
    it is a database object, are excluded by identity (`others`), so db ids
    must be unique and an external object never excludes one that shares its id.

    Refinement stops with reason "criterion" once the frontier reaches
    `max_depth` levels, once the summed bound width (`uncertainty`) is at or
    below `epsilon`, or once `decide(dist)` returns a verdict other than None.
    A verdict reached early is the verdict full refinement would reach,
    because bounds only tighten.  Full separation ("exhausted") ends every
    run, whatever the stop values, and so does a next sweep that would
    evaluate more than 65536 (target-leaf, reference-leaf) pairs
    ("pair_budget").
    `on_iteration(depth, dist)` is invoked after each evaluation
    (progress/timing observation only).

    `_start` is an open target's run from a threshold query's batch, holding
    its classification and iteration 0 (arguments checked there): the call
    steps the batch until that run stops, which may advance other runs too.
    Evaluations made before the call reach `on_iteration` at its start.
    """
    run = _start
    if run is None:
        p = _check_engine_args(p, max_depth, epsilon, criterion)
        cls = classify(db, b, r, p=p, criterion=criterion)
        m, weight = len(cls.influence_objects), min(b.weights.sum() * r.weights.sum(), 1.0)
        lb, ub = _classified_bounds(np.array([m]), np.array([weight]), np.array([cls.complete_domination_count]), _pdf_length(db, b))
        run = _Run(b, r, cls, [DomCountDistribution._unchecked(lb[0], ub[0])])
        if _stopped(1, run.history[0], max_depth, epsilon, decide):
            run.reason = "criterion"
        else:
            _refine([run], p, max_depth, epsilon, decide, criterion)
    seen = 0
    while True:
        if on_iteration is not None:
            for depth in range(seen, len(run.history)):
                on_iteration(depth + 1, run.history[depth])
            seen = len(run.history)
        if run.reason:
            break
        next(run.steps, None)
    return IdcaResult(
        distribution=run.history[-1],
        iterations_run=len(run.history),
        uncertainty_trace=[uncertainty(h) for h in run.history],
        classification=run.cls,
        stop_reason=run.reason,
        history=run.history,
    )
