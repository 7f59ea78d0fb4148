"""Iterative domination count approximation.

Iteration 0 is the MBR classification alone: certain dominators become a fixed
count offset s, certainly-dominated objects drop out, and each of the m
remaining influence objects may or may not dominate, so every count in s..s+m
is possible and none is certain.  Refinement runs a batch of (b, r) runs,
consecutive open targets of a threshold query or the one pair of a direct
call, to its end in one decomposition forest with one root per distinct
participant.  From depth 2 on, each step deepens every root by one level in
one segmented `split` and sweeps every active run together, once: one
`pdom_bounds_grid` call per reference, over all its runs' candidate roots
and targets, which cuts its kernel calls to fit `_cap` (whole candidate
roots a call, its box reference nodes stacked into r-chunks), then, per
(target-leaf, reference-leaf) pair, count bounds from the uncertain
generating function of its padded pdom bounds, as three univariate products
(`udom.genfunc`), mixed into its run in one product with the pair masses
and shifted by s.  A run reads only its own roots' rows, so its bounds are
bit for bit those it would get alone.  Nested decompositions only tighten
bounds, so lower bounds rise and upper bounds fall monotonically until a
stop rule fires, the pair budget would be exceeded, or every object is
fully separated.  Then the bounds are exact for discrete objects, lb == ub
bit for bit, unless two samples tie exactly in
distance to a reference sample: a tie never counts as domination, so such a
sample triple keeps its pdom bounds at (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .domination import DominationClassification, _cap, _pdf_length, classify, pdom_bounds_grid
from .genfunc import DomCountDistribution, _extract_batch, _ugf_expand_batch
from .geometry import _check_count, check_norm_order
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
    Iteration 0 is the MBR classification: zero lower bounds and upper
    bounds 1 on the counts s..s+m, or the exact count s when no influence
    object is left.  Iteration i >= 1 is the sweep at frontier depth i + 1.
    ``stop_reason`` is "criterion", "pair_budget" or "exhausted".
    ``classification`` is the MBR split of a direct `idca` call; a threshold
    target's call (`_start`), whose readers take only the history, the
    iterations and the stop reason, carries None.
    """

    distribution: DomCountDistribution
    iterations_run: int
    uncertainty_trace: list[float]
    classification: Optional[DominationClassification]
    stop_reason: str
    history: list[DomCountDistribution] = field(default_factory=list)


def uncertainty(dist: DomCountDistribution) -> float:
    """Summed width of the count bounds; 0 iff the PDF is pinned exactly."""
    return float((dist.ub - dist.lb).sum())


def _check_engine_args(p: float, max_depth: int, epsilon: Optional[float], criterion: str) -> float:
    """Reject bad engine arguments; returns the validated norm order."""
    p = check_norm_order(p)
    _check_count(max_depth, "max_depth")
    if epsilon is not None and (isinstance(epsilon, (bool, np.bool_)) or not epsilon >= 0):
        raise ValueError("epsilon must be a number >= 0")
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


def _classified_bounds(n_cands, shifts, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Iteration 0 of each target: the bounds the MBR classification alone
    allows, as (lb, ub) rows over the counts 0..width-1.

    Each of the m influence objects may or may not dominate, so every count
    in s..s+m is possible (ub = 1) and none is certain (lb = 0); with m = 0
    the count s is exact (lb = ub = 1 there).
    """
    counts = np.arange(width)
    ub = ((counts >= shifts[:, None]) & (counts <= (shifts + n_cands)[:, None])).astype(float)
    return np.where((n_cands == 0)[:, None], ub, 0.0), ub


@dataclass(eq=False)
class _Run:
    """One (b, r) refinement: its candidates (the influence objects) and its
    count offset s (the complete dominators), its history (iteration 0
    first) and, once stopped, its stop reason."""

    b: UncertainObject
    r: UncertainObject
    cands: Sequence[UncertainObject]
    shift: int
    history: list
    reason: str = ""
    roots: Optional[np.ndarray] = None  # its forest roots: candidates, b, r


def _refine(runs: list, p: float, max_depth: int, epsilon, decide, criterion: str) -> Iterator[_Run]:
    """Yield each of `runs` (each open at iteration 0) stopped, in order.
    Consecutive runs whose histories, at `max_depth` iterations, fit `_cap`
    form a batch that shares one `_sweeps`, run to its end when its first run
    is asked for.  `runs` is consumed, so one batch is held at a time."""
    while runs:
        batch = runs[: max(1, _cap() // (2 * len(runs[0].history[0]) * max_depth))]
        del runs[: len(batch)]
        for _ in _sweeps(batch, p, max_depth, epsilon, decide, criterion):
            pass
        yield from batch


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


def _evaluate_depth(level: Frontier, runs: list, p: float, criterion: str) -> list[DomCountDistribution]:
    """One refinement sweep over a frontier `level` of the forest for every
    run of `runs` (each with >= 1 candidate, budget pre-validated); `_sweeps`
    runs it from depth 2 on.

    The sweep fills one (2, rows, width) block of pdom bounds, one row per
    (b-leaf, r-leaf) pair of each run in turn (b-leaf major), width the most
    candidates of any run.  The runs of one reference share one
    `pdom_bounds_grid` call over their candidate roots (each distinct root
    once) and their target roots, in run order; that call cuts its kernel
    calls to fit `_cap`, whole candidate roots a call and its box reference
    nodes stacked into r-chunks, so a few candidate nodes cost few kernel
    calls however many nodes the reference has.  A candidate root's bounds
    depend neither on the other roots nor on the cut, and a target root's
    on no other target, so the call changes no bit.  A narrower run is
    padded with plb = pub = 0, factors that multiply by exactly 1.  One
    `_ugf_expand_batch` call expands every row of the block into its three
    univariate products (`udom.genfunc`), of 3 * rows * (width+1) floats
    plus a pass's temporary of at most as many, the order of the block, and
    one `_extract_batch` call reads them as count bounds.  Each run is then mixed in one product with its pair
    masses and shifted by s.  A row's products do not depend on its
    neighbours, so a run's bounds are those of its own sweep, bit for bit.
    """
    nodes = np.diff(level.seg)
    rows = np.cumsum([0] + [nodes[run.roots[-2]] * nodes[run.roots[-1]] for run in runs])
    width = max(len(run.cands) for run in runs)
    block = np.zeros((2, rows[-1], width))
    for ref in dict.fromkeys(int(run.roots[-1]) for run in runs):
        group = [i for i, run in enumerate(runs) if run.roots[-1] == ref]
        cands = np.unique(np.concatenate([runs[i].roots[:-2] for i in group]))
        b, r = level.take(np.array([runs[i].roots[-2] for i in group])), level.take(np.array([ref]))
        bounds = pdom_bounds_grid(level.take(cands), b, r, p, criterion)  # lb, ub
        for j, i in enumerate(group):
            c = np.searchsorted(cands, runs[i].roots[:-2])
            for out, g in zip(block, bounds):
                out[rows[i] : rows[i + 1], : c.size] = g[c, b.seg[j] : b.seg[j + 1]].reshape(c.size, -1).T
    pair = _extract_batch(_ugf_expand_batch(*block))  # lb, ub
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
    _start: Optional[Iterator[_Run]] = None,
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

    `_start` is a threshold query's stream of stopped runs (`_refine`), each
    holding its candidates, s and history: the call answers the stream's
    next run and reads no other argument (the stream holds the engine
    arguments, checked by its maker), and its caller, not the call, reports
    that run's history to `on_iteration`.
    """
    if _start is not None:
        run, cls = next(_start), None
    else:
        p = _check_engine_args(p, max_depth, epsilon, criterion)
        cls = classify(db, b, r, p=p, criterion=criterion)
        cands, shift = cls.influence_objects, cls.complete_domination_count
        lb, ub = _classified_bounds(np.array([len(cands)]), np.array([shift]), _pdf_length(db, b))
        run = _Run(b, r, cands, shift, [DomCountDistribution._unchecked(lb[0], ub[0])])
        if on_iteration is not None:
            on_iteration(1, run.history[0])
        if _stopped(1, run.history[0], max_depth, epsilon, decide):
            run.reason = "criterion"
        else:
            for _ in _sweeps([run], p, max_depth, epsilon, decide, criterion):
                if on_iteration is not None:
                    on_iteration(len(run.history), run.history[-1])
    return IdcaResult(
        distribution=run.history[-1],
        iterations_run=len(run.history),
        uncertainty_trace=[uncertainty(h) for h in run.history],
        classification=cls,
        stop_reason=run.reason,
        history=run.history,
    )
