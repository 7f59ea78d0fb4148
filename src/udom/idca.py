"""Iterative domination count approximation.

Iteration 0 is the MBR classification alone: certain dominators become a fixed
count offset s, certainly-dominated objects drop out, and each of the m
remaining influence objects may or may not dominate, so every count in s..s+m
is possible and none is certain.  The first sweep builds one decomposition
forest per run over the influence objects, the target and the reference, one
root each.  From depth 2 on, each iteration deepens every root by one level
in one segmented `split` of the forest's frontier, reads the candidates,
target and reference as row slices of that one level, evaluates one
uncertain generating function per (target-leaf, reference-leaf) pair from
per-candidate domination bounds, mixes the per-pair count bounds with the
pair masses, and shifts by s.  Nested decompositions only
tighten bounds, so lower bounds rise and upper bounds fall monotonically until
a stop rule fires, the pair budget would be exceeded, or every object is fully
separated.  Then the bounds are exact for discrete objects, unless two samples
tie exactly in distance to a reference sample: a tie never counts as
domination, so such a sample triple keeps its pdom bounds at (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .domination import _BATCH_FLOAT_BUDGET, DominationClassification, _pdf_length, classify, pdom_bounds_grid
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


def _classified_bounds(
    n_cands: int, b: UncertainObject, r: UncertainObject, shift: int, n_total: int
) -> DomCountDistribution:
    """Iteration 0: the bounds the MBR classification alone allows.

    At depth 1 every influence object's domination bounds are (0, 1), so the
    one (b-root, r-root) pair expands to y^m: no count is certain and every
    count in shift..shift+m is possible, weighted by the root-mass product
    (which need not be exactly 1).  This is what a depth-1 sweep returns,
    byte for byte, without building a decomposition.
    """
    lb = np.zeros(n_total)
    ub = np.zeros(n_total)
    if n_cands:
        ub[shift : shift + n_cands + 1] = min(b.weights.sum() * r.weights.sum(), 1.0)
    else:
        lb[shift] = ub[shift] = 1.0
    return DomCountDistribution(lb, ub)


def _evaluate_depth(
    level: Frontier, n_cands: int, shift: int, n_total: int, p: float, criterion: str
) -> DomCountDistribution:
    """One refinement sweep over a frontier `level` of the forest of
    ``[*cands, b, r]`` with ``n_cands >= 1`` candidates (pre-validated
    budget); `idca` runs it from depth 2 on."""
    lb = np.zeros(n_total)
    ub = np.zeros(n_total)
    cands = level.roots(0, n_cands)
    b_front = level.roots(n_cands, n_cands + 1)
    r_front = level.roots(n_cands + 1, n_cands + 2)
    n_pairs = len(b_front) * len(r_front)

    plb, pub = (g.reshape(n_cands, n_pairs) for g in pdom_bounds_grid(cands, b_front, r_front, p, criterion))

    pair_w = np.outer(b_front.mass, r_front.mass).ravel()

    mixed_lb = np.zeros(n_cands + 1)
    mixed_ub = np.zeros(n_cands + 1)
    chunk = max(1, _BATCH_FLOAT_BUDGET // ((n_cands + 1) * (n_cands + 1)))
    for start in range(0, n_pairs, chunk):
        sl = slice(start, start + chunk)
        grids = _ugf_expand_batch(plb[:, sl].T, pub[:, sl].T)
        pair_lb, pair_ub = _extract_batch(grids, n_cands)
        mixed_lb += pair_w[sl] @ pair_lb
        mixed_ub += pair_w[sl] @ pair_ub

    lb[shift : shift + n_cands + 1] = mixed_lb
    ub[shift : shift + n_cands + 1] = np.minimum(mixed_ub, 1.0)
    return DomCountDistribution(lb, np.maximum(ub, lb))


def _grown(front: Frontier) -> int:
    """Node count of `front` one level deeper: each non-atomic node splits in two."""
    return len(front) + int((~front.atomic).sum())


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
    _start: Optional[tuple[DominationClassification, DomCountDistribution]] = None,
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
    (progress/timing observation only).  `_start` is
    ``(classify(db, b, r, p, criterion), iteration 0)`` from a caller that
    already validated the arguments, built iteration 0 and found that no
    stop rule fires on it.
    """
    if _start is None:
        p = _check_engine_args(p, max_depth, epsilon, criterion)
        cls = classify(db, b, r, p=p, criterion=criterion)
        dist = _classified_bounds(len(cls.influence_objects), b, r, cls.complete_domination_count, _pdf_length(db, b))
    else:
        cls, dist = _start
    cands = list(cls.influence_objects)
    shift = cls.complete_domination_count
    n_total = len(dist)
    n = len(cands)

    history: list[DomCountDistribution] = []
    depth = 1
    forest = level = None
    while True:
        history.append(dist)
        if on_iteration is not None:
            on_iteration(depth, dist)
        # A caller-built iteration 0 comes with no stop rule firing on it.
        if (depth > 1 or _start is None) and _stopped(depth, dist, max_depth, epsilon, decide):
            reason = "criterion"
            break
        if not cands:
            reason = "exhausted"
            break
        if forest is None:
            forest = DecompositionTree([*cands, b, r])
            level = forest.leaves(1)
        if level.atomic.all():
            reason = "exhausted"
            break
        if _grown(level.roots(n, n + 1)) * _grown(level.roots(n + 1, n + 2)) > _PAIR_BUDGET:
            reason = "pair_budget"
            break
        depth += 1
        level = forest.leaves(depth)
        dist = _evaluate_depth(level, n, shift, n_total, p, criterion)

    return IdcaResult(
        distribution=history[-1],
        iterations_run=len(history),
        uncertainty_trace=[uncertainty(h) for h in history],
        classification=cls,
        stop_reason=reason,
        history=history,
    )
