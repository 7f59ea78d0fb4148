"""Iterative domination count approximation.

The engine first classifies the database against the target/reference MBRs:
certain dominators become a fixed count offset, certainly-dominated objects
drop out, and the remaining influence objects carry all the uncertainty.  It
then refines: each iteration deepens the decompositions of the target, the
reference and every influence object by one level, evaluates one uncertain
generating function per (target-leaf, reference-leaf) pair from per-candidate
domination bounds, mixes the per-pair count bounds with the pair masses, and
shifts by the certain-dominator count.  Nested decompositions only tighten
bounds, so lower bounds rise and upper bounds fall monotonically until a stop
criterion fires, the pair budget would be exceeded, or every object is fully
separated (at which point the bounds are exact for discrete objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .domination import DominationClassification, classify, pdom_bounds_grid
from .genfunc import DomCountDistribution, _extract_batch, _ugf_expand_batch
from .geometry import check_norm_order
from .model import FrontierStack, UncertainObject

__all__ = [
    "StopCriterion",
    "MaxDepth",
    "UncertaintyBelow",
    "PredicateDecided",
    "AnyOf",
    "IdcaResult",
    "idca",
    "uncertainty",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_PAIR_BUDGET",
]

DEFAULT_MAX_DEPTH = 10
DEFAULT_PAIR_BUDGET = 1 << 16

# Cap on floats held by one batched expansion chunk (~128 MB of float64),
# sized for the worst case of a full (n+1)^2 grid per pair row; the grids
# actually built are usually much smaller (`genfunc._ugf_expand_batch`).
_BATCH_FLOAT_BUDGET = 1 << 24


class StopCriterion:
    def should_stop(self, depth: int, dist: DomCountDistribution) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class MaxDepth(StopCriterion):
    """Stop once the decomposition frontier reaches `h` levels."""

    h: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("max depth must be >= 1")

    def should_stop(self, depth, dist):
        return depth >= self.h


@dataclass(frozen=True)
class UncertaintyBelow(StopCriterion):
    """Stop once the summed bound width drops to `epsilon` or below."""

    epsilon: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    def should_stop(self, depth, dist):
        return uncertainty(dist) <= self.epsilon


@dataclass(frozen=True)
class PredicateDecided(StopCriterion):
    """Stop once a decision function returns a non-None verdict.

    The callable receives the current count distribution; because bounds only
    tighten, any verdict reached early is the same verdict full refinement
    would reach.
    """

    decide: Callable[[DomCountDistribution], Optional[object]]

    def should_stop(self, depth, dist):
        return self.decide(dist) is not None


@dataclass(frozen=True)
class AnyOf(StopCriterion):
    criteria: tuple

    def __init__(self, criteria):
        object.__setattr__(self, "criteria", tuple(criteria))

    def should_stop(self, depth, dist):
        return any(c.should_stop(depth, dist) for c in self.criteria)


@dataclass
class IdcaResult:
    """Final count distribution plus the whole refinement trace.

    ``history[i]`` and ``uncertainty_trace[i]`` describe iteration i, where
    iteration 0 is the pure MBR-classification stage (frontier depth 1).
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


def _evaluate_depth(
    cands: Sequence[UncertainObject],
    b: UncertainObject,
    r: UncertainObject,
    depth: int,
    shift: int,
    n_total: int,
    p: float,
    criterion: str,
) -> DomCountDistribution:
    """One refinement sweep at a fixed frontier depth (pre-validated budget)."""
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


def idca(
    db: Sequence[UncertainObject],
    b: UncertainObject,
    r: UncertainObject,
    p: float = 2.0,
    stop: Optional[StopCriterion] = None,
    criterion: str = "optimal",
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    on_iteration: Optional[Callable[[int, DomCountDistribution], None]] = None,
) -> IdcaResult:
    """Approximate the PDF of b's domination count w.r.t. r over db.

    The returned arrays have one slot per database object other than `b`,
    plus one (counts that are provably impossible keep zero bounds).  `b`,
    and `r` when it is a database object, are excluded from the candidate
    set by object identity (`others`), so db ids must be unique and an
    external object never excludes a database object that shares its id.
    `on_iteration(depth, dist)` is invoked after each evaluation
    (progress/timing observation only).
    """
    p = check_norm_order(p)
    stop = stop if stop is not None else MaxDepth(DEFAULT_MAX_DEPTH)
    if pair_budget < 1:
        raise ValueError("pair_budget must be >= 1")

    # classify is the one pass that validates db, b and r (`others`); db ids
    # are unique after it, so the influence ids name the candidate objects.
    cls = classify(db, b, r, p=p, criterion=criterion)
    influence = set(cls.influence_objects)
    cands = [o for o in db if o.id in influence]
    shift = cls.complete_domination_count
    n_total = len(db) + 1 - any(o is b for o in db)

    history: list[DomCountDistribution] = []
    trace: list[float] = []
    depth = 1
    reason = "criterion"
    while True:
        dist = _evaluate_depth(cands, b, r, depth, shift, n_total, p, criterion)
        history.append(dist)
        trace.append(uncertainty(dist))
        if on_iteration is not None:
            on_iteration(depth, dist)
        if stop.should_stop(depth, dist):
            reason = "criterion"
            break
        participants = [b, r, *cands]
        if not cands or all(o.decomposition.fully_separated(depth) for o in participants):
            reason = "exhausted"
            break
        next_pairs = len(b.leaves_at_depth(depth + 1)) * len(r.leaves_at_depth(depth + 1))
        if next_pairs > pair_budget:
            reason = "pair_budget"
            break
        depth += 1

    return IdcaResult(
        distribution=history[-1],
        iterations_run=len(history),
        uncertainty_trace=trace,
        classification=cls,
        stop_reason=reason,
        history=history,
    )
