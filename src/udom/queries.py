"""Similarity-query semantics on top of the domination-count distribution.

All decisions compare strictly: an object is *in* when the probability lower
bound exceeds tau and *out* when the upper bound is at most tau, so boundary
cases are deterministic.  Because refinement only tightens bounds, a decision
reached under early stopping always equals the full-depth decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .domination import ProbBounds, others
from .genfunc import DomCountDistribution
from .idca import AnyOf, IdcaResult, MaxDepth, PredicateDecided, StopCriterion, idca
from .model import UncertainObject

__all__ = [
    "QueryPredicate",
    "ObjectDecision",
    "QueryAnswer",
    "RankDistribution",
    "knn_probability_bounds",
    "pknn_query",
    "prknn_query",
    "inverse_ranking",
    "expected_rank",
    "expected_rank_interval",
]


@dataclass(frozen=True)
class QueryPredicate:
    """Threshold predicate: membership probability for count < k compared to tau."""

    kind: str  # "knn" or "rknn"
    k: int
    tau: float

    def __post_init__(self):
        if self.kind not in ("knn", "rknn"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError("tau must lie in [0, 1]")

    def decide(self, dist: DomCountDistribution) -> Optional[str]:
        bounds = knn_probability_bounds(dist, self.k)
        if bounds.lb > self.tau:
            return "in"
        if bounds.ub <= self.tau:
            return "out"
        return None


@dataclass(frozen=True)
class ObjectDecision:
    object_id: object
    decision: str  # "in" | "out" | "undecided"
    lb: float
    ub: float
    iterations: int
    stop_reason: str


@dataclass
class QueryAnswer:
    """Per-object decisions, aggregated in deterministic object order."""

    kind: str
    k: int
    tau: float
    decisions: list[ObjectDecision] = field(default_factory=list)

    @property
    def result_ids(self) -> list:
        return [d.object_id for d in self.decisions if d.decision == "in"]

    @property
    def undecided_ids(self) -> list:
        return [d.object_id for d in self.decisions if d.decision == "undecided"]


def knn_probability_bounds(dist: DomCountDistribution, k: int) -> ProbBounds:
    """Bounds on P(count < k): sums of the first k per-count bounds."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, len(dist))
    lb = float(dist.lb[:k].sum())
    ub = min(1.0, float(dist.ub[:k].sum()))
    return ProbBounds(min(lb, 1.0), max(min(lb, 1.0), ub))


def _per_target(
    db: Sequence[UncertainObject],
    q: UncertainObject,
    roles: str,
    stop: Optional[StopCriterion],
    engine_kwargs: dict,
) -> Iterator[tuple[UncertainObject, IdcaResult]]:
    """Run the engine once per database object other than q, in str(id) order.

    ``roles`` "knn" bounds the count of each target w.r.t. q; "rknn" swaps
    them and bounds the count of q w.r.t. each target.
    """
    for target in sorted(others(db, q), key=lambda o: str(o.id)):
        b, r = (target, q) if roles == "knn" else (q, target)
        yield target, idca(db, b, r, stop=stop, **engine_kwargs)


def _threshold_query(kind, db, q, k, tau, stop, engine_kwargs) -> QueryAnswer:
    predicate = QueryPredicate(kind, k, tau)
    stop_all = AnyOf([PredicateDecided(predicate.decide), stop if stop is not None else MaxDepth()])
    answer = QueryAnswer(kind=kind, k=k, tau=tau)
    for target, result in _per_target(db, q, kind, stop_all, engine_kwargs):
        bounds = knn_probability_bounds(result.distribution, k)
        verdict = predicate.decide(result.distribution) or "undecided"
        answer.decisions.append(
            ObjectDecision(target.id, verdict, bounds.lb, bounds.ub, result.iterations_run, result.stop_reason)
        )
    return answer


def pknn_query(
    db: Sequence[UncertainObject],
    q: UncertainObject,
    k: int,
    tau: float,
    stop: Optional[StopCriterion] = None,
    **engine_kwargs,
) -> QueryAnswer:
    """All objects that are k-nearest neighbours of q with probability > tau.

    Each candidate target runs its own refinement, stopping as soon as the
    threshold predicate is decided (or the supplied stop criterion fires).
    Objects still undecided at termination are reported with their bounds.
    """
    return _threshold_query("knn", db, q, k, tau, stop, engine_kwargs)


def prknn_query(
    db: Sequence[UncertainObject],
    q: UncertainObject,
    k: int,
    tau: float,
    stop: Optional[StopCriterion] = None,
    **engine_kwargs,
) -> QueryAnswer:
    """All objects having q among their k nearest neighbours with probability > tau.

    The roles swap: for target object B the engine bounds the count of objects
    dominating q w.r.t. reference B (candidates exclude both B and q).
    """
    return _threshold_query("rknn", db, q, k, tau, stop, engine_kwargs)


@dataclass
class RankDistribution:
    """Bounds on P(rank = i) for ranks 1..n; rank i means count i-1."""

    ranks: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    result: IdcaResult

    def bounds_for_rank(self, rank: int) -> ProbBounds:
        idx = int(np.flatnonzero(self.ranks == rank)[0])
        return ProbBounds(float(self.lb[idx]), float(self.ub[idx]))


def inverse_ranking(
    db: Sequence[UncertainObject],
    b: UncertainObject,
    r: UncertainObject,
    stop: Optional[StopCriterion] = None,
    **engine_kwargs,
) -> RankDistribution:
    """Distribution bounds of b's position in a distance ranking w.r.t. r."""
    result = idca(db, b, r, stop=stop, **engine_kwargs)
    dist = result.distribution
    n = len(dist)
    return RankDistribution(
        ranks=np.arange(1, n + 1),
        lb=dist.lb.copy(),
        ub=dist.ub.copy(),
        result=result,
    )


def expected_rank_interval(dist: DomCountDistribution) -> tuple[float, float]:
    """Extremal expected rank over every PDF compatible with the bounds.

    Starting from the lower bounds, the unassigned mass is pushed towards
    rank 1 (for the minimum) or the last rank (for the maximum), never
    exceeding any per-count upper bound.  Tight bounds collapse the interval
    to the plain expectation sum(P(count = i) * (i + 1)).
    """
    n = len(dist)
    ranks = np.arange(1, n + 1, dtype=float)

    def fill(order):
        p = dist.lb.astype(float).copy()
        remaining = max(0.0, 1.0 - p.sum())
        for i in order:
            if remaining <= 0.0:
                break
            take = min(max(dist.ub[i] - p[i], 0.0), remaining)
            p[i] += take
            remaining -= take
        if remaining > 0.0:
            p[order[-1]] += remaining
        return float(p @ ranks)

    return fill(range(n)), fill(range(n - 1, -1, -1))


def expected_rank(
    db: Sequence[UncertainObject],
    q: UncertainObject,
    stop: Optional[StopCriterion] = None,
    **engine_kwargs,
) -> list[tuple[object, float, float]]:
    """Per-object expected-rank intervals w.r.t. query q, in object-id order."""
    return [
        (target.id, *expected_rank_interval(result.distribution))
        for target, result in _per_target(db, q, "knn", stop, engine_kwargs)
    ]
