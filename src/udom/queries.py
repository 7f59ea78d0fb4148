"""Similarity-query semantics on top of the domination-count distribution.

All decisions compare strictly: an object is *in* when the probability lower
bound exceeds tau and *out* when the upper bound is at most tau, so boundary
cases are deterministic.  Because refinement only tightens bounds, a decision
reached under early stopping always equals the full-depth decision.

The queries over many targets share `_each_target`: one MBR kernel pass labels
every target, and the targets it leaves open are refined in shared batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .domination import ProbBounds, _group, _pdf_length, _target_labels, others
from .genfunc import MASS_TOLERANCE, DomCountDistribution
from .geometry import _check_count
from .idca import DEFAULT_MAX_DEPTH, IdcaResult, _check_engine_args, _classified_bounds, _refine, _Run, idca, uncertainty
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
        _check_count(self.k, "k")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError("tau must lie in [0, 1]")

    def decide(self, dist: DomCountDistribution) -> Optional[str]:
        return self._verdict(knn_probability_bounds(dist, self.k))

    def _verdict(self, bounds: ProbBounds) -> Optional[str]:
        """"in", "out", or None while `bounds` straddle tau."""
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
    _check_count(k, "k")
    return ProbBounds(*map(float, _knn_rows(dist.lb, dist.ub, k)))


def _knn_rows(lb: np.ndarray, ub: np.ndarray, k: int) -> tuple:
    """`knn_probability_bounds` of each row of per-count bounds (lb, ub); a
    row of a 2-D sum adds as the 1-D sum would."""
    lb = np.minimum(lb[..., :k].sum(axis=-1), 1.0)
    return lb, np.maximum(lb, np.minimum(ub[..., :k].sum(axis=-1), 1.0))


def _each_target(
    db: Sequence[UncertainObject],
    q: UncertainObject,
    roles: str,
    predicate: Optional[QueryPredicate] = None,
    p: float = 2.0,
    max_depth: int = DEFAULT_MAX_DEPTH,
    epsilon: Optional[float] = None,
    criterion: str = "optimal",
    on_iteration: Optional[Callable[[int, DomCountDistribution], None]] = None,
) -> Iterator[tuple]:
    """`idca`'s (distribution, iterations, stop reason) for each database
    object other than q, in str(id) order, plus the bounds on P(count < k)
    when a threshold `predicate` is given (else None).

    ``roles`` "knn" bounds the count of each target w.r.t. q; "rknn" swaps
    them and bounds the count of q w.r.t. each target.  The database is
    validated once, and one kernel pass labels every object against every
    target (`domination._target_labels`).  Each labelling chunk is answered
    as one block: one array pass tests the predicate on every iteration 0,
    and a target at which a stop rule fires is answered there, its
    distribution built only if read (else None).  The others are refined in
    shared batches (`idca._refine`), each answered by its own `idca` call.
    The chunk's iteration-0 rows are fewer floats than its kernel pass.
    """
    targets = others(db, q)
    p = _check_engine_args(p, max_depth, epsilon, criterion)
    if not targets:
        return
    order = sorted(range(len(targets)), key=lambda i: str(targets[i].id))
    n_total = _pdf_length(db, targets[0] if roles == "knn" else q)  # b's, the same for every target
    weights = np.minimum(np.array([o.weights.sum() for o in targets]) * q.weights.sum(), 1.0)  # root-mass products
    decide = None if predicate is None else predicate.decide
    for cols, shifts, n_cands, labels in _target_labels(targets, order, q, roles, p, criterion):
        stop = np.full(len(cols), max_depth <= 1)
        if predicate is not None:
            plb, pub = _knn_rows(*_classified_bounds(n_cands, weights[cols], shifts, min(predicate.k, n_total)), predicate.k)
            stop |= (plb > predicate.tau) | (pub <= predicate.tau)
        # The read iteration-0 rows: every one for `on_iteration` or expected_rank, else the open ones.
        read = [j for j in range(len(cols)) if not stop[j] or on_iteration is not None or predicate is None]
        rows = _classified_bounds(n_cands[read], weights[[cols[j] for j in read]], shifts[read], n_total)
        first = dict(zip(read, map(DomCountDistribution._unchecked, *rows)))
        runs = {}
        for j in read:
            if not (stop[j] or (epsilon is not None and uncertainty(first[j]) <= epsilon)):
                b, r = (targets[cols[j]], q) if roles == "knn" else (q, targets[cols[j]])
                runs[j] = _Run(b, r, _group(targets, labels[:, j]), [first[j]])
        _refine(list(runs.values()), p, max_depth, epsilon, decide, criterion)
        for j in range(len(cols)):
            run = runs.pop(j, None)  # an answered run's history is not kept
            if run is not None:
                result = idca(
                    db, run.b, run.r, p=p, max_depth=max_depth, epsilon=epsilon, decide=decide,
                    criterion=criterion, on_iteration=on_iteration, _start=run,
                )
                dist, iterations, reason = result.distribution, result.iterations_run, result.stop_reason
            else:
                if on_iteration is not None:
                    on_iteration(1, first[j])
                dist, iterations, reason = first.get(j), 1, "criterion"
            bounds = None
            if predicate is not None:
                bounds = knn_probability_bounds(dist, predicate.k) if run is not None else ProbBounds(float(plb[j]), float(pub[j]))
            yield targets[cols[j]], dist, iterations, reason, bounds


def _threshold_query(kind, db, q, k, tau, engine_kwargs) -> QueryAnswer:
    predicate = QueryPredicate(kind, k, tau)
    answer = QueryAnswer(kind=kind, k=k, tau=tau)
    # An explicit keyword: a caller-supplied `decide` raises TypeError here.
    for target, _, iterations, reason, bounds in _each_target(db, q, kind, predicate, **engine_kwargs):
        verdict = predicate._verdict(bounds) or "undecided"
        answer.decisions.append(ObjectDecision(target.id, verdict, bounds.lb, bounds.ub, iterations, reason))
    return answer


def pknn_query(
    db: Sequence[UncertainObject],
    q: UncertainObject,
    k: int,
    tau: float,
    **engine_kwargs,
) -> QueryAnswer:
    """All objects that are k-nearest neighbours of q with probability > tau.

    Filter, then refine.  The database is validated and its MBRs stacked
    once, and one dominance-kernel pass gives every target its iteration-0
    counts; a target at which the threshold predicate or another `idca` stop
    rule (`max_depth`, `epsilon`, passed through `engine_kwargs`) fires
    there is answered at once.  The open targets are refined together in
    batches (one decomposition forest, one sweep per depth), each stopping
    as soon as one of its own stop rules fires.  The decisions, and the
    `on_iteration` calls (each target's together, depth 1 first, in id
    order), equal one full `idca` run per target.  A target's calls come
    during its own `idca` call, the iterations that an earlier target's call
    already made all at once, so they are not timing signals.  Objects
    still undecided at termination are reported with their bounds.
    """
    return _threshold_query("knn", db, q, k, tau, engine_kwargs)


def prknn_query(
    db: Sequence[UncertainObject],
    q: UncertainObject,
    k: int,
    tau: float,
    **engine_kwargs,
) -> QueryAnswer:
    """All objects having q among their k nearest neighbours with probability > tau.

    The roles swap: for target object B the engine bounds the count of objects
    dominating q w.r.t. reference B (candidates exclude both B and q).  The
    filter pass of `pknn_query` then runs the kernel over the stack of every
    target's MBR as the reference box; `on_iteration` is as in `pknn_query`.
    """
    return _threshold_query("rknn", db, q, k, tau, engine_kwargs)


@dataclass
class RankDistribution:
    """Bounds on P(rank = i) for ranks 1..n; rank i means count i-1."""

    ranks: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    result: IdcaResult


def inverse_ranking(
    db: Sequence[UncertainObject],
    b: UncertainObject,
    r: UncertainObject,
    **engine_kwargs,
) -> RankDistribution:
    """Distribution bounds of b's position in a distance ranking w.r.t. r."""
    result = idca(db, b, r, **engine_kwargs)
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
    to the plain expectation sum(P(count = i) * (i + 1)).  Bounds that no
    PDF satisfies (sum(lb) > 1 or sum(ub) < 1, beyond `MASS_TOLERANCE`)
    raise ValueError.
    """
    if dist.lb.sum() > 1.0 + MASS_TOLERANCE or dist.ub.sum() < 1.0 - MASS_TOLERANCE:
        raise ValueError("no PDF satisfies the bounds: sum(lb) > 1 or sum(ub) < 1")
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
    **engine_kwargs,
) -> list[tuple[object, float, float]]:
    """Per-object expected-rank intervals w.r.t. query q, in object-id order.

    Every target is refined as in `pknn_query`, with no predicate to stop it
    early; `on_iteration` sees the calls that `pknn_query` describes."""
    return [
        (target.id, *expected_rank_interval(dist))
        for target, dist, _, _, _ in _each_target(db, q, "knn", **engine_kwargs)
    ]
