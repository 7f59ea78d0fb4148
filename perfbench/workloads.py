"""Seeded workloads for the query benchmark.

Each workload fixes a synthetic database (``udom.model.generate_synthetic``)
and an operation from the public query API.  The seed derives the database and
a fixed-length list of queries; the timed loop runs that list round robin.

The cost of a query grows with the number of objects whose relation to it the
MBRs leave undecided: for inverse ranking the influence objects of the pair,
for pknn the objects whose k-NN membership is open.  Drawn freely, that count
makes the median of a handful of queries swing by tens of percent from one seed
to the next.  So, as TPC-H's query generator keeps selectivities fixed, these
lists are drawn (pairs by the ``bench.select_query_pair`` rule, uniform points)
until they hold a fixed multiset of counts, the workload's strata; the seed
still picks the data and the queries.  The counts are computed here from the
MBRs, not by the engine, so the engine only ever receives the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from udom.model import UncertainObject, generate_synthetic
from udom.queries import inverse_ranking, pknn_query, prknn_query

DEFAULT_SEED = 0
TARGET_RANK = 10  # bench.select_query_pair: target has the 10th-smallest MinDist
MAX_DRAWS = 4000  # pair draws per inverse-ranking list before falling back


@dataclass(frozen=True)
class Workload:
    name: str
    roadmap: str
    n: int
    max_extent: float
    samples: int
    kind: str  # "irank", "point_mix" or "knn"
    n_queries: int
    k: int = 0
    tau: float = 0.5
    strata: tuple = ()  # irank: influence counts; knn: k-NN open counts


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("irank_narrow", "W1", 10_000, 0.004, 50, "irank", 5, strata=(5, 6, 8, 10, 12)),
        Workload("irank_wide", "W3", 1000, 0.05, 16, "irank", 5, strata=(22, 28, 34, 40, 46)),
        Workload("point_mix", "W2", 250, 0.004, 100, "point_mix", 16, k=5),
        Workload("knn_wide", "W4", 150, 0.05, 32, "knn", 40, k=10, strata=(4, 5, 6, 7, 7, 8, 9, 10, 11, 12) * 4),
    )
}


@dataclass(frozen=True)
class Query:
    """One query of a workload list: an operation and the ids it refers to."""

    op: str  # "irank", "knn" or "rknn"
    target: int = -1  # irank: target object id
    ref: int = -1  # irank: reference object id
    point: tuple = ()  # knn/rknn: query point

    def describe(self) -> dict:
        if self.op == "irank":
            return {"op": self.op, "target": self.target, "ref": self.ref}
        return {"op": self.op, "point": list(self.point)}


def make_db(wl: Workload, seed: int) -> list[UncertainObject]:
    return generate_synthetic(wl.n, 2, wl.max_extent, wl.samples, seed)


def fresh_copy(db: list[UncertainObject]) -> list[UncertainObject]:
    """New objects with the same samples and no decomposition built yet."""
    return [UncertainObject(o.id, o.points, o.weights) for o in db]


def mbr_arrays(db):
    lo = np.stack([o.mbr.lo for o in db])
    hi = np.stack([o.mbr.hi for o in db])
    return lo, hi


def target_for(lo, hi, ref: int, rank: int = TARGET_RANK) -> int:
    """Index of the object with the `rank`-th smallest MinDist to db[ref].

    Same rule and tie order as ``udom.bench.select_query_pair`` (distance,
    then ``str(id)``; ids here are the row indices), on arrays.
    """
    gaps = np.maximum(np.maximum(lo - hi[ref], lo[ref] - hi), 0.0)
    dist = (gaps**2.0).sum(axis=1) ** 0.5
    others = np.delete(np.arange(len(lo)), ref)
    order = np.lexsort((others.astype(str), dist[others]))
    return int(others[order[min(rank - 1, len(others) - 1)]])


def _dominates(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi):
    """Corner-wise MBR domination test for L2 (a, b broadcast against each other)."""
    t = np.stack([r_lo, r_hi])[:, None, :]
    max_a = np.maximum(t - a_lo, a_hi - t) ** 2.0
    min_b = np.maximum(np.maximum(b_lo - t, t - b_hi), 0.0) ** 2.0
    return (max_a - min_b).max(axis=0).sum(axis=-1) < 0.0


def influence_count(lo, hi, b: int, r: int) -> int:
    """Objects other than b and r that the MBR test leaves undecided."""
    dom_b = _dominates(lo, hi, lo[b : b + 1], hi[b : b + 1], lo[r], hi[r])
    dominated = _dominates(lo[b : b + 1], hi[b : b + 1], lo, hi, lo[r], hi[r])
    undecided = ~dom_b & ~dominated
    undecided[[b, r]] = False
    return int(undecided.sum())


def knn_open_count(lo, hi, point, k: int) -> int:
    """Objects whose k-NN membership for `point` the MBR distance bounds leave
    open: not surely out (nearest distance beyond the k-th smallest farthest
    one) and not surely in (farthest distance below the k-th smallest nearest
    one)."""
    near = (np.maximum(np.maximum(lo - point, point - hi), 0.0) ** 2.0).sum(axis=1)
    far = (np.maximum(point - lo, hi - point) ** 2.0).sum(axis=1)
    return int(((near <= np.sort(far)[k - 1]) & (far >= np.sort(near)[k - 1])).sum())


def stratified(strata, draw, seed: int) -> list[Query]:
    """Queries from ``draw(rng) -> (count, query)``, one per entry of
    `strata`: a draw is kept when its count fills a free slot; slots still
    free after MAX_DRAWS take the unused draws with the nearest counts.
    Ordered by slot, so the first query is the cheapest."""
    rng = np.random.default_rng([seed, 1])
    free = list(strata)
    chosen: list[tuple[int, int, Query]] = []  # (slot, draw, query)
    spare: list[tuple[int, int, Query]] = []  # (count, draw, query)
    for i in range(MAX_DRAWS):
        count, query = draw(rng)
        if count in free:
            free.remove(count)
            chosen.append((count, i, query))
            if not free:
                break
        else:
            spare.append((count, i, query))
    for want in free:
        best = min(spare, key=lambda s: (abs(s[0] - want), s[1]))
        spare.remove(best)
        chosen.append((want, best[1], best[2]))
    return [query for _, _, query in sorted(chosen, key=lambda c: c[:2])]


def irank_queries(wl: Workload, db, seed: int) -> list[Query]:
    """Pairs by the select_query_pair rule, stratified by influence count."""
    lo, hi = mbr_arrays(db)

    def draw(rng):
        ref = int(rng.integers(0, len(db)))
        target = target_for(lo, hi, ref)
        return influence_count(lo, hi, target, ref), Query("irank", target, ref)

    return stratified(wl.strata, draw, seed)


def knn_queries(wl: Workload, db, seed: int) -> list[Query]:
    """Uniform points, stratified by their k-NN open count."""
    lo, hi = mbr_arrays(db)

    def draw(rng):
        point = rng.uniform(0.0, 1.0, size=2)
        return knn_open_count(lo, hi, point, wl.k), Query("knn", point=tuple(float(x) for x in point))

    return stratified(wl.strata, draw, seed)


def mix_queries(wl: Workload, seed: int) -> list[Query]:
    """Uniform points, alternately for pknn and prknn."""
    rng = np.random.default_rng([seed, 1])
    points = rng.uniform(0.0, 1.0, size=(wl.n_queries, 2))
    return [
        Query("knn" if i % 2 == 0 else "rknn", point=tuple(float(x) for x in pt))
        for i, pt in enumerate(points)
    ]


def make_queries(wl: Workload, db, seed: int) -> list[Query]:
    if wl.kind == "irank":
        return irank_queries(wl, db, seed)
    if wl.kind == "knn":
        return knn_queries(wl, db, seed)
    return mix_queries(wl, seed)


def point_object(point) -> UncertainObject:
    return UncertainObject("q", np.asarray(point, dtype=float)[None, :], np.ones(1))


def query_args(wl: Workload, query: Query, db):
    """(api function, positional args) for one query on database `db`."""
    if query.op == "irank":
        return inverse_ranking, (db, db[query.target], db[query.ref])
    fn = pknn_query if query.op == "knn" else prknn_query
    return fn, (db, point_object(query.point), wl.k, wl.tau)


def engine_pair(query: Query, db, target=None):
    """(b, r) of the engine's domination count for one target of a query:
    the fixed pair for irank, (target, q) for knn and (q, target) for rknn."""
    if query.op == "irank":
        return db[query.target], db[query.ref]
    q = point_object(query.point)
    return (target, q) if query.op == "knn" else (q, target)
