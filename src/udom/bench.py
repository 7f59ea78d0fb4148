"""Benchmark harness: pruning-power and runtime experiments emitting CSV.

Probability and count columns are deterministic under a fixed seed; wall-time
columns are measurements and carry no reproducibility guarantee.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domination import others
from .geometry import rect_min_dist
from .idca import (
    AnyOf,
    MaxDepth,
    PredicateDecided,
    UncertaintyBelow,
    idca,
    uncertainty,
    DEFAULT_MAX_DEPTH,
    DEFAULT_PAIR_BUDGET,
)
from .model import UncertainObject, generate_synthetic, load_dataset
from .oracle import mc_baseline
from .queries import QueryPredicate, knn_probability_bounds

__all__ = ["BenchConfig", "bench_pruning", "bench_runtime", "write_csv", "select_query_pair"]

PRUNING_HEADER = ["query", "criterion", "candidate_count", "iteration", "uncertainty"]
RUNTIME_HEADER = ["method", "query", "wall_time_s", "uncertainty_or_error", "decided_iteration"]


@dataclass
class BenchConfig:
    """Dataset, query-selection and engine settings for one benchmark run."""

    n: int = 10_000
    dims: int = 2
    max_extent: float = 0.004
    samples_per_object: int = 100
    seed: int = 0
    dataset_path: Optional[str] = None
    dataset_format: Optional[str] = None

    repetitions: int = 20
    target_rank: int = 10  # pick the target with the m-th smallest MinDist

    p: float = 2.0
    max_depth: int = DEFAULT_MAX_DEPTH
    pair_budget: int = DEFAULT_PAIR_BUDGET

    mc_samples: tuple = (4, 16, 64)
    mode: str = "full"  # "full" or "predicate"
    k: int = 10
    tau: float = 0.5

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.mode not in ("full", "predicate"):
            raise ValueError(f"unknown bench mode {self.mode!r}")

    def load_db(self) -> list[UncertainObject]:
        if self.dataset_path:
            return load_dataset(self.dataset_path, self.dataset_format, seed=self.seed)
        return generate_synthetic(
            self.n, self.dims, self.max_extent, self.samples_per_object, self.seed
        )


def select_query_pair(db: Sequence[UncertainObject], rng, m: int):
    """Reference = random object; target = object with the m-th smallest MinDist."""
    ref = db[int(rng.integers(0, len(db)))]
    rest = others(db, ref)
    rest.sort(key=lambda o: (rect_min_dist(o.mbr, ref.mbr), str(o.id)))
    target = rest[min(m - 1, len(rest) - 1)]
    return target, ref


def bench_pruning(config: BenchConfig) -> list[dict]:
    """Candidate counts and per-iteration uncertainty, optimal vs minmax."""
    db = config.load_db()
    rng = np.random.default_rng(config.seed + 1)
    rows = []
    for query_idx in range(config.repetitions):
        target, ref = select_query_pair(db, rng, config.target_rank)
        for criterion in ("optimal", "minmax"):
            result = idca(
                db,
                target,
                ref,
                p=config.p,
                stop=AnyOf([MaxDepth(config.max_depth), UncertaintyBelow(0.0)]),
                criterion=criterion,
                pair_budget=config.pair_budget,
            )
            cand_count = len(result.classification.influence_objects)
            for iteration, unc in enumerate(result.uncertainty_trace):
                rows.append(
                    {
                        "query": query_idx,
                        "criterion": criterion,
                        "candidate_count": cand_count,
                        "iteration": iteration,
                        "uncertainty": f"{unc:.12g}",
                    }
                )
    return rows


def _runtime_rows_full(db, target, ref, query_idx, config) -> list[dict]:
    rows = []
    t0 = time.perf_counter()
    marks = []

    def observe(depth, dist):
        marks.append((time.perf_counter() - t0, uncertainty(dist)))

    result = idca(
        db,
        target,
        ref,
        p=config.p,
        stop=AnyOf([MaxDepth(config.max_depth), UncertaintyBelow(0.0)]),
        pair_budget=config.pair_budget,
        on_iteration=observe,
    )
    for i, (wall, unc) in enumerate(marks):
        rows.append(
            {
                "method": f"idca_iter_{i}",
                "query": query_idx,
                "wall_time_s": f"{wall:.6f}",
                "uncertainty_or_error": f"{unc:.12g}",
                "decided_iteration": "",
            }
        )
    exact = result.distribution.lb if result.uncertainty_trace[-1] == 0.0 else None
    for s in config.mc_samples:
        t0 = time.perf_counter()
        est = mc_baseline(db, target, ref, samples=int(s), p=config.p, seed=config.seed)
        wall = time.perf_counter() - t0
        err = "" if exact is None else f"{0.5 * np.abs(est.pdf - exact).sum():.12g}"
        rows.append(
            {
                "method": f"mc_{s}",
                "query": query_idx,
                "wall_time_s": f"{wall:.6f}",
                "uncertainty_or_error": err,
                "decided_iteration": "",
            }
        )
    return rows


def _runtime_rows_predicate(db, target, ref, query_idx, config) -> list[dict]:
    predicate = QueryPredicate("knn", config.k, config.tau)
    t0 = time.perf_counter()
    result = idca(
        db,
        target,
        ref,
        p=config.p,
        stop=AnyOf(
            [
                MaxDepth(config.max_depth),
                UncertaintyBelow(0.0),
                PredicateDecided(predicate.decide),
            ]
        ),
        pair_budget=config.pair_budget,
    )
    wall = time.perf_counter() - t0
    decided = predicate.decide(result.distribution)
    bounds = knn_probability_bounds(result.distribution, config.k)
    return [
        {
            "method": f"idca_predicate_k{config.k}_tau{config.tau}",
            "query": query_idx,
            "wall_time_s": f"{wall:.6f}",
            "uncertainty_or_error": f"{bounds.ub - bounds.lb:.12g}",
            "decided_iteration": str(result.iterations_run - 1) if decided else "",
        }
    ]


def bench_runtime(config: BenchConfig) -> list[dict]:
    """Wall-time rows for per-iteration refinement and the MC partner."""
    db = config.load_db()
    rng = np.random.default_rng(config.seed + 1)
    rows = []
    for query_idx in range(config.repetitions):
        target, ref = select_query_pair(db, rng, config.target_rank)
        if config.mode == "full":
            rows.extend(_runtime_rows_full(db, target, ref, query_idx, config))
        else:
            rows.extend(_runtime_rows_predicate(db, target, ref, query_idx, config))
    return rows


def write_csv(rows: list[dict], header: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
