"""One workload in one process: set-up, warm-up, timed loop, checks, metrics.

Load is a closed loop with one client: each query starts after the previous
one has finished.  Every timed query runs on freshly built objects (no
decomposition yet), as each ``udom query`` CLI call does; the rebuild, the
output checks and the tracer's bookkeeping stay outside the timed calls.
The timed loop runs the workload's query list round robin for ``seconds`` of
wall time, and at least once through.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import check
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, fresh_copy, make_db, make_queries, query_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# Set-up runs per process (setup_s is their median): at least SETUP_MIN_RUNS
# and SETUP_MIN_S seconds of wall time in all, at most SETUP_MAX_RUNS.
SETUP_MIN_RUNS, SETUP_MAX_RUNS, SETUP_MIN_S = 3, 60, 1.5

# A shared host's speed swings by up to 2x for tens of seconds at a time, so
# whole runs can fall into a slow phase.  The reference job below does fixed
# work of the engine's kinds (many small numpy calls, broadcast array kernels);
# it runs right before and right after every timed call and set-up, and the
# bounded timings are given in reference seconds:
#     wall time * REF_JOB_S / reference job time around it,
# REF_JOB_S being the job's time on the host the README describes, when quiet.
# The plain wall-time figures are reported beside them.
REF_JOB_S = 0.0076
_REF_RNG = np.random.default_rng(0)
_REF_A, _REF_B = _REF_RNG.random((48, 2)), _REF_RNG.random((256, 2))

END_TO_END_UNITS = {
    "ref_query_s.p50": "s",
    "ref_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics, normalised per traced query so that runs with different
# numbers of calls compare.  "s" entries are inclusive span time, "self_s" the span
# minus its child spans.
PER_LAYER_UNITS = {
    "geometry.dominance_grid.calls": "count/query",
    "geometry.dominance_grid.s": "s/query",
    "geometry.dominance_grid.box_pairs": "count/query",
    "model.leaves.calls": "count/query",
    "model.leaves.s": "s/query",
    "model.split.calls": "count/query",
    "domination.classify.calls": "count/query",
    "domination.classify.self_s": "s/query",
    "domination.classify.objects": "count/query",
    "domination.classify.dominators": "count/query",
    "domination.classify.influence_ratio": "ratio",
    "domination.pdom_bounds_grid.calls": "count/query",
    "domination.pdom_bounds_grid.self_s": "s/query",
    "domination.pdom_bounds_grid.leaf_triples": "count/query",
    "genfunc.expand.calls": "count/query",
    "genfunc.expand.s": "s/query",
    "genfunc.expand.rows": "count/query",
    "genfunc.expand.factors": "count/query",
    "genfunc.expand.cells": "count/query",
    "genfunc.expand.unresolved_ratio": "ratio",
    "genfunc.extract.calls": "count/query",
    "genfunc.extract.s": "s/query",
    "idca.calls": "count/query",
    "idca.s": "s/query",
    "idca.self_s": "s/query",
    "idca.iterations": "count/query",
    "idca.stop.criterion": "count/query",
    "idca.stop.exhausted": "count/query",
    "idca.stop.pair_budget": "count/query",
    "queries.s": "s/query",
    "queries.self_s": "s/query",
    "queries.targets": "count/query",
    "queries.decided_iter0": "count/query",
    "queries.decided_later": "count/query",
    "queries.undecided": "count/query",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

# Self-time terms that partition a query's root span (model.leaves includes
# its nested splits).
SELF_TIME_TERMS = (
    "geometry.dominance_grid.s",
    "model.leaves.s",
    "domination.classify.self_s",
    "domination.pdom_bounds_grid.self_s",
    "genfunc.expand.s",
    "genfunc.extract.s",
    "idca.self_s",
    "queries.self_s",
)


def provenance(seed: int, trace: bool, n_queries: int) -> dict:
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "udom").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "queries_per_list": n_queries,
        "trace": trace,
    }


def _git_sha():
    """HEAD commit read from .git files (the checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def reference_job() -> float:
    """Wall time of a fixed job; see REF_JOB_S."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(900):
        acc += float(np.maximum(_REF_A[i % 48], 0.5).sum())
    for _ in range(18):
        acc += float(np.maximum(_REF_A[:, None, :] - _REF_B[None, :, :], 0.0).sum(axis=-1).min())
    return time.perf_counter() - t0


def timed(fn, *args):
    """(result, wall time, mean reference job time right before and after)."""
    before = reference_job()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    return out, wall, (before + reference_job()) / 2


class Execution:
    """One timed call of one query and what the checks found."""

    def __init__(self, index, op):
        self.index = index
        self.op = op
        self.wall = 0.0
        self.ref = 0.0  # reference job time around the untraced call
        self.traced_wall = None
        self.errors: list[str] = []
        self.digest = None
        self.funnel = None
        self.answer = None  # kept for the latest run of each query only

    @property
    def failed(self):
        return bool(self.errors)


def call_query(wl, query, db, tracer=None, index=-1):
    """Run one query on fresh objects; returns (answer, record, wall, errors).

    An exception, from the engine or from reading its answer, fails the query
    and the run goes on.
    """
    fresh = fresh_copy(db)
    monitor = check.StepMonitor()
    fn, args = query_args(wl, query, fresh)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            answer = fn(*args, on_iteration=monitor)
        else:
            with tracer:
                answer = tracer.call(index, fn, *args, on_iteration=monitor)
        wall = time.perf_counter() - t0
        errors = monitor.errors + check.answer_errors(answer, wl.tau)
        rec = check.record(answer)
    except Exception:
        return None, None, time.perf_counter() - t0, [traceback.format_exc(limit=3)]
    return answer, rec, wall, errors


def execute(wl, index, query, db, expected, tracer=None, traced_first=False) -> Execution:
    """One timed query; with a tracer, also a traced call of the same query
    (before or after the untraced one) whose output must be identical."""
    ex = Execution(index, query.op)
    if tracer is not None and traced_first:
        traced = call_query(wl, query, db, tracer, index)
    (answer, rec, ex.wall, ex.errors), _, ex.ref = timed(call_query, wl, query, db)
    if tracer is not None and not traced_first:
        traced = call_query(wl, query, db, tracer, index)
    if tracer is not None:
        ex.traced_wall = traced[2]
        ex.errors += traced[3]
    if answer is None:
        return ex
    ex.digest = check.digest(rec)
    ex.funnel = funnel(answer)
    ex.answer = answer
    if expected is not None:
        ex.errors += check.compare(rec, expected[index])
    if tracer is not None and traced[1] is not None and check.digest(traced[1]) != ex.digest:
        ex.errors.append("traced output digest differs from untraced")
    return ex


def funnel(answer) -> dict:
    out = {"targets": 0, "decided_iter0": 0, "decided_later": 0, "undecided": 0}
    if not hasattr(answer, "decisions"):
        out["targets"] = 1
        return out
    for d in answer.decisions:
        out["targets"] += 1
        if d.decision == "undecided":
            out["undecided"] += 1
        elif d.iterations <= 1:
            out["decided_iter0"] += 1
        else:
            out["decided_later"] += 1
    return out


def oracle_check(wl, queries, latest, db, seed) -> dict:
    """Bracket one seed-chosen query per operation type against the exact
    PDF; returns {query index: errors} for the queries that fail."""
    rng = np.random.default_rng([seed, 2])
    failures = {}
    for op in sorted({q.op for q in queries}):
        idx = [i for i, q in enumerate(queries) if q.op == op and i in latest]
        if not idx:
            continue
        i = int(rng.choice(idx))
        errors = check.oracle_errors(wl, queries[i], latest[i].answer, db, rng)
        if errors:
            failures[i] = ["oracle: " + e for e in errors]
    return failures


def layer_metrics(tracer: Tracer, execs: list[Execution]) -> dict:
    n = len(execs)
    times = tracer.layer_times()
    counts = tracer.counts

    def t(name, key):
        return times.get(name, {}).get(key, 0) / n

    m = {}
    for layer in ("geometry.dominance_grid", "model.leaves", "genfunc.expand", "genfunc.extract", "idca"):
        m[f"{layer}.calls"] = t(layer, "calls")
        m[f"{layer}.s"] = t(layer, "s")
    m["idca.self_s"] = t("idca", "self_s")
    m["model.split.calls"] = t("model.split", "calls")
    for layer in ("domination.classify", "domination.pdom_bounds_grid"):
        m[f"{layer}.calls"] = t(layer, "calls")
        m[f"{layer}.self_s"] = t(layer, "self_s")
    m["queries.s"] = t("queries", "s")
    m["queries.self_s"] = t("queries", "self_s")
    for key in (
        "geometry.dominance_grid.box_pairs",
        "domination.classify.objects",
        "domination.classify.dominators",
        "domination.pdom_bounds_grid.leaf_triples",
        "genfunc.expand.rows",
        "genfunc.expand.factors",
        "genfunc.expand.cells",
        "idca.iterations",
        "idca.stop.criterion",
        "idca.stop.exhausted",
        "idca.stop.pair_budget",
    ):
        m[key] = counts.get(key, 0) / n
    objects = counts.get("domination.classify.objects", 0)
    factors = counts.get("genfunc.expand.factors", 0)
    m["domination.classify.influence_ratio"] = counts.get("domination.classify.influence", 0) / objects if objects else 0.0
    m["genfunc.expand.unresolved_ratio"] = counts.get("genfunc.expand.unresolved", 0) / factors if factors else 0.0
    flow = [ex.funnel for ex in execs if ex.funnel is not None]
    for key in ("targets", "decided_iter0", "decided_later", "undecided"):
        m[f"queries.{key}"] = sum(f[key] for f in flow) / n
    traced = sum(ex.traced_wall or 0.0 for ex in execs)
    untraced = sum(ex.wall for ex in execs)
    m["trace.overhead"] = traced / untraced - 1.0 if untraced else 0.0
    m["trace.coverage"] = sum(m[k] for k in SELF_TIME_TERMS) * n / traced if traced else 0.0
    return {k: m[k] for k in PER_LAYER_UNITS}


def end_to_end(wl, setup, execs) -> tuple[dict, dict]:
    """(bounded metrics for the result line, other figures for the report).

    `setup` holds (wall, reference job time) per set-up run.  A query's time
    in reference seconds is the sum of its calls' wall times over the sum of
    their reference job times, times REF_JOB_S.
    """
    ok = [ex for ex in execs if ex.funnel is not None]
    wall, ref, best = {}, {}, {}
    for ex in ok:
        wall[ex.index] = wall.get(ex.index, 0.0) + ex.wall
        ref[ex.index] = ref.get(ex.index, 0.0) + ex.ref
        best[ex.index] = min(ex.wall, best.get(ex.index, ex.wall))
    per_query = [REF_JOB_S * wall[i] / ref[i] for i in wall]
    busy = sum(ex.wall for ex in execs)
    failed = sum(ex.failed for ex in execs)
    metrics = {
        "ref_query_s.p50": statistics.median(per_query) if per_query else 0.0,
        "ref_queries_per_s": len(per_query) / sum(per_query) if per_query else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(REF_JOB_S * w / r for w, r in setup),
    }
    extra = {
        "query_s.p50": (statistics.median(ex.wall for ex in ok) if ok else 0.0, "s"),
        "best_query_s.p50": (statistics.median(best.values()) if best else 0.0, "s"),
        "queries_per_s": ((len(execs) - failed) / busy if busy else 0.0, "1/s"),
        "setup_wall_s": (statistics.median(w for w, _ in setup), "s"),
        "ref_job_s.p50": (statistics.median(ex.ref for ex in execs), "s"),
        "failed_frac": (failed / len(execs), "ratio"),
        "queries_timed": (len(execs), "count"),
    }
    if wl.kind == "point_mix":
        for op in ("knn", "rknn"):
            walls = [ex.wall for ex in ok if ex.op == op]
            extra[f"{op}_query_s.p50"] = (statistics.median(walls) if walls else 0.0, "s")
    if wl.kind != "irank":
        targets = sum(ex.funnel["targets"] for ex in ok)
        undecided = sum(ex.funnel["undecided"] for ex in ok)
        extra["undecided_frac"] = (undecided / targets if targets else 0.0, "ratio")
    return metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    phases = {}
    t_run = time.perf_counter()
    setup = []  # (wall, reference job time) per set-up run
    while len(setup) < SETUP_MIN_RUNS or (time.perf_counter() - t_run < SETUP_MIN_S and len(setup) < SETUP_MAX_RUNS):
        db = None  # free the previous copy first, so peak RSS holds one database
        db, *times = timed(make_db, wl, seed)
        setup.append(times)
    queries = make_queries(wl, db, seed)
    expected = check.load_expected(name) if seed == DEFAULT_SEED else None
    if expected is not None:
        if expected["inputs"] != [q.describe() for q in queries]:
            raise SystemExit(f"{name}: query list differs from {check.EXPECTED_DIR.name}/{name}.json")
        expected = expected["queries"]

    phases["setup_and_inputs_s"] = time.perf_counter() - t_run
    t_phase = time.perf_counter()
    call_query(wl, queries[0], db)  # warm-up, discarded
    phases["warmup_s"] = time.perf_counter() - t_phase

    tracer = Tracer() if trace else None
    execs: list[Execution] = []
    latest: dict[int, Execution] = {}
    last = [0.0] * len(queries)  # each query's latest turn, checks included
    start = time.perf_counter()
    # Round robin over the list: the first pass always completes; after it, a
    # query starts only if its turn should end within `seconds`.
    while len(execs) < len(queries) or time.perf_counter() - start + last[len(execs) % len(queries)] <= seconds:
        i = len(execs) % len(queries)
        t_turn = time.perf_counter()
        ex = execute(wl, i, queries[i], db, expected, tracer, traced_first=len(execs) % 2 == 1)
        execs.append(ex)
        if ex.answer is not None:
            if i in latest:
                latest[i].answer = None
            latest[i] = ex
        last[i] = time.perf_counter() - t_turn

    phases["window_s"] = time.perf_counter() - start
    t_phase = time.perf_counter()
    # Outputs are deterministic, so an oracle failure fails every run of that query.
    for i, errors in oracle_check(wl, queries, latest, db, seed).items():
        for ex in execs:
            if ex.index == i:
                ex.errors += errors
    phases["oracle_s"] = time.perf_counter() - t_phase

    metrics, extra = end_to_end(wl, setup, execs)
    failed = sum(ex.failed for ex in execs)
    result = {
        "workload": name,
        "provenance": provenance(seed, trace, len(queries)),
        "params": {
            "n": wl.n, "max_extent": wl.max_extent, "samples": wl.samples, "kind": wl.kind,
            "k": wl.k, "tau": wl.tau, "roadmap": wl.roadmap, "seconds": seconds,
            "passes": len(execs) / len(queries),
        },
        "phases": phases,
        "correct": failed == 0,
        "attempted": len(execs),
        "failed": failed,
        "end_to_end": metrics,
        "extra": extra,
        "queries": [
            {"index": ex.index, **queries[ex.index].describe(), "wall_s": ex.wall, "ref_s": ex.ref,
             "traced_wall_s": ex.traced_wall, "digest": ex.digest, "errors": ex.errors}
            for ex in execs
        ],
    }
    if tracer is not None:
        result["per_layer"] = layer_metrics(tracer, execs)
        per_query = sum(ex.traced_wall or 0.0 for ex in execs) / len(execs)
        result["self_time_shares"] = {k: result["per_layer"][k] / per_query for k in SELF_TIME_TERMS}
        result["absent_layers"] = tracer.absent
        result["counter_errors"] = sorted(tracer.counter_errors)
        result["spans_file"] = _write_spans(name, seed, tracer)
    return result


def _write_spans(name, seed, tracer) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}_seed{seed}_spans.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["query", "name", "parent", "start", "end"], "spans": tracer.spans}, fh)
    return os.path.relpath(path, ROOT)


def write_result(result: dict) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    prov = result["provenance"]
    path = OUT_DIR / f"{result['workload']}_seed{prov['seed']}_trace{int(prov['trace'])}.json"
    path.write_text(json.dumps(result, indent=1))
    return os.path.relpath(path, ROOT)
