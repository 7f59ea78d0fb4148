"""Tests of the benchmark itself: inputs, tracer, correctness gate.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import check  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from udom.bench import select_query_pair  # noqa: E402
from udom.domination import classify  # noqa: E402
from udom.idca import idca  # noqa: E402
from udom.model import generate_synthetic  # noqa: E402
from udom.oracle import mc_baseline  # noqa: E402

WL = workloads.WORKLOADS


def small(name, **changes):
    """A scaled-down copy of a workload with the same kind of operation."""
    sizes = {
        "irank_narrow": dict(n=1500, max_extent=0.01, samples=16, strata=(3, 5), n_queries=2),
        "irank_wide": dict(n=150, samples=8, strata=(4, 6), n_queries=2),
        "point_mix": dict(n=120, max_extent=0.03, samples=8, n_queries=2),
        "knn_wide": dict(n=60, samples=8, strata=(3, 5), n_queries=2),
    }
    return dataclasses.replace(WL[name], **{**sizes[name], **changes})


@pytest.mark.parametrize("name", sorted(WL))
def test_query_lists_follow_the_seed(name):
    wl = WL[name]
    lists = {}
    for seed in (0, 1):
        db = workloads.make_db(wl, seed)
        first = workloads.make_queries(wl, db, seed)
        assert workloads.make_queries(wl, workloads.make_db(wl, seed), seed) == first
        assert len(first) == wl.n_queries
        lists[seed] = first
    assert lists[0] != lists[1]


def test_lists_hold_the_strata():
    for name, count in (
        ("irank_wide", lambda lo, hi, q: workloads.influence_count(lo, hi, q.target, q.ref)),
        ("knn_wide", lambda lo, hi, q: workloads.knn_open_count(lo, hi, np.array(q.point), WL["knn_wide"].k)),
    ):
        wl = WL[name]
        for seed in (0, 5):
            db = workloads.make_db(wl, seed)
            lo, hi = workloads.mbr_arrays(db)
            got = [count(lo, hi, q) for q in workloads.make_queries(wl, db, seed)]
            assert got == sorted(wl.strata)


def test_pair_rule_and_influence_count_match_the_library():
    db = generate_synthetic(400, 2, 0.05, 8, seed=3)
    lo, hi = workloads.mbr_arrays(db)
    rng_lib = np.random.default_rng(11)
    rng_own = np.random.default_rng(11)
    for _ in range(5):
        b, r = select_query_pair(db, rng_lib, workloads.TARGET_RANK)
        ref = int(rng_own.integers(0, len(db)))
        target = workloads.target_for(lo, hi, ref)
        assert (target, ref) == (b.id, r.id)
        assert workloads.influence_count(lo, hi, target, ref) == len(classify(db, b, r).influence_objects)


def test_wrapped_calls_return_what_unwrapped_calls_return():
    db = generate_synthetic(80, 2, 0.05, 8, seed=4)
    plain = idca(workloads.fresh_copy(db), db[0], db[1])
    tracer = Tracer()
    with tracer:
        traced = idca(workloads.fresh_copy(db), db[0], db[1])
    assert not tracer.absent
    assert np.array_equal(plain.distribution.lb, traced.distribution.lb)
    assert np.array_equal(plain.distribution.ub, traced.distribution.ub)
    assert plain.uncertainty_trace == traced.uncertainty_trace
    names = {span[1] for span in tracer.spans}
    assert {"domination.classify", "geometry.dominance_grid", "genfunc.expand", "model.leaves"} <= names
    double = Tracer().wrap("x", lambda a, b=1: (a, b))
    assert double(3, b=4) == (3, 4)


def test_tracer_restores_the_engine():
    import importlib

    mod = importlib.import_module("udom.idca")
    before = mod.classify
    with Tracer():
        assert mod.classify is not before
    assert mod.classify is before


def test_missing_hook_is_reported_not_raised():
    hooks = (
        ("gone.attr", "udom.idca", "no_such_kernel", None),
        ("gone.module", "udom.no_such_module", "f", None),
        ("gone.class", "udom.model", "NoSuchTree.leaves", None),
        *Tracer().hooks,
    )
    tracer = Tracer(hooks)
    with tracer:
        idca(generate_synthetic(30, 2, 0.05, 4, seed=1), *generate_synthetic(2, 2, 0.05, 4, seed=2))
    assert tracer.absent == ["gone.attr", "gone.module", "gone.class"]


def test_counter_failure_is_recorded_not_raised():
    def broken(counts, args, kwargs, out):
        raise AttributeError("renamed field")

    tracer = Tracer()
    assert tracer.wrap("layer", lambda: 7, broken)() == 7
    assert tracer.counter_errors == {"layer"}


@pytest.mark.parametrize("name", sorted(WL))
def test_self_times_add_up_to_query_wall_time(name, monkeypatch, tmp_path):
    wl = small(name)
    monkeypatch.setitem(runner.WORKLOADS, name, wl)
    monkeypatch.setattr(runner, "OUT_DIR", tmp_path)
    res = runner.run_workload(name, seed=7, seconds=0.0, trace=True)
    assert res["correct"], [q["errors"] for q in res["queries"]]
    layers = res["per_layer"]
    walls = [q["traced_wall_s"] for q in res["queries"]]
    total = sum(layers[k] for k in runner.SELF_TIME_TERMS) * len(walls)
    assert total == pytest.approx(sum(walls), rel=0.05)
    assert set(layers) == set(runner.PER_LAYER_UNITS)
    assert layers["idca.calls"] > 0 and layers["geometry.dominance_grid.box_pairs"] > 0


def test_end_to_end_run_reports_every_metric(monkeypatch):
    monkeypatch.setitem(runner.WORKLOADS, "point_mix", small("point_mix"))
    res = runner.run_workload("point_mix", seed=2, seconds=0.0, trace=False)
    assert res["correct"] and res["failed"] == 0
    assert set(res["end_to_end"]) == set(runner.END_TO_END_UNITS)
    assert all(v > 0 for v in res["end_to_end"].values())
    assert {"knn_query_s.p50", "rknn_query_s.p50", "failed_frac", "undecided_frac"} <= set(res["extra"])
    assert res["provenance"]["seed"] == 2 and res["provenance"]["trace"] is False


def test_reference_seconds_scale_wall_time_by_the_reference_job():
    execs = []
    for index, wall, ref in ((0, 0.2, 0.01), (0, 0.4, 0.02), (1, 0.3, 0.01)):
        ex = runner.Execution(index, "knn")
        ex.wall, ex.ref = wall, ref
        ex.funnel = {"targets": 1, "decided_iter0": 1, "decided_later": 0, "undecided": 0}
        execs.append(ex)
    setup = [(0.01, 0.01), (0.02, 0.01), (0.05, 0.01)]
    metrics, _ = runner.end_to_end(WL["knn_wide"], setup, execs)
    unit = runner.REF_JOB_S
    assert metrics["ref_query_s.p50"] == pytest.approx(25 * unit)  # median of 20 and 30
    assert metrics["ref_queries_per_s"] == pytest.approx(2 / (50 * unit))
    assert metrics["setup_s"] == pytest.approx(2 * unit)


def _threshold_record():
    return {"n": 3, "rows": [[1, 5, "in", 2, "criterion", 0.75, 0.8]]}


def test_compare_accepts_tiny_drift_and_rejects_changed_decisions():
    want = _threshold_record()
    drift = {"n": 3, "rows": [[1, 5, "in", 2, "criterion", 0.75 + 1e-12, 0.8]]}
    assert check.compare(drift, want) == []
    moved = {"n": 3, "rows": [[1, 5, "in", 2, "criterion", 0.75 + 1e-6, 0.8]]}
    assert check.compare(moved, want)
    flipped = {"n": 3, "rows": [[1, 5, "undecided", 2, "criterion", 0.75, 0.8]]}
    assert check.compare(flipped, want)
    dropped = {"n": 3, "rows": []}
    assert check.compare(dropped, want)


def test_exact_count_pdf_equals_mc_baseline_on_the_whole_db():
    db = generate_synthetic(40, 2, 0.2, 5, seed=9)
    for b, r in ((db[0], db[1]), (db[2], workloads.point_object((0.4, 0.6)))):
        full = mc_baseline(db, b, r, samples=None).pdf
        assert np.allclose(check.exact_count_pdf(db, b, r), full, atol=1e-12)


def test_step_monitor_flags_rising_width_and_bad_mass():
    from udom.genfunc import DomCountDistribution

    mon = check.StepMonitor()
    mon(1, DomCountDistribution(np.array([0.0, 0.0]), np.array([1.0, 1.0])))
    mon(2, DomCountDistribution(np.array([0.5, 0.0]), np.array([1.0, 0.5])))
    assert mon.errors == []
    mon(3, DomCountDistribution(np.array([0.0, 0.0]), np.array([1.0, 0.5])))
    assert any("width rose" in e for e in mon.errors)
    mon(1, DomCountDistribution(np.array([0.7, 0.7]), np.array([1.0, 1.0])))
    assert any("sum(lb)" in e for e in mon.errors)


def test_expected_files_match_the_default_query_lists():
    for name, wl in WL.items():
        want = check.load_expected(name)
        db = workloads.make_db(wl, workloads.DEFAULT_SEED)
        assert want["inputs"] == [q.describe() for q in workloads.make_queries(wl, db, workloads.DEFAULT_SEED)]
        assert len(want["queries"]) == wl.n_queries


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knn_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_run_reports():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WL)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runner.PER_LAYER_UNITS
