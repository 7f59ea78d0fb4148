import functools
import importlib

import numpy as np
import pytest

from udom.domination import classify
from udom.genfunc import DomCountDistribution, gf_exact
from udom.geometry import Rect
from udom.idca import (
    AnyOf,
    MaxDepth,
    PredicateDecided,
    StopCriterion,
    UncertaintyBelow,
    idca,
    uncertainty,
)
from udom.model import build_object
from udom.oracle import enumerate_exact

from conftest import random_instance
from reference import evaluate_depth_dense, extract_bounds, pdom_bounds_loop, pdom_bounds_stacked, ugf_expand

FULL = AnyOf([MaxDepth(12), UncertaintyBelow(0.0)])


def point_obj(obj_id, xy):
    return build_object(obj_id, [(xy, 1.0)])


def dependency_fixture():
    a1 = point_obj("a1", (0.0, 0.0))
    a2 = point_obj("a2", (0.0, 0.0))
    b = point_obj("b", (4.0, 0.0))
    r = build_object("r", [((1.0, 0.0), 0.5), ((4.0, 0.0), 0.5)])
    return [a1, a2, b], b, r


def test_all_complete_dominators_concentrates_after_iteration_zero():
    r = point_obj("r", (0.0, 0.0))
    b = point_obj("b", (10.0, 0.0))
    db = [point_obj(f"o{i}", (0.1 * (i + 1), 0.0)) for i in range(4)] + [b]
    res = idca(db, b, r, stop=MaxDepth(1))
    assert res.iterations_run == 1
    expected = np.zeros(5)
    expected[4] = 1.0
    np.testing.assert_allclose(res.distribution.lb, expected, atol=1e-12)
    np.testing.assert_allclose(res.distribution.ub, expected, atol=1e-12)
    # Counts below the certain-dominator count are provably impossible.
    assert (res.distribution.ub[:4] == 0).all()


def test_dependency_fixture_full_depth_exact():
    db, b, r = dependency_fixture()
    res = idca(db, b, r, stop=FULL)
    np.testing.assert_allclose(res.distribution.lb, [0.5, 0.0, 0.5], atol=1e-9)
    np.testing.assert_allclose(res.distribution.ub, [0.5, 0.0, 0.5], atol=1e-9)
    # Treating the two candidates as independent coin flips would yield 0.25
    # for count 2; conditioning on reference partitions avoids that error.
    naive = gf_exact([0.5, 0.5])
    assert abs(naive[2] - 0.25) < 1e-12
    assert abs(res.distribution.lb[2] - naive[2]) > 0.2


def test_oracle_sandwich_monotone_and_convergence(rng):
    for _ in range(40):
        db, b, r = random_instance(rng)
        exact = enumerate_exact(db, b, r).pdf
        res = idca(db, b, r, stop=FULL)
        prev = None
        for dist in res.history:
            assert (exact >= dist.lb - 1e-9).all()
            assert (exact <= dist.ub + 1e-9).all()
            if prev is not None:
                assert (dist.lb >= prev.lb - 1e-9).all()
                assert (dist.ub <= prev.ub + 1e-9).all()
            prev = dist
        np.testing.assert_allclose(res.distribution.lb, exact, atol=1e-9)
        np.testing.assert_allclose(res.distribution.ub, exact, atol=1e-9)
        trace = res.uncertainty_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
        assert trace[-1] <= 1e-9


def test_engine_matches_public_operations(rng):
    """One refinement sweep recomputed from the reference pieces: per-pair
    scalar candidate bounds -> sparse UGF -> extraction -> mass-weighted sum
    -> shift by the certain-dominator count."""
    for _ in range(10):
        db, b, r = random_instance(rng, n_objects=5)
        depth = 3
        res = idca(db, b, r, stop=MaxDepth(depth))
        cls = classify(db, b, r)
        by_id = {o.id: o for o in db}
        cands = [by_id[i] for i in cls.influence_objects]
        if not cands:
            continue
        counts = slice(cls.complete_domination_count, cls.complete_domination_count + len(cands) + 1)
        lb = np.zeros(len(db))
        ub = np.zeros(len(db))
        bf, rf = b.leaves_at_depth(depth), r.leaves_at_depth(depth)
        for i in range(len(bf)):
            for j in range(len(rf)):
                b_rect = Rect(bf.lo[i], bf.hi[i])
                r_rect = Rect(rf.lo[j], rf.hi[j])
                bounds = [pdom_bounds_loop(a, b_rect, r_rect, depth=depth) for a in cands]
                dist = extract_bounds(ugf_expand(bounds))
                lb[counts] += bf.mass[i] * rf.mass[j] * dist.lb
                ub[counts] += bf.mass[i] * rf.mass[j] * dist.ub
        np.testing.assert_allclose(res.distribution.lb, lb, atol=1e-9)
        np.testing.assert_allclose(res.distribution.ub, np.minimum(ub, 1.0), atol=1e-9)


def test_database_is_validated_once_per_call(rng, monkeypatch):
    """One `others` pass (inside classify) per idca call, for a target in the
    database and for an external one; the arrays still have a slot per
    database object other than the target, plus one.  `others` is counted
    under both names the engine could call it by."""
    validate = importlib.import_module("udom.domination").others
    calls = []

    def counted(db, *exclude):
        calls.append(len(db))
        return validate(db, *exclude)

    for module in ("udom.domination", "udom.idca"):
        monkeypatch.setattr(importlib.import_module(module), "others", counted, raising=False)
    db, b, r = random_instance(rng, n_objects=6)
    for target, size in ((b, len(db)), (point_obj("x", (0.5, 0.5)), len(db) + 1)):
        calls.clear()
        res = idca(db, target, r, stop=MaxDepth(3))
        assert calls == [len(db)]
        assert len(res.distribution) == size


def tied_db(rng, d, n_objects, min_samples, spread):
    """Objects of min_samples..6 weighted samples around random centres;
    every second one sits on a 0.25 grid, so samples coincide and distances
    tie."""
    db = []
    for i in range(n_objects):
        k = int(rng.integers(min_samples, 7))
        pts = rng.uniform(0.0, 1.0, size=d) + rng.uniform(-spread, spread, size=(k, d))
        if i % 2:
            pts = np.round(pts * 4) / 4
        db.append(build_object(i, list(zip(pts, rng.uniform(0.1, 1.0, size=k)))))
    return db


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_history_matches_per_candidate_reference(rng, monkeypatch, d):
    """Every depth's bounds equal, bit for bit, those from evaluating each
    candidate alone with the (m, n, d, 2) dominance formula.  Some objects sit
    on a coarse grid, so samples coincide and distances tie."""
    engine = importlib.import_module("udom.idca")
    stacked = engine.pdom_bounds_grid
    for trial in range(12):
        p = (1.0, 2.0, 3.0)[trial % 3]
        db = tied_db(rng, d, int(rng.integers(3, 8)), min_samples=1, spread=0.3)
        b, r = db[0], db[1]
        criterion = "minmax" if trial % 4 == 3 else "optimal"
        runs = []
        for pdom in (stacked, pdom_bounds_stacked):
            monkeypatch.setattr(engine, "pdom_bounds_grid", pdom)
            runs.append(idca(db, b, r, p=p, stop=MaxDepth(6), criterion=criterion))
        got, want = runs
        assert got.stop_reason == want.stop_reason
        assert len(got.history) == len(want.history)
        for g, w in zip(got.history, want.history):
            assert g.lb.tobytes() == w.lb.tobytes()
            assert g.ub.tobytes() == w.ub.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_multi_chunk_history_matches_dense_reference(rng, monkeypatch, d):
    """With a float budget small enough to split the pairs of a depth into
    several chunks, every depth's bounds equal, bit for bit, those of the
    same chunks expanded on full (n+1, n+1) grids, extracted by the per-count
    loop and mixed in chunk order."""
    engine = importlib.import_module("udom.idca")
    expand = engine._ugf_expand_batch
    calls = []

    def counted(plb, pub):
        calls.append(plb.shape)
        return expand(plb, pub)

    monkeypatch.setattr(engine, "_ugf_expand_batch", counted)
    split_runs = 0
    for trial in range(16):
        p = (1.0, 2.0, 3.0)[trial % 3]
        criterion = "minmax" if trial % 2 else "optimal"
        db = tied_db(rng, d, int(rng.integers(4, 9)), min_samples=2, spread=0.4)
        b, r = db[0], db[1]
        # A chunk holds budget // (n+1)^2 pair rows for n candidates.
        n = len(classify(db, b, r, p=p, criterion=criterion).influence_objects)
        budget = (n + 1) ** 2 * (1, 2, 4, 8)[trial % 4]
        monkeypatch.setattr(engine, "_BATCH_FLOAT_BUDGET", budget)
        calls.clear()
        got = idca(db, b, r, p=p, stop=MaxDepth(6), criterion=criterion)
        # More expansion calls than depths: some depth was split into chunks.
        split_runs += len(calls) > len(got.history)
        with monkeypatch.context() as m:
            m.setattr(engine, "_evaluate_depth", functools.partial(evaluate_depth_dense, budget=budget))
            want = idca(db, b, r, p=p, stop=MaxDepth(6), criterion=criterion)
        assert got.stop_reason == want.stop_reason
        assert len(got.history) == len(want.history)
        for g, w in zip(got.history, want.history):
            assert g.lb.tobytes() == w.lb.tobytes()
            assert g.ub.tobytes() == w.ub.tobytes()
    assert split_runs >= 12


def test_uncertainty_values():
    tight = DomCountDistribution(np.array([0.3, 0.7]), np.array([0.3, 0.7]))
    assert uncertainty(tight) == 0.0
    fresh = DomCountDistribution(np.zeros(4), np.ones(4))
    assert uncertainty(fresh) == 4.0
    worked = DomCountDistribution(np.array([0.10, 0.34, 0.12]), np.array([0.32, 0.78, 0.40]))
    assert uncertainty(worked) == pytest.approx(0.94, abs=1e-12)


@pytest.mark.parametrize("p,d", [(1.0, 2), (3.0, 2), (2.0, 1), (2.0, 3)])
def test_sandwich_other_norms_and_dimensions(rng, p, d):
    for _ in range(10):
        db, b, r = random_instance(rng, n_objects=5, d=d)
        exact = enumerate_exact(db, b, r, p=p).pdf
        res = idca(db, b, r, p=p, stop=FULL)
        for dist in res.history:
            assert (exact >= dist.lb - 1e-9).all()
            assert (exact <= dist.ub + 1e-9).all()
        np.testing.assert_allclose(res.distribution.lb, exact, atol=1e-9)
        np.testing.assert_allclose(res.distribution.ub, exact, atol=1e-9)


def test_equal_weight_convergence_depth(rng):
    """Equal-weight general-position objects fully separate (and the engine
    becomes exact) once the depth reaches ceil(log2(samples)) + 1."""
    db = []
    for i in range(4):
        pts = rng.uniform(0, 1, size=(4, 2))
        db.append(build_object(f"o{i}", [(p, 1.0) for p in pts]))
    b = db[0]
    r = build_object("r", [(p, 1.0) for p in rng.uniform(0, 1, size=(4, 2))])
    depth = int(np.ceil(np.log2(4))) + 1
    res = idca(db, b, r, stop=MaxDepth(depth))
    assert res.uncertainty_trace[-1] <= 1e-9
    exact = enumerate_exact(db, b, r).pdf
    np.testing.assert_allclose(res.distribution.lb, exact, atol=1e-9)


def test_stop_criteria_basics(rng):
    db, b, r = random_instance(rng, n_objects=5)
    res1 = idca(db, b, r, stop=MaxDepth(1))
    assert res1.iterations_run == 1
    res3 = idca(db, b, r, stop=MaxDepth(3))
    assert res3.iterations_run <= 3
    res_eps = idca(db, b, r, stop=UncertaintyBelow(0.5))
    assert res_eps.uncertainty_trace[-1] <= 0.5 or res_eps.stop_reason != "criterion"

    class AllOf(StopCriterion):
        def should_stop(self, depth, dist):
            return MaxDepth(2).should_stop(depth, dist) and UncertaintyBelow(10.0).should_stop(depth, dist)

    combined = idca(db, b, r, stop=AllOf())
    assert combined.iterations_run >= 2


def test_predicate_decided_stop(rng):
    db, b, r = random_instance(rng, n_objects=5)

    def decide(dist):
        width = float((dist.ub - dist.lb).sum())
        return "ok" if width < 0.75 else None

    res = idca(db, b, r, stop=AnyOf([PredicateDecided(decide), MaxDepth(12)]))
    assert decide(res.distribution) == "ok" or res.stop_reason in ("exhausted", "pair_budget")


def test_pair_budget_stop(rng):
    db, b, r = random_instance(rng, n_objects=6, max_samples=4)
    res = idca(db, b, r, stop=MaxDepth(12), pair_budget=2)
    if res.stop_reason == "pair_budget":
        assert res.iterations_run < 12
    else:
        # Degenerate instance with no influence objects stops as exhausted.
        assert res.stop_reason in ("criterion", "exhausted")
    trace = res.uncertainty_trace
    assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))


def test_criterion_dominance(rng):
    """The corner-wise filter never leaves more influence objects than the
    min/max baseline."""
    for _ in range(30):
        db, b, r = random_instance(rng, n_objects=6)
        opt = idca(db, b, r, stop=MaxDepth(1), criterion="optimal")
        mm = idca(db, b, r, stop=MaxDepth(1), criterion="minmax")
        assert len(opt.classification.influence_objects) <= len(
            mm.classification.influence_objects
        )


def test_minmax_mode_is_sound_and_converges(rng):
    """The baseline-criterion mode gives valid (looser) bounds and still
    collapses to the exact PDF at full separation."""
    for _ in range(15):
        db, b, r = random_instance(rng, n_objects=5)
        exact = enumerate_exact(db, b, r).pdf
        res = idca(db, b, r, stop=FULL, criterion="minmax")
        for dist in res.history:
            assert (exact >= dist.lb - 1e-9).all()
            assert (exact <= dist.ub + 1e-9).all()
        np.testing.assert_allclose(res.distribution.lb, exact, atol=1e-9)
        np.testing.assert_allclose(res.distribution.ub, exact, atol=1e-9)


def test_reference_in_database_is_excluded(rng):
    db, b, _ = random_instance(rng, n_objects=5)
    r = db[0] if db[0] is not b else db[1]
    res = idca(db, b, r, stop=FULL)
    exact = enumerate_exact(db, b, r).pdf
    np.testing.assert_allclose(res.distribution.lb, exact, atol=1e-9)
    groups = (
        res.classification.complete_dominators
        + res.classification.influence_objects
        + res.classification.irrelevant
    )
    assert b.id not in groups and r.id not in groups
    assert len(groups) == len(db) - 2


def test_engine_validates():
    db, b, r = dependency_fixture()
    with pytest.raises(ValueError):
        idca(db, b, r, pair_budget=0)
    with pytest.raises(ValueError):
        idca(db, b, r, p=0.2)
    with pytest.raises(ValueError):
        idca(db, b, r, criterion="fancy")
    with pytest.raises(ValueError):
        MaxDepth(0)
    with pytest.raises(ValueError):
        UncertaintyBelow(-1.0)
