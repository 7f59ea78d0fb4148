import functools
import gc
import importlib
import weakref

import numpy as np
import pytest

from udom.domination import classify
from udom.genfunc import DomCountDistribution, gf_exact
from udom.geometry import Rect
from udom.idca import idca, uncertainty
from udom.model import DecompositionTree, build_object, generate_synthetic
from udom.oracle import enumerate_exact
from udom.queries import pknn_query, prknn_query

from conftest import random_instance
from reference import evaluate_depth_dense, extract_bounds, pdom_bounds_loop, pdom_bounds_stacked, ugf_expand

FULL = dict(max_depth=12, epsilon=0.0)


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
    res = idca(db, b, r, max_depth=1)
    assert res.iterations_run == 1
    expected = np.zeros(5)
    expected[4] = 1.0
    np.testing.assert_allclose(res.distribution.lb, expected, atol=1e-12)
    np.testing.assert_allclose(res.distribution.ub, expected, atol=1e-12)
    # Counts below the certain-dominator count are provably impossible.
    assert (res.distribution.ub[:4] == 0).all()


def test_dependency_fixture_full_depth_exact():
    db, b, r = dependency_fixture()
    res = idca(db, b, r, **FULL)
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
        res = idca(db, b, r, **FULL)
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
        res = idca(db, b, r, max_depth=depth)
        cls = classify(db, b, r)
        cands = list(cls.influence_objects)
        if not cands:
            continue
        counts = slice(cls.complete_domination_count, cls.complete_domination_count + len(cands) + 1)
        lb = np.zeros(len(db))
        ub = np.zeros(len(db))
        bf, rf = (DecompositionTree([o]).leaves(depth) for o in (b, r))
        cand_fronts = [DecompositionTree([a]).leaves(depth) for a in cands]
        for i in range(len(bf)):
            for j in range(len(rf)):
                b_rect = Rect(bf.lo[i], bf.hi[i])
                r_rect = Rect(rf.lo[j], rf.hi[j])
                bounds = [pdom_bounds_loop(f, b_rect, r_rect) for f in cand_fronts]
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
        res = idca(db, target, r, max_depth=3)
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
            runs.append(idca(db, b, r, p=p, max_depth=6, criterion=criterion))
        got, want = runs
        assert got.stop_reason == want.stop_reason
        assert len(got.history) == len(want.history)
        for g, w in zip(got.history, want.history):
            assert g.lb.tobytes() == w.lb.tobytes()
            assert g.ub.tobytes() == w.ub.tobytes()


def dense_sweep(level, runs, p, criterion, budget):
    """`idca._evaluate_depth` as `evaluate_depth_dense`, one run at a time on
    its own roots ``[*cands, b, r]`` of the batch forest's `level`."""
    return [
        evaluate_depth_dense(level.take(run.roots), len(run.cands), run.shift, len(run.history[0]), p, criterion, budget)
        for run in runs
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_multi_chunk_history_matches_dense_reference(rng, monkeypatch, d):
    """With a float budget small enough to split the pairs of a depth into
    several chunks, every depth's bounds equal, bit for bit, those of the
    same chunks expanded on full (n+1, n+1) grids, extracted by the per-count
    loop and mixed in one product, and those under the default budget: a
    run's bounds do not depend on how its rows are cut."""
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
        default = idca(db, b, r, p=p, max_depth=6, criterion=criterion)
        with monkeypatch.context() as m:
            m.setattr(engine, "_BATCH_FLOAT_BUDGET", budget)
            calls.clear()
            got = idca(db, b, r, p=p, max_depth=6, criterion=criterion)
            # More expansion calls than depths: some depth was split into chunks.
            split_runs += len(calls) > len(got.history)
            m.setattr(engine, "_evaluate_depth", functools.partial(dense_sweep, budget=budget))
            want = idca(db, b, r, p=p, max_depth=6, criterion=criterion)
        for ref in (want, default):
            assert got.stop_reason == ref.stop_reason
            assert len(got.history) == len(ref.history)
            for g, w in zip(got.history, ref.history):
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
        res = idca(db, b, r, p=p, **FULL)
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
    res = idca(db, b, r, max_depth=depth)
    assert res.uncertainty_trace[-1] <= 1e-9
    exact = enumerate_exact(db, b, r).pdf
    np.testing.assert_allclose(res.distribution.lb, exact, atol=1e-9)


def test_stop_criteria_basics(rng):
    db, b, r = random_instance(rng, n_objects=5)
    res1 = idca(db, b, r, max_depth=1)
    assert res1.iterations_run == 1
    res3 = idca(db, b, r, max_depth=3)
    assert res3.iterations_run <= 3
    res_eps = idca(db, b, r, max_depth=12, epsilon=0.5)
    assert res_eps.uncertainty_trace[-1] <= 0.5 or res_eps.stop_reason != "criterion"

    # An instance that refines past depth 2 before it fully separates.
    for _ in range(50):
        db, b, r = random_instance(rng, n_objects=5)
        plain = idca(db, b, r, max_depth=12)
        if plain.iterations_run >= 3 and plain.stop_reason == "exhausted":
            break
    else:
        pytest.fail("no instance refines past depth 2")
    for h in range(1, plain.iterations_run):
        capped = idca(db, b, r, max_depth=h)
        assert (capped.iterations_run, capped.stop_reason) == (h, "criterion")
        assert capped.distribution.lb.tobytes() == plain.history[h - 1].lb.tobytes()
        assert capped.distribution.ub.tobytes() == plain.history[h - 1].ub.tobytes()

    # epsilon=0.0 ends on the exact PDF as "criterion"; without it the same
    # bounds end as "exhausted" (bench tells exact runs apart by the reason).
    exact = idca(db, b, r, max_depth=12, epsilon=0.0)
    assert (exact.stop_reason, plain.stop_reason) == ("criterion", "exhausted")
    assert exact.uncertainty_trace[-1] == 0.0
    np.testing.assert_allclose(exact.distribution.lb, plain.distribution.lb, atol=1e-12)
    np.testing.assert_allclose(exact.distribution.ub, plain.distribution.ub, atol=1e-12)

    seen = []

    def decide_at_two(dist):
        seen.append(dist)
        return "done" if len(seen) == 2 else None

    decided = idca(db, b, r, max_depth=12, decide=decide_at_two)
    assert (decided.iterations_run, decided.stop_reason) == (2, "criterion")

    # Threshold queries supply their own predicate; a second one is refused.
    for query in (pknn_query, prknn_query):
        with pytest.raises(TypeError):
            query(db, r, 1, 0.5, decide=decide_at_two)


def test_predicate_decided_stop(rng):
    db, b, r = random_instance(rng, n_objects=5)

    def decide(dist):
        width = float((dist.ub - dist.lb).sum())
        return "ok" if width < 0.75 else None

    res = idca(db, b, r, max_depth=12, decide=decide)
    assert decide(res.distribution) == "ok" or res.stop_reason in ("exhausted", "pair_budget")


def test_pair_budget_stop(rng, monkeypatch):
    monkeypatch.setattr(importlib.import_module("udom.idca"), "_PAIR_BUDGET", 2)
    db, b, r = random_instance(rng, n_objects=6, max_samples=4)
    res = idca(db, b, r, max_depth=12)
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
        opt = idca(db, b, r, max_depth=1, criterion="optimal")
        mm = idca(db, b, r, max_depth=1, criterion="minmax")
        assert len(opt.classification.influence_objects) <= len(
            mm.classification.influence_objects
        )


def test_minmax_mode_is_sound_and_converges(rng):
    """The baseline-criterion mode gives valid (looser) bounds and still
    collapses to the exact PDF at full separation."""
    for _ in range(15):
        db, b, r = random_instance(rng, n_objects=5)
        exact = enumerate_exact(db, b, r).pdf
        res = idca(db, b, r, **FULL, criterion="minmax")
        for dist in res.history:
            assert (exact >= dist.lb - 1e-9).all()
            assert (exact <= dist.ub + 1e-9).all()
        np.testing.assert_allclose(res.distribution.lb, exact, atol=1e-9)
        np.testing.assert_allclose(res.distribution.ub, exact, atol=1e-9)


def test_reference_in_database_is_excluded(rng):
    db, b, _ = random_instance(rng, n_objects=5)
    r = db[0] if db[0] is not b else db[1]
    res = idca(db, b, r, **FULL)
    exact = enumerate_exact(db, b, r).pdf
    np.testing.assert_allclose(res.distribution.lb, exact, atol=1e-9)
    cls = res.classification
    assert all(o is not b and o is not r for o in cls.influence_objects)
    counted = cls.complete_dominators + cls.irrelevant
    assert b.id not in counted and r.id not in counted
    assert len(counted) + len(cls.influence_objects) == len(db) - 2


def test_engine_validates():
    db, b, r = dependency_fixture()
    with pytest.raises(ValueError):
        idca(db, b, r, p=0.2)
    with pytest.raises(ValueError):
        idca(db, b, r, criterion="fancy")
    with pytest.raises(ValueError):
        idca(db, b, r, max_depth=0)
    with pytest.raises(ValueError):
        idca(db, b, r, epsilon=-1.0)
    with pytest.raises(ValueError):
        idca(db, b, r, epsilon=float("nan"))


def test_max_depth_must_be_an_integer(rng):
    """A float depth cap would be compared, not counted: nan and inf lifted
    the cap and 2.5 acted as 3.  NumPy integers are integers."""
    db, b, r = random_instance(rng, n_objects=5)
    for bad in (float("nan"), float("inf"), 2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="max_depth must be an integer"):
            idca(db, b, r, max_depth=bad)
    want = idca(db, b, r, max_depth=3)
    got = idca(db, b, r, max_depth=np.int64(3))
    assert got.iterations_run == want.iterations_run and got.stop_reason == want.stop_reason
    assert got.distribution.lb.tobytes() == want.distribution.lb.tobytes()
    assert got.distribution.ub.tobytes() == want.distribution.ub.tobytes()


def equal_weight_object(obj_id, rng, k, d):
    """k samples of weight 1/k each, as `generate_synthetic` makes them."""
    return build_object(obj_id, [(pt, 1.0 / k) for pt in rng.uniform(0.0, 1.0, size=(k, d))])


def test_iteration_zero_equals_depth_one_sweep(rng):
    """Iteration 0 is built from the classification counts alone, and equals
    byte for byte a depth-1 sweep: the engine's sweep when there are
    influence objects, and the dense reference (which keeps the
    empty-candidate branch) in every case.  Equal-weight objects of 14 and
    100 samples have root masses just below and just above 1."""
    engine = importlib.import_module("udom.idca")
    budget = engine._BATCH_FLOAT_BUDGET
    masses = set()
    seen_m0 = seen_m = 0
    for trial in range(90):
        d = 1 + trial % 3
        p = (1.0, 2.0, 3.0)[trial % 3]
        criterion = "minmax" if trial % 4 == 3 else "optimal"
        if trial % 3 == 2:
            db = tied_db(rng, d, int(rng.integers(1, 8)), min_samples=1, spread=0.3)
        else:
            db, _, _ = random_instance(rng, n_objects=int(rng.integers(1, 7)), d=d)
        if trial % 5 == 0:
            db[0] = equal_weight_object(db[0].id, rng, (14, 100)[trial % 2], d)
        b = db[0]
        if trial % 2 and len(db) > 1:
            r = db[-1]
        else:
            r = equal_weight_object("ref", rng, (14, 100, 3)[trial % 3], d)
        masses.update(float(o.weights.sum()) for o in (b, r))
        res = idca(db, b, r, p=p, max_depth=1, criterion=criterion)
        cls = res.classification
        cands = list(cls.influence_objects)
        shift = cls.complete_domination_count
        n_total = len(res.distribution)
        got = res.history[0]
        roots = DecompositionTree([*cands, b, r]).leaves(1)
        wants = [evaluate_depth_dense(roots, len(cands), shift, n_total, p, criterion, budget)]
        if cands:
            run = engine._Run(b, r, cls, [got], roots=np.arange(len(cands) + 2))
            wants.extend(engine._evaluate_depth(roots, [run], p, criterion))
            seen_m += 1
        else:
            seen_m0 += 1
        for want in wants:
            assert got.lb.tobytes() == want.lb.tobytes()
            assert got.ub.tobytes() == want.ub.tobytes()
    assert {0.9999999999999999, 1.0000000000000004} <= masses
    assert seen_m0 and seen_m


def test_refinement_holds_at_most_two_levels(monkeypatch):
    """A refinement batch reads its forest forward and keeps no old level:
    once the tree has handed out depth d, every level shallower than d - 1
    is garbage.  The run reaches depth 5 or more."""
    model = importlib.import_module("udom.model")
    leaves = model.DecompositionTree.leaves
    levels, held = [], []

    def tracked(self, depth):
        level = leaves(self, depth)
        if not levels or levels[-1]() is not level:
            levels.append(weakref.ref(level))
        gc.collect()
        held.append(sum(ref() is not None for ref in levels[:-2]))
        return level

    monkeypatch.setattr(model.DecompositionTree, "leaves", tracked)
    db = generate_synthetic(10, 2, 0.5, 32, seed=4)
    res = idca(db, db[0], db[1], max_depth=7, epsilon=0.0)
    assert res.iterations_run >= 5 and len(levels) >= 5
    assert held and not any(held)


def test_iteration_zero_builds_no_decomposition(rng, monkeypatch):
    """A run that stops at iteration 0 deepens no decomposition and asks no
    tree for a frontier, whether the influence set is empty or not."""
    model = importlib.import_module("udom.model")
    leaves = model.DecompositionTree.leaves
    calls = []

    def counted(self, depth):
        calls.append(depth)
        return leaves(self, depth)

    monkeypatch.setattr(model.DecompositionTree, "leaves", counted)
    open_runs = 0
    for _ in range(20):
        db, b, r = random_instance(rng, n_objects=6)
        res = idca(db, b, r, max_depth=1)
        assert (res.iterations_run, res.stop_reason) == (1, "criterion")
        open_runs += bool(res.classification.influence_objects)
    assert open_runs and calls == []

    # Targets on a line decide at iteration 0: near ones have no influence
    # objects and are in; the overlapping far cluster has at least k certain
    # dominators and is out.
    line = [build_object(i, [((float(i), 0.0), 1.0), ((i + 0.01, 0.01), 1.0)]) for i in range(6)]
    cluster = [build_object(10 + i, [((20.0, 0.0), 1.0), ((21.0, 1.0), 1.0)]) for i in range(3)]
    q = point_obj("q", (-1.0, 0.0))
    answer = pknn_query(line + cluster, q, k=2, tau=0.5, max_depth=8)
    verdicts = {d.object_id: (d.decision, d.iterations) for d in answer.decisions}
    assert verdicts == {i: ("in" if i < 2 else "out", 1) for i in [*range(6), 10, 11, 12]}
    assert calls == []


def test_on_iteration_sees_each_evaluation_as_it_is_made(rng, monkeypatch):
    """`idca` reports each evaluation before it makes the next one, so the
    runtime benchmark's timestamps mark when each iteration was ready."""
    engine = importlib.import_module("udom.idca")
    sweep = engine._evaluate_depth
    events = []
    monkeypatch.setattr(engine, "_evaluate_depth", lambda *a: events.append("sweep") or sweep(*a))
    db = [build_object(i, [(pt, 1.0) for pt in rng.uniform(0.0, 1.0, size=(8, 2))]) for i in range(8)]
    res = idca(db, db[0], db[1], max_depth=5, epsilon=0.0, on_iteration=lambda depth, dist: events.append(depth))
    assert res.iterations_run > 2
    assert events == [e for depth in range(1, res.iterations_run + 1) for e in (["sweep", depth] if depth > 1 else [1])]


def test_each_kernel_call_of_a_sweep_fits_the_cap(monkeypatch):
    """A sweep cuts each reference's candidate roots into `pdom_bounds_grid`
    calls whose kernel grid, candidate nodes x target nodes (one r-node per
    `dominance_grid` call), stays within `_cap` floats at 7 floats per cell
    in 2-d; only a root over the cap on its own may go alone.  With the cap
    patched to 200 cells, every multi-root call fits it, the sweeps make
    more calls than under the default budget, and the bounds and decisions
    equal the default budget's, byte for byte."""
    engine = importlib.import_module("udom.idca")
    domination = importlib.import_module("udom.domination")
    db = generate_synthetic(40, 2, 0.3, 8, seed=3)
    q = point_obj("q", (0.5, 0.5))
    pdom, kernel = engine.pdom_bounds_grid, domination.dominance_grid
    calls, inside = [], []  # per pdom_bounds_grid call: [candidate roots, largest kernel grid]

    def pdom_counted(a, *args):
        calls.append([a.seg.size - 1, 0])
        inside.append(True)
        try:
            return pdom(a, *args)
        finally:
            inside.pop()

    def kernel_counted(*args):
        out = kernel(*args)
        if inside:
            calls[-1][1] = max(calls[-1][1], out.size)
        return out

    monkeypatch.setattr(engine, "pdom_bounds_grid", pdom_counted)
    monkeypatch.setattr(domination, "dominance_grid", kernel_counted)

    def run():
        calls.clear()
        res = idca(db, db[0], db[1], max_depth=5, epsilon=0.0)
        answer = pknn_query(db, q, 6, 0.5, max_depth=5)
        return [(h.lb.tobytes(), h.ub.tobytes()) for h in res.history], repr(answer.decisions), len(calls)

    *want, default_calls = run()
    monkeypatch.setattr(engine, "_BATCH_FLOAT_BUDGET", 64 * 7 * 200)
    *got, patched_calls = run()
    assert got == want
    multi = [cells for roots, cells in calls if roots > 1]
    assert multi and max(multi) <= 200
    assert patched_calls > default_calls


@pytest.mark.parametrize(
    "a_xy, b_xy",
    [
        ((1e154, 1.3e154), (1.5e154, 0.0)),  # a squared coordinate overflows
        ((0.0, 0.0, 1.7e308, 1.7e308), (1.5e308, 1.5e308, 0.0, 0.0)),  # p = 1: only the sums overflow
    ],
)
def test_overflowing_distances_are_rejected(a_xy, b_xy):
    """b is closer to r than a.  Distance powers that overflowed to inf
    would make a certainly closer (lb = ub = [0, 1]); the engine, the query
    and the oracle raise instead, and numpy warns of no overflow."""
    a, b = point_obj("a", a_xy), point_obj("b", b_xy)
    r = point_obj("r", (0.0,) * len(a_xy))
    p = 2.0 if len(a_xy) == 2 else 1.0
    for call in (
        lambda: idca([a, b], b, r, p=p),
        lambda: idca([a, b], b, r, p=p, criterion="minmax"),
        lambda: pknn_query([a, b], r, 1, 0.5, p=p),
        lambda: enumerate_exact([a, b], b, r, p=p),
    ):
        with pytest.raises(ValueError, match="overflow"):
            call()
