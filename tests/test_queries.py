import functools
import gc
import importlib
import sys
import threading
import weakref

import numpy as np
import pytest

import udom.domination as domination
import udom.queries as queries
from udom.genfunc import DomCountDistribution, gf_exact
from udom.idca import idca
from udom.model import build_object, generate_synthetic
from udom.oracle import enumerate_exact, mc_baseline
from udom.queries import (
    QueryPredicate,
    expected_rank,
    expected_rank_interval,
    inverse_ranking,
    knn_probability_bounds,
    pknn_query,
    prknn_query,
)

from conftest import random_instance, random_object
from reference import expected_rank_per_target, extract_bounds, threshold_query_per_target, ugf_expand

FULL = dict(max_depth=12, epsilon=0.0)

WORKED_DIST = DomCountDistribution(
    np.array([0.10, 0.34, 0.12]), np.array([0.32, 0.78, 0.40])
)


def point_obj(obj_id, xy):
    return build_object(obj_id, [(xy, 1.0)])


def test_knn_bounds_worked_distribution():
    bounds = knn_probability_bounds(WORKED_DIST, 2)
    assert bounds.lb == pytest.approx(0.44, abs=1e-12)
    assert bounds.ub == pytest.approx(1.0, abs=1e-12)


def test_knn_bounds_k_at_least_database_size():
    tight = DomCountDistribution(np.array([0.2, 0.3, 0.5]), np.array([0.2, 0.3, 0.5]))
    bounds = knn_probability_bounds(tight, 7)
    assert bounds.lb == pytest.approx(1.0) and bounds.ub == pytest.approx(1.0)


def test_knn_bounds_tight_worked_example_sound():
    pdf = gf_exact([0.2, 0.1, 0.3])
    dist = DomCountDistribution(pdf, pdf)
    bounds = knn_probability_bounds(dist, 2)
    assert bounds.lb == pytest.approx(0.902, abs=1e-12)
    assert bounds.ub == pytest.approx(0.902, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="reference value 0.922 descends from the inconsistent 0.418 digit; "
    "the enumeration-verified probability is 0.902 "
    "(test_knn_bounds_tight_worked_example_sound)",
)
def test_knn_bounds_tight_worked_example_reference_digits():
    pdf = gf_exact([0.2, 0.1, 0.3])
    bounds = knn_probability_bounds(DomCountDistribution(pdf, pdf), 2)
    assert bounds.lb == pytest.approx(0.922, abs=1e-12)


def test_predicate_validation():
    with pytest.raises(ValueError):
        QueryPredicate("knn", 0, 0.5)
    for tau in (1.5, True, np.True_):
        with pytest.raises(ValueError):
            QueryPredicate("knn", 1, tau)
    with pytest.raises(ValueError):
        QueryPredicate("skyline", 1, 0.5)
    # k is a count: a float, a string or a bool is refused, a NumPy integer is one.
    for k in (2.5, "3", True):
        with pytest.raises(ValueError, match="integer"):
            QueryPredicate("knn", k, 0.5)
        with pytest.raises(ValueError, match="integer"):
            knn_probability_bounds(WORKED_DIST, k)
    assert QueryPredicate("knn", np.int64(2), 0.5).k == 2


def test_threshold_boundary_is_strict():
    """Probability exactly equal to tau is never 'in' (strict comparison)."""
    tight = DomCountDistribution(np.array([0.25, 0.75]), np.array([0.25, 0.75]))
    assert QueryPredicate("knn", 1, 0.25).decide(tight) == "out"
    assert QueryPredicate("knn", 1, 0.2499999).decide(tight) == "in"


def test_pknn_singleton_database():
    only = point_obj("only", (3.0, 3.0))
    q = point_obj("q", (0.0, 0.0))
    answer = pknn_query([only], q, k=1, tau=0.9)
    assert answer.result_ids == ["only"]
    # A fractional k is refused before any target is refined.
    with pytest.raises(ValueError, match="integer"):
        pknn_query([only], q, k=2.5, tau=0.9)


def test_pknn_tau_zero_includes_certain_members(rng):
    db, _, q = random_instance(rng, n_objects=4, max_samples=2)
    answer = pknn_query(db, q, k=2, tau=0.0, **FULL)
    for decision in answer.decisions:
        exact = enumerate_exact(db, next(o for o in db if o.id == decision.object_id), q).pdf
        p = exact[:2].sum()
        assert decision.decision == ("in" if p > 0 else "out")


def exact_knn_probability(db, target, q, k):
    return float(enumerate_exact(db, target, q).pdf[:k].sum())


def test_pknn_matches_enumeration_decisions(rng):
    for _ in range(10):
        db, _, q = random_instance(rng, n_objects=5, max_samples=3)
        k, tau = 2, 0.5
        answer = pknn_query(db, q, k, tau, **FULL)
        for decision in answer.decisions:
            target = next(o for o in db if o.id == decision.object_id)
            p = exact_knn_probability(db, target, q, k)
            if abs(p - tau) > 1e-9:
                assert decision.decision == ("in" if p > tau else "out")


def test_pknn_early_decisions_match_full_depth(rng):
    """Early predicate stopping must never flip a decision."""
    for _ in range(15):
        db, _, q = random_instance(rng, n_objects=5, max_samples=3)
        k, tau = 2, 0.5
        early = pknn_query(db, q, k, tau)  # stops as soon as decided
        full = pknn_query(db, q, k, tau, **FULL)
        for e, f in zip(early.decisions, full.decisions):
            assert e.object_id == f.object_id
            if e.decision != "undecided" and f.decision != "undecided":
                assert e.decision == f.decision


def test_prknn_two_object_database():
    b = point_obj("b", (1.0, 0.0))
    q = point_obj("q", (0.0, 0.0))
    answer = prknn_query([b], q, k=1, tau=0.99)
    assert answer.result_ids == ["b"]


def test_prknn_k_covers_whole_database(rng):
    db, _, q = random_instance(rng, n_objects=4, max_samples=2)
    answer = prknn_query(db, q, k=len(db), tau=0.5, **FULL)
    for decision in answer.decisions:
        assert decision.decision == "in"
        assert decision.lb == pytest.approx(1.0) and decision.ub == pytest.approx(1.0)


def test_prknn_role_swap_consistency(rng):
    """The reverse query's probability for target B equals the forward-style
    probability of the query object with B as the reference."""
    db, _, q = random_instance(rng, n_objects=4, max_samples=2)
    k = 2
    answer = prknn_query(db, q, k, tau=0.5, **FULL)
    for decision in answer.decisions:
        b = next(o for o in db if o.id == decision.object_id)
        res = idca(db, q, b, **FULL)
        swapped = knn_probability_bounds(res.distribution, k)
        assert decision.lb == pytest.approx(swapped.lb, abs=1e-9)
        assert decision.ub == pytest.approx(swapped.ub, abs=1e-9)


def test_external_query_sharing_a_db_id_excludes_nothing():
    """Identity is the object, not its id: an external query named 0 used to
    drop database object 0, so every engine answered P(count=0)=1 for target
    1 and the threshold queries returned one decision instead of two."""
    db = [build_object(0, [((1.0, 0.0), 1.0)]), build_object(1, [((3.0, 0.0), 1.0)])]
    q = build_object(0, [((0.0, 0.0), 1.0)])
    dist = idca(db, db[1], q).distribution
    np.testing.assert_allclose(dist.lb, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(dist.ub, [0.0, 1.0], atol=1e-12)
    for engine in (enumerate_exact, mc_baseline):
        np.testing.assert_allclose(engine(db, db[1], q).pdf, [0.0, 1.0], atol=1e-12)
    for query in (pknn_query, prknn_query):
        answer = query(db, q, k=1, tau=0.5)
        assert [(d.object_id, d.decision) for d in answer.decisions] == [(0, "in"), (1, "out")]
    assert expected_rank(db, q) == [(0, 1.0, 1.0), (1, 2.0, 2.0)]


def test_inverse_ranking_all_dominators():
    r = point_obj("r", (0.0, 0.0))
    b = point_obj("b", (10.0, 0.0))
    db = [point_obj(f"o{i}", (0.5 + 0.1 * i, 0.0)) for i in range(3)] + [b]
    rank = inverse_ranking(db, b, r, max_depth=1)
    assert rank.lb[3] == pytest.approx(1.0)
    assert rank.ub[0] == 0.0


def test_inverse_ranking_is_count_shifted_by_one(rng):
    db, b, r = random_instance(rng, n_objects=5, max_samples=3)
    rank = inverse_ranking(db, b, r, **FULL)
    exact = enumerate_exact(db, b, r).pdf
    for i, lb, ub in zip(rank.ranks, rank.lb, rank.ub):
        assert lb == pytest.approx(exact[i - 1], abs=1e-9)
        assert ub == pytest.approx(exact[i - 1], abs=1e-9)
    assert rank.lb.sum() == pytest.approx(1.0, abs=1e-9)


def test_worked_distribution_rank_one():
    # Rank 1 corresponds to count 0 of the worked distribution.
    assert WORKED_DIST.lb[0] == pytest.approx(0.10)
    assert WORKED_DIST.ub[0] == pytest.approx(0.32)


def test_expected_rank_interval_tight_is_plain_expectation():
    pdf = gf_exact([0.2, 0.1, 0.3])
    lo, hi = expected_rank_interval(DomCountDistribution(pdf, pdf))
    assert lo == pytest.approx(1.600, abs=1e-12)
    assert hi == pytest.approx(1.600, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="reference value 1.58 descends from the inconsistent 0.418/0.072 "
    "digits; the enumeration-verified expectation is 1.600 "
    "(test_expected_rank_interval_tight_is_plain_expectation)",
)
def test_expected_rank_reference_digits():
    pdf = gf_exact([0.2, 0.1, 0.3])
    lo, _ = expected_rank_interval(DomCountDistribution(pdf, pdf))
    assert lo == pytest.approx(1.58, abs=1e-12)


def test_expected_rank_interval_respects_upper_caps():
    dist = DomCountDistribution(np.array([0.0, 0.5]), np.array([0.2, 1.0]))
    lo, hi = expected_rank_interval(dist)
    # Remaining mass 0.5 can push at most 0.2 onto rank 1.
    assert lo == pytest.approx(0.2 * 1 + 0.8 * 2)
    assert hi == pytest.approx(2.0)


@pytest.mark.parametrize(
    "lb, ub",
    [
        ([0.0, 0.0, 0.0], [0.2, 0.2, 0.2]),  # at most 0.6 mass: the fill would give (2.4, 1.6)
        ([0.6, 0.5, 0.0], [0.6, 0.5, 0.1]),  # at least 1.1 mass
    ],
)
def test_expected_rank_interval_rejects_bounds_no_pdf_satisfies(lb, ub):
    with pytest.raises(ValueError, match="no PDF"):
        expected_rank_interval(DomCountDistribution(np.array(lb), np.array(ub)))


def test_expected_rank_interval_accepts_mass_within_tolerance():
    """Bounds whose total mass misses 1 by rounding (a sample mass sum or a
    mix of pair masses a few ulps off 1) stay valid."""
    lo, hi = expected_rank_interval(DomCountDistribution(np.zeros(2), np.array([0.0, 1.0 - 1e-12])))
    assert (lo, hi) == (pytest.approx(2.0), pytest.approx(2.0))


def test_expected_rank_certain_winner():
    q = point_obj("q", (0.0, 0.0))
    db = [point_obj("w", (1.0, 0.0)), point_obj("x", (5.0, 0.0))]
    ranks = expected_rank(db, q, **FULL)
    as_dict = {obj_id: (lo, hi) for obj_id, lo, hi in ranks}
    assert as_dict["w"] == (pytest.approx(1.0), pytest.approx(1.0))
    assert as_dict["x"] == (pytest.approx(2.0), pytest.approx(2.0))


def test_expected_rank_interval_contains_truth(rng):
    for _ in range(10):
        db, _, q = random_instance(rng, n_objects=4, max_samples=3)
        coarse = expected_rank(db, q, max_depth=2)
        for obj_id, lo, hi in coarse:
            target = next(o for o in db if o.id == obj_id)
            pdf = enumerate_exact(db, target, q).pdf
            truth = float(pdf @ np.arange(1, len(pdf) + 1))
            assert lo - 1e-9 <= truth <= hi + 1e-9
        fine = expected_rank(db, q, **FULL)
        for (_, lo, hi), (_, flo, fhi) in zip(coarse, fine):
            assert flo >= lo - 1e-9 and fhi <= hi + 1e-9


def test_truncated_expansion_gives_identical_decisions(rng):
    """Threshold decisions for count < k are unchanged by k-truncation."""
    for _ in range(50):
        n = int(rng.integers(2, 9))
        lo = rng.uniform(0, 1, size=n)
        hi = lo + rng.uniform(0, 1, size=n) * (1 - lo)
        bounds = list(zip(lo, hi))
        k = int(rng.integers(1, n + 1))
        full = extract_bounds(ugf_expand(bounds))
        trunc = extract_bounds(ugf_expand(bounds, truncate_at=k), n=n)
        for tau in (0.1, 0.25, 0.5, 0.75, 0.9):
            pred = QueryPredicate("knn", k, tau)
            assert pred.decide(full) == pred.decide(trunc)


def test_chunked_pass_equals_per_target_loop(rng, monkeypatch):
    """Forty objects, q external or a database object, and a float budget
    that splits the targets into uneven chunks of seven: both threshold
    queries and expected_rank equal one full `idca` run per target."""
    db = [random_object(rng, i, max_samples=5, spread=0.15) for i in range(40)]
    for q in (random_object(rng, "q", max_samples=3, spread=0.15), db[17]):
        n = len(db) - (q is db[17])
        monkeypatch.setattr(domination, "_BATCH_FLOAT_BUDGET", 7 * (2 * 2 + 3) * n)
        for kind, query in (("knn", pknn_query), ("rknn", prknn_query)):
            for k in (1, 4):
                got = query(db, q, k, 0.5, max_depth=4).decisions
                assert repr(got) == repr(threshold_query_per_target(kind, db, q, k, 0.5, max_depth=4))
        assert repr(expected_rank(db, q, max_depth=2)) == repr(expected_rank_per_target(db, q, max_depth=2))


def test_threshold_queries_check_engine_arguments_once():
    """Arguments are checked before any target, even when every target is
    decided at iteration 0 and `idca` never runs; unknown keywords and a
    caller-supplied `decide` are refused."""
    db = [point_obj(i, (float(i), 0.0)) for i in range(3)]
    q = point_obj("q", (-1.0, 0.0))
    for query in (pknn_query, prknn_query):
        for bad in (dict(p=0.5), dict(max_depth=0), dict(epsilon=-1.0), dict(criterion="fancy")):
            with pytest.raises(ValueError):
                query(db, q, 1, 0.5, **bad)
        for bad in (dict(decide=lambda dist: None), dict(max_dpeth=3)):
            with pytest.raises(TypeError):
                query(db, q, 1, 0.5, **bad)


def test_open_targets_hand_iteration_zero_to_idca(rng, monkeypatch):
    """Each target's iteration 0 is built and tested against the stop rules
    once, in the labelling pass (per chunk, the stop rules are closed forms
    of s and m, and one array pass builds the open targets' rows), and the
    engine arguments are checked once per query: an open target's run,
    classified and holding its iteration 0, reaches `idca` through the
    chunk's stream, and `idca` neither classifies, rebuilds nor re-tests
    it.  Counted under both names the engine could call each helper by."""
    engine = importlib.import_module("udom.idca")
    built, checked, tested, classified, handed = [], [], [], [], []
    bounds, check, stopped, classify = engine._classified_bounds, engine._check_engine_args, engine._stopped, engine.classify

    def counted_stopped(depth, *args):
        if depth == 1:
            tested.append(depth)
        return stopped(depth, *args)

    def counted_idca(*args, _start=None, **kwargs):
        handed.append(_start)
        return idca(*args, _start=_start, **kwargs)

    for module in (queries, engine):
        monkeypatch.setattr(module, "_classified_bounds", lambda *a: built.append(1) or bounds(*a))
        monkeypatch.setattr(module, "_check_engine_args", lambda *a: checked.append(1) or check(*a))
        monkeypatch.setattr(module, "_stopped", counted_stopped, raising=False)
    monkeypatch.setattr(engine, "classify", lambda *a, **kw: classified.append(1) or classify(*a, **kw))
    monkeypatch.setattr(queries, "idca", counted_idca)
    db = [random_object(rng, i, max_samples=4, spread=0.3) for i in range(12)]
    refined = 0
    for q in (random_object(rng, "q", max_samples=3, spread=0.3), db[5]):
        for query in (pknn_query, prknn_query):
            for seen in (built, checked, tested, classified, handed):
                seen.clear()
            decisions = query(db, q, 3, 0.5, max_depth=6).decisions
            assert None not in handed
            assert handed and len(built) == 1  # one chunk: the open targets' rows
            assert tested == classified == []
            assert len(checked) == 1
            refined += sum(d.iterations > 1 for d in decisions)
    assert refined


@pytest.mark.parametrize("stop", [dict(max_depth=1), dict(epsilon=100.0)])
def test_iteration_zero_stop_rules_never_enter_idca(rng, monkeypatch, stop):
    """`max_depth=1`, or an `epsilon` above every iteration-0 width, stops
    every target at iteration 0, so the queries answer each one from its MBR
    counts and never call `idca`; decisions, ranks and `on_iteration` calls
    still equal one full `idca` run per target.  Without the stop rule the
    same queries do refine some targets."""
    db = [random_object(rng, i, max_samples=4, spread=0.3) for i in range(12)]
    runs = []
    monkeypatch.setattr(queries, "idca", lambda *a, **kw: runs.append(1) or idca(*a, **kw))

    def calls_of(fn, *args, **kwargs):
        """`fn`'s output and its `on_iteration` calls (depth, lb bits, ub bits)."""
        seen = []

        def hook(depth, dist):
            seen.append((depth, dist.lb.tobytes(), dist.ub.tobytes()))

        return repr(fn(*args, on_iteration=hook, **kwargs)), seen

    for q in (random_object(rng, "q", max_samples=3, spread=0.3), db[5]):
        for kind, query in (("knn", pknn_query), ("rknn", prknn_query)):
            runs.clear()
            got = calls_of(lambda **kw: query(db, q, 3, 0.5, **kw).decisions, **stop)
            assert runs == []
            assert got == calls_of(threshold_query_per_target, kind, db, q, 3, 0.5, **stop)
            query(db, q, 3, 0.5)
            assert runs
        runs.clear()
        assert calls_of(expected_rank, db, q, **stop) == calls_of(expected_rank_per_target, db, q, **stop)
        assert runs == []


def test_on_iteration_calls_come_per_target_in_id_order(rng):
    """The batch refines many targets side by side, yet `on_iteration` sees
    each target's calls together, depth 1 first and rising by one, targets
    in str(id) order: a depth that does not grow starts the next target,
    and every target starts exactly once."""
    db = [random_object(rng, i, max_samples=5, spread=0.25) for i in range(14)]
    q = random_object(rng, "q", max_samples=3, spread=0.25)
    for query in (pknn_query, prknn_query):
        depths = []
        answer = query(db, q, 4, 0.5, max_depth=6, on_iteration=lambda depth, dist: depths.append(depth))
        traces = []
        for depth in depths:
            if depth == 1:
                traces.append([])
            traces[-1].append(depth)
        assert [list(range(1, len(t) + 1)) for t in traces] == traces
        assert [len(t) for t in traces] == [d.iterations for d in answer.decisions]
        assert [d.object_id for d in answer.decisions] == sorted(range(14), key=str)
        assert len({len(t) for t in traces}) > 2  # targets retire at different depths


def test_threshold_queries_build_no_classification(monkeypatch):
    """A threshold query refines its open targets straight from the filter's
    masks and builds no `DominationClassification`; `inverse_ranking`, whose
    result carries one, builds exactly one."""
    built, cls = [], domination.DominationClassification
    monkeypatch.setattr(domination, "DominationClassification", lambda *groups: built.append(1) or cls(*groups))
    db = generate_synthetic(40, 2, 0.3, 8, seed=3)
    q = build_object("q", [((0.5, 0.5), 1.0)])
    for query in (pknn_query, prknn_query):
        answer = query(db, q, 5, 0.5, max_depth=3)
        assert any(d.iterations > 1 for d in answer.decisions)  # some targets were open
    assert built == []
    inverse_ranking(db, db[0], db[1], max_depth=3)
    assert built == [1]


def test_refinement_batches_hold_a_bounded_history(rng, monkeypatch):
    """The runs that share one forest keep their histories (two floats per
    count per iteration, up to `max_depth` iterations) within the sweep cap,
    a 64th of `_BATCH_FLOAT_BUDGET`, however many targets are open: with
    the cap patched to three runs, expected_rank (every target open) cuts
    its one labelling chunk into batches of three, and its ranks and
    `on_iteration` calls still equal one `idca` run per target."""
    engine = importlib.import_module("udom.idca")
    db = [random_object(rng, i, max_samples=4, spread=0.3) for i in range(24)]
    q = random_object(rng, "q", max_samples=3, spread=0.3)
    n_total, max_depth = len(db), 6  # counts 0..23 for a database target b
    monkeypatch.setattr(domination, "_BATCH_FLOAT_BUDGET", 64 * 3 * 2 * n_total * max_depth)
    sizes = []
    sweeps = engine._sweeps
    monkeypatch.setattr(engine, "_sweeps", lambda runs, *a: sizes.append(len(runs)) or sweeps(runs, *a))
    got_calls, want_calls = [], []
    got = expected_rank(db, q, max_depth=max_depth, on_iteration=lambda depth, dist: got_calls.append((depth, dist.lb.tobytes(), dist.ub.tobytes())))
    assert sizes == [3] * 8
    want = expected_rank_per_target(db, q, max_depth=max_depth, on_iteration=lambda depth, dist: want_calls.append((depth, dist.lb.tobytes(), dist.ub.tobytes())))
    assert repr(got) == repr(want)
    assert got_calls == want_calls


def test_refinement_releases_each_batch_before_the_next(rng, monkeypatch):
    """A threshold query holds one refinement batch at a time: when a batch
    takes its first step, every run of the earlier batches, answered by
    then, is garbage.  With the cap patched to three runs per batch,
    expected_rank (every target open) refines eight batches."""
    engine = importlib.import_module("udom.idca")
    db = [random_object(rng, i, max_samples=4, spread=0.3) for i in range(24)]
    q = random_object(rng, "q", max_samples=3, spread=0.3)
    n_total, max_depth = len(db), 6
    monkeypatch.setattr(domination, "_BATCH_FLOAT_BUDGET", 64 * 3 * 2 * n_total * max_depth)
    earlier, held = [], []
    sweeps = engine._sweeps

    def tracked(runs, *args):
        gc.collect()
        held.append(sum(ref() is not None for ref in earlier))
        earlier.extend(weakref.ref(run) for run in runs)
        yield from sweeps(runs, *args)

    monkeypatch.setattr(engine, "_sweeps", tracked)
    expected_rank(db, q, max_depth=max_depth)
    assert held == [0] * 8


def test_threads_share_one_database():
    """Four threads running the same query over one shared database each get
    the serial answer: decisions, bounds, iterations and stop reasons."""
    db = generate_synthetic(40, 2, 0.1, 16, seed=5)
    q = point_obj("q", (0.5, 0.5))
    query = functools.partial(pknn_query, db, q, k=4, tau=0.5, max_depth=6)
    want = query()
    assert len({d.iterations for d in want.decisions}) > 1
    answers, errors = [], []
    gate = threading.Barrier(4)

    def worker():
        try:
            gate.wait()
            answers.append(query())
        except Exception as exc:  # surface failures from worker threads
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(answers) == 4
    for got in answers:
        assert got.decisions == want.decisions
