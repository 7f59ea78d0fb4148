"""Acceptance checklist: one test per criterion, each printing a PASS line.

Criteria C1 and C2 carry historic reference digits that are arithmetically
inconsistent with their own stated inputs (verified by the independent
enumeration oracles in this module); those digit assertions are kept verbatim
as strict expected failures right next to the sound, oracle-verified
assertions that gate the build.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import itertools
import time

import numpy as np
import pytest

from udom.bench import BenchConfig, bench_pruning
from udom.genfunc import gf_exact
from udom.geometry import Rect, rect_min_dist
from udom.idca import AnyOf, MaxDepth, UncertaintyBelow, idca
from udom.model import build_object, generate_synthetic
from udom.oracle import enumerate_exact, mc_baseline
from udom.queries import (
    QueryPredicate,
    expected_rank_interval,
    inverse_ranking,
    pknn_query,
    prknn_query,
)

from reference import (
    UGFPoly,
    _multiply_factor,
    dominates_minmax,
    dominates_optimal,
    extract_bounds,
    gf_bounds_plain,
    ugf_expand,
)

FULL = AnyOf([MaxDepth(14), UncertaintyBelow(0.0)])


def brute_force_count_pdf(probs):
    pdf = np.zeros(len(probs) + 1)
    for bits in itertools.product([0, 1], repeat=len(probs)):
        w = 1.0
        for bit, p in zip(bits, probs):
            w *= p if bit else 1.0 - p
        pdf[sum(bits)] += w
    return pdf


def random_tiny_instance(rng, n_max=6, s_max=4):
    n = int(rng.integers(3, n_max + 1))
    db = []
    for i in range(n):
        k = int(rng.integers(1, s_max + 1))
        pts = rng.uniform(0, 1, size=(k, 2))
        wts = rng.uniform(0.1, 1.0, size=k)
        db.append(build_object(f"o{i}", list(zip(pts, wts))))
    b = db[int(rng.integers(0, n))]
    kr = int(rng.integers(1, s_max + 1))
    r_pts = rng.uniform(0, 1, size=(kr, 2))
    r_wts = rng.uniform(0.1, 1.0, size=kr)
    r = build_object("ref", list(zip(r_pts, r_wts)))
    return db, b, r


# ---------------------------------------------------------------------------
# C1: exact generating function worked example
# ---------------------------------------------------------------------------


def test_c01_gf_worked_example():
    probs = [0.2, 0.1, 0.3]
    c = gf_exact(probs)
    oracle = brute_force_count_pdf(probs)
    np.testing.assert_allclose(c, oracle, atol=1e-12)
    assert abs(c[0] - 0.504) < 1e-12
    assert abs(c[1] - 0.398) < 1e-12
    assert abs(c[0] + c[1] - 0.902) < 1e-12
    print("ACCEPTANCE C01 gf worked example: PASS "
          "(P0=0.504, P1=0.398, P<2=0.902, oracle-verified)")


@pytest.mark.xfail(
    strict=True,
    reason="C1 reference digits P1=0.418 / P<2=0.922 contradict the stated "
    "inputs: the 2^3 enumeration gives 0.398 / 0.902 (see "
    "test_c01_gf_worked_example); kept verbatim to document the discrepancy",
)
def test_c01_gf_worked_example_reference_digits():
    c = gf_exact([0.2, 0.1, 0.3])
    assert abs(c[1] - 0.418) < 1e-12
    assert abs(c[0] + c[1] - 0.922) < 1e-12


# ---------------------------------------------------------------------------
# C2: uncertain generating function worked example
# ---------------------------------------------------------------------------

WORKED_BOUNDS = [(0.2, 0.7), (0.6, 0.8)]
HISTORIC_POLY = {
    (2, 0): 0.12, (1, 0): 0.34, (0, 0): 0.10,
    (1, 1): 0.22, (0, 1): 0.16, (0, 2): 0.06,
}


def test_c02_ugf_worked_example():
    # The sound expansion of (0.2x + 0.5y + 0.3)(0.6x + 0.2y + 0.2).
    poly = ugf_expand(WORKED_BOUNDS)
    expected = {
        (2, 0): 0.12, (1, 0): 0.22, (0, 0): 0.06,
        (1, 1): 0.34, (0, 1): 0.16, (0, 2): 0.10,
    }
    assert set(poly.coeffs) == set(expected)
    for key, val in expected.items():
        assert abs(poly.coefficient(*key) - val) < 1e-12
    dist = extract_bounds(poly)
    np.testing.assert_allclose(dist.lb, [0.06, 0.22, 0.12], atol=1e-12)
    np.testing.assert_allclose(dist.ub, [0.32, 0.82, 0.56], atol=1e-12)
    # Sandwich witness: the admissible resolution (0.7, 0.8) reaches 0.56 for
    # count 2, so no sound upper bound can be lower.
    assert abs(gf_exact([0.7, 0.8])[2] - 0.56) < 1e-12

    # The coefficient-to-bounds extraction rule reproduces the historic
    # reading of the historic coefficients exactly.
    hist = extract_bounds(UGFPoly(coeffs=dict(HISTORIC_POLY), n_factors=2))
    np.testing.assert_allclose(hist.lb, [0.10, 0.34, 0.12], atol=1e-12)
    np.testing.assert_allclose(hist.ub, [0.32, 0.78, 0.40], atol=1e-12)
    print("ACCEPTANCE C02 ugf worked example: PASS "
          "(sound product + extraction rule verified; historic digits xfail)")


@pytest.mark.xfail(
    strict=True,
    reason="C2 reference product swaps the y/constant coefficients of the "
    "first factor; its count-2 upper bound 0.40 is exceeded by the "
    "admissible resolution (0.7, 0.8) with P=0.56, so a sound expansion "
    "cannot reproduce it (see test_c02_ugf_worked_example)",
)
def test_c02_ugf_worked_example_reference_digits():
    poly = ugf_expand(WORKED_BOUNDS)
    for key, val in HISTORIC_POLY.items():
        assert abs(poly.coefficient(*key) - val) < 1e-12


# ---------------------------------------------------------------------------
# C3: dependency counterexample
# ---------------------------------------------------------------------------


def test_c03_dependency_counterexample():
    a1 = build_object("a1", [((0.0, 0.0), 1.0)])
    a2 = build_object("a2", [((0.0, 0.0), 1.0)])
    b = build_object("b", [((4.0, 0.0), 1.0)])
    r = build_object("r", [((1.0, 0.0), 0.5), ((4.0, 0.0), 0.5)])
    db = [a1, a2, b]
    exact = enumerate_exact(db, b, r)
    assert abs(exact.pdf[2] - 0.5) < 1e-9
    assert abs(exact.pdf[1] - 0.0) < 1e-9
    res = idca(db, b, r, stop=FULL)
    np.testing.assert_allclose(res.distribution.lb, exact.pdf, atol=1e-9)
    np.testing.assert_allclose(res.distribution.ub, exact.pdf, atol=1e-9)
    # The naive independent product would claim P(count=2) = 0.25.
    assert abs(res.distribution.lb[2] - 0.25) > 0.2
    print("ACCEPTANCE C03 dependency counterexample: PASS "
          "(P2=0.5, P1=0, naive 0.25 avoided)")


# ---------------------------------------------------------------------------
# C4 + C5: oracle sandwich, convergence, monotone refinement
# ---------------------------------------------------------------------------


def _run_sandwich_instances():
    rng = np.random.default_rng(20260804)
    runs = []
    for _ in range(100):
        db, b, r = random_tiny_instance(rng)
        exact = enumerate_exact(db, b, r).pdf
        res = idca(db, b, r, stop=FULL)
        runs.append((exact, res))
    return runs


@pytest.fixture(scope="module")
def sandwich_runs():
    start = time.perf_counter()
    runs = _run_sandwich_instances()
    return runs, time.perf_counter() - start


def test_c04_oracle_sandwich_and_convergence(sandwich_runs):
    runs, elapsed = sandwich_runs
    assert len(runs) >= 100
    for exact, res in runs:
        for dist in res.history:
            assert (exact >= dist.lb - 1e-9).all()
            assert (exact <= dist.ub + 1e-9).all()
        np.testing.assert_allclose(res.distribution.lb, exact, atol=1e-9)
        np.testing.assert_allclose(res.distribution.ub, exact, atol=1e-9)
    assert elapsed < 60.0
    print(f"ACCEPTANCE C04 oracle sandwich + convergence: PASS "
          f"(100 instances, {elapsed:.1f}s < 60s)")


def test_c05_monotone_refinement(sandwich_runs):
    runs, _ = sandwich_runs
    for _, res in runs:
        prev = None
        for dist in res.history:
            if prev is not None:
                assert (dist.lb >= prev.lb - 1e-9).all()
                assert (dist.ub <= prev.ub + 1e-9).all()
            prev = dist
        trace = res.uncertainty_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
    print("ACCEPTANCE C05 monotone refinement: PASS (100 instances)")


# ---------------------------------------------------------------------------
# C6: pruning dominance
# ---------------------------------------------------------------------------


def test_c06_pruning_dominance():
    rng = np.random.default_rng(1)
    minmax_hits = optimal_only = 0
    for _ in range(100_000):
        lo = rng.uniform(-4, 4, size=(3, 2))
        side = rng.uniform(0, 1.5, size=(3, 2))
        a = Rect(lo[0], lo[0] + side[0])
        b = Rect(lo[1], lo[1] + side[1])
        r = Rect(lo[2], lo[2] + side[2])
        if rng.uniform() < 0.4:
            a = Rect(r.lo - 0.2, r.hi + 0.2)
            b = Rect(b.lo + 5.0, b.hi + 5.0)
        if dominates_minmax(a, b, r, 2.0):
            minmax_hits += 1
            assert dominates_optimal(a, b, r, 2.0), "containment violated"
        elif dominates_optimal(a, b, r, 2.0):
            optimal_only += 1
    assert minmax_hits > 1000
    assert optimal_only >= 1
    # Candidate-reduction percentage is reported (dataset-dependent figure).
    rows = bench_pruning(
        BenchConfig(n=400, dims=2, max_extent=0.05, samples_per_object=4,
                    seed=6, repetitions=5, target_rank=6, max_depth=4)
    )
    per_query = {}
    for row in rows:
        per_query.setdefault(row["query"], {})[row["criterion"]] = int(row["candidate_count"])
    reductions = [
        100.0 * (counts["minmax"] - counts["optimal"]) / counts["minmax"]
        for counts in per_query.values()
        if counts["minmax"] > 0
    ]
    mean_reduction = float(np.mean(reductions)) if reductions else 0.0
    print(f"ACCEPTANCE C06 pruning dominance: PASS "
          f"(100000 triples, 0 violations, {optimal_only} optimal-only cases; "
          f"candidate reduction {mean_reduction:.1f}% [reported, not asserted])")


# ---------------------------------------------------------------------------
# C7: plain-GF versus UGF bounds
# ---------------------------------------------------------------------------


def test_c07_plain_gf_vs_ugf():
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n = int(rng.integers(1, 11))
        lo = rng.uniform(0, 1, size=n)
        hi = lo + rng.uniform(0, 1, size=n) * (1 - lo)
        bounds = list(zip(lo, hi))
        plain = gf_bounds_plain(bounds)
        via_ugf = extract_bounds(ugf_expand(bounds))
        np.testing.assert_allclose(plain.lb, via_ugf.lb, atol=1e-12)
        assert (plain.ub >= via_ugf.ub - 1e-12).all()
    for trial in range(1000):
        lo = rng.uniform(0, 1, size=2)
        hi = lo + rng.uniform(0, 1, size=2) * (1 - lo)
        bounds = list(zip(lo, hi))
        plain = gf_bounds_plain(bounds)
        via_ugf = extract_bounds(ugf_expand(bounds))
        gap = plain.ub[1] - via_ugf.ub[1]
        expected = (hi[0] - lo[0]) * (hi[1] - lo[1])
        assert abs(gap - expected) < 1e-12
    print("ACCEPTANCE C07 plain-GF vs UGF: PASS "
          "(1000 lists: lower bounds equal, upper bounds never tighter, "
          "two-candidate gap exact)")


# ---------------------------------------------------------------------------
# C8: truncation transparency and coefficient budget
# ---------------------------------------------------------------------------


def test_c08_truncation_transparency():
    rng = np.random.default_rng(8)
    for k in (1, 2, 3, 5):
        budget = (k + 1) * (k + 2) // 2 - 1 + k
        for _ in range(50):
            n = int(rng.integers(k, 12))
            lo = rng.uniform(0, 1, size=n)
            hi = lo + rng.uniform(0, 1, size=n) * (1 - lo)
            bounds = list(zip(lo, hi))
            full = extract_bounds(ugf_expand(bounds))
            trunc = extract_bounds(ugf_expand(bounds, truncate_at=k), n=n)
            np.testing.assert_allclose(trunc.lb[:k], full.lb[:k], atol=1e-12)
            np.testing.assert_allclose(trunc.ub[:k], full.ub[:k], atol=1e-12)
            coeffs = {(0, 0): 1.0}
            for blo, bhi in bounds:
                coeffs = _multiply_factor(coeffs, blo, bhi - blo, 1.0 - bhi, k)
                assert len(coeffs) <= budget
    print("ACCEPTANCE C08 truncation transparency: PASS "
          "(k in {1,2,3,5}: identical bounds below k, O(k^2) coefficients)")


# ---------------------------------------------------------------------------
# C9: query-level agreement with the sampling partner and the oracle
# ---------------------------------------------------------------------------


def _mc_knn_probability_and_se(db, target, query, k, samples, seed):
    """MC estimate of P(count < k) plus its exact standard error."""
    est = mc_baseline(db, target, query, samples=samples, seed=seed)
    p_hat = float(est.pdf[:k].sum())
    # A copy of the query is always external, so a database query object
    # is dropped from the database explicitly.
    rest = [o for o in db if o is not query]
    comps = []
    for pt in query.points:
        certain = build_object(query.id, [(pt, 1.0)])
        comp = mc_baseline(rest, target, certain, samples=None)
        comps.append(float(comp.pdf[:k].sum()))
    comps = np.array(comps)
    var_q = float(query.weights @ comps**2 - (query.weights @ comps) ** 2)
    return p_hat, np.sqrt(max(var_q, 0.0) / samples)


def test_c09_query_level_agreement():
    rng = np.random.default_rng(9)
    k, tau, samples = 3, 0.5, 100_000
    checked = 0
    for trial in range(3):
        db = generate_synthetic(20, 2, 0.25, 4, seed=90 + trial)
        q = build_object("q", [(p, 1.0) for p in rng.uniform(0.3, 0.7, size=(4, 2))])
        knn = pknn_query(db, q, k, tau, stop=FULL)
        for decision in knn.decisions:
            target = next(o for o in db if o.id == decision.object_id)
            p_hat, se = _mc_knn_probability_and_se(db, target, q, k, samples, seed=trial)
            if abs(p_hat - tau) > 3 * se:
                checked += 1
                assert decision.decision == ("in" if p_hat > tau else "out")
        rknn = prknn_query(db, q, k, tau, stop=FULL)
        for decision in rknn.decisions:
            target = next(o for o in db if o.id == decision.object_id)
            p_hat, se = _mc_knn_probability_and_se(db, q, target, k, samples, seed=trial)
            if abs(p_hat - tau) > 3 * se:
                checked += 1
                assert decision.decision == ("in" if p_hat > tau else "out")
    assert checked > 50

    # Inverse ranking and expected rank against the exhaustive oracle.
    for trial in range(10):
        n = int(rng.integers(3, 7))
        db = generate_synthetic(n, 2, 0.3, 3, seed=900 + trial)
        b = db[int(rng.integers(0, n))]
        r = build_object("r", [(p, 1.0) for p in rng.uniform(0, 1, size=(3, 2))])
        exact = enumerate_exact(db, b, r).pdf
        rank = inverse_ranking(db, b, r, stop=FULL)
        np.testing.assert_allclose(rank.lb, exact, atol=1e-6)
        np.testing.assert_allclose(rank.ub, exact, atol=1e-6)
        lo, hi = expected_rank_interval(rank.result.distribution)
        truth = float(exact @ np.arange(1, n + 1))
        assert abs(lo - truth) < 1e-6 and abs(hi - truth) < 1e-6
    print(f"ACCEPTANCE C09 query-level agreement: PASS "
          f"({checked} decisive MC comparisons, irank/erank exact to 1e-6)")


# ---------------------------------------------------------------------------
# C10: early-termination soundness
# ---------------------------------------------------------------------------


def test_c10_early_termination_soundness():
    rng = np.random.default_rng(10)
    agreements = total = 0
    while total < 100:
        db, b, r = random_tiny_instance(rng)
        k = int(rng.integers(1, 4))
        tau = float(rng.uniform(0.1, 0.9))
        predicate = QueryPredicate("knn", k, tau)
        from udom.idca import PredicateDecided

        early = idca(db, b, r, stop=PredicateDecided(predicate.decide))
        early_verdict = predicate.decide(early.distribution)
        if early_verdict is None:
            continue  # ran to exhaustion without deciding; nothing to compare
        full = idca(db, b, r, stop=FULL)
        full_verdict = predicate.decide(full.distribution)
        total += 1
        agreements += early_verdict == full_verdict
    assert agreements == total == 100
    print("ACCEPTANCE C10 early-termination soundness: PASS (100/100 decisions)")


# ---------------------------------------------------------------------------
# C11: scale smoke test
# ---------------------------------------------------------------------------


def test_c11_scale_smoke():
    start = time.perf_counter()
    db = generate_synthetic(10_000, 2, 0.004, 100, seed=20260808)
    assert all((o.mbr.lo >= 0.0).all() and (o.mbr.hi <= 1.004).all() for o in db)
    rng = np.random.default_rng(20260808)
    ref = db[int(rng.integers(0, len(db)))]
    others = [o for o in db if o is not ref]
    others.sort(key=lambda o: (rect_min_dist(o.mbr, ref.mbr), str(o.id)))
    target = others[9]  # tenth-smallest MinDist selection rule
    rank = inverse_ranking(db, target, ref)
    elapsed = time.perf_counter() - start
    trace = rank.result.uncertainty_trace
    assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
    assert elapsed < 300.0
    assert abs(rank.lb.sum() - 1.0) < 1e-6 or trace[-1] > 0
    print(f"ACCEPTANCE C11 scale smoke: PASS "
          f"(10000 objects, {rank.result.iterations_run} iterations, "
          f"{elapsed:.1f}s < 300s, final uncertainty {trace[-1]:.3g})")
