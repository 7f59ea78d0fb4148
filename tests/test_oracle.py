import numpy as np
import pytest

import udom.oracle as oracle
from udom.idca import idca
from udom.model import build_object
from udom.oracle import WorldBudgetError, enumerate_exact, mc_baseline
from udom.queries import pknn_query

from conftest import random_instance


def example_dependency_fixture():
    """Two coincident certain candidates, a certain target, and a two-position
    reference that makes both candidates dominate together or not at all."""
    a1 = build_object("a1", [((0.0, 0.0), 1.0)])
    a2 = build_object("a2", [((0.0, 0.0), 1.0)])
    b = build_object("b", [((4.0, 0.0), 1.0)])
    r = build_object("r", [((1.0, 0.0), 0.5), ((4.0, 0.0), 0.5)])
    return [a1, a2, b], b, r


def test_dependency_fixture_exact_pdf():
    db, b, r = example_dependency_fixture()
    res = enumerate_exact(db, b, r)
    np.testing.assert_allclose(res.pdf, [0.5, 0.0, 0.5], atol=1e-12)
    # The naive independent combination would put 0.25 on count 2.
    assert abs(res.pdf[2] - 0.25) > 0.2
    assert res.worlds == 2


def test_all_certain_degenerate():
    db = [build_object(f"o{i}", [((float(i), 0.0), 1.0)]) for i in range(5)]
    b = db[3]
    r = build_object("r", [((0.0, 0.0), 1.0)])
    res = enumerate_exact(db, b, r)
    expected = np.zeros(5)
    expected[3] = 1.0  # objects 0, 1, 2 are closer to r than b
    np.testing.assert_allclose(res.pdf, expected, atol=1e-12)


def test_pdf_sums_to_one_and_permutation_invariant(rng):
    db, b, r = random_instance(rng, n_objects=5)
    first = enumerate_exact(db, b, r)
    assert abs(first.pdf.sum() - 1.0) < 1e-9
    perm = [db[i] for i in rng.permutation(len(db))]
    second = enumerate_exact(perm, b, r)
    np.testing.assert_allclose(first.pdf, second.pdf, atol=1e-12)


def test_world_budget_enforced(rng, monkeypatch):
    # No candidate: 4000 x 3000 worlds of b and r alone are over the budget.
    b = build_object("b", [(pt, 1.0) for pt in rng.uniform(size=(4000, 2))])
    r = build_object("r", [(pt, 1.0) for pt in rng.uniform(size=(3000, 2))])
    with pytest.raises(WorldBudgetError):
        enumerate_exact([b, r], b, r)
    monkeypatch.setattr("udom.oracle._WORLD_BUDGET", 3)
    db, b, r = random_instance(rng, n_objects=6, max_samples=4)
    with pytest.raises(WorldBudgetError):
        enumerate_exact(db, b, r)


def test_mc_exact_for_certain_instance():
    db = [build_object(f"o{i}", [((float(i), 0.0), 1.0)]) for i in range(4)]
    b = db[2]
    q = build_object("q", [((0.0, 0.0), 1.0)])
    res = mc_baseline(db, b, q, samples=1, seed=0)
    expected = np.zeros(4)
    expected[2] = 1.0
    np.testing.assert_allclose(res.pdf, expected, atol=1e-12)
    assert res.worlds == 1


def test_mc_exhaustive_matches_enumeration(rng):
    for _ in range(20):
        db, b, r = random_instance(rng, n_objects=5, max_samples=3)
        exact = enumerate_exact(db, b, r)
        mc = mc_baseline(db, b, r, samples=None)
        np.testing.assert_allclose(mc.pdf, exact.pdf, atol=1e-9)


def test_mc_work_grows_with_sample_budget(rng):
    db, b, r = random_instance(rng, n_objects=5, max_samples=4)
    pairs = [mc_baseline(db, b, r, samples=s, seed=3).worlds for s in (1, 8, 64)]
    assert pairs[0] <= pairs[1] <= pairs[2]


def test_mc_estimate_converges(rng):
    db, b, r = random_instance(rng, n_objects=5, max_samples=4)
    exact = enumerate_exact(db, b, r)
    est = mc_baseline(db, b, r, samples=20000, seed=7)
    assert 0.5 * np.abs(est.pdf - exact.pdf).sum() < 0.05


def test_mc_validates():
    db, b, r = ([build_object("o", [((0.0, 0.0), 1.0)])],) * 1 + (
        build_object("b", [((1.0, 0.0), 1.0)]),
        build_object("q", [((2.0, 0.0), 1.0)]),
    )
    with pytest.raises(ValueError):
        mc_baseline(db, b, r, samples=0)


def test_mc_samples_must_be_an_integer(rng):
    """A fractional draw count gave a PDF of total mass below 1, and True
    reported "True query draws"."""
    db, b, r = random_instance(rng, n_objects=4)
    for bad in (2.5, float("nan"), float("inf"), "8", True):
        with pytest.raises(ValueError, match="samples must be an integer"):
            mc_baseline(db, b, r, samples=bad, seed=3)
    got = mc_baseline(db, b, r, samples=np.int64(8), seed=3)
    want = mc_baseline(db, b, r, samples=8, seed=3)
    assert got.pdf.tobytes() == want.pdf.tobytes() and got.worlds == want.worlds


def test_repeated_ids_are_rejected():
    """Ids label answers, so they must be unique.  When identity was by id,
    excluding the target a@2 also dropped a@1, and both engines answered
    P(0)=P(1)=0.5."""
    a1 = build_object("a", [((1.0, 0.0), 1.0)])
    a2 = build_object("a", [((2.0, 0.0), 1.0)])
    c = build_object("c", [((0.5, 0.0), 0.5), ((3.0, 0.0), 0.5)])
    r = build_object("r", [((0.0, 0.0), 1.0)])
    for engine in (idca, enumerate_exact, mc_baseline):
        with pytest.raises(ValueError, match="unique"):
            engine([a1, a2, c], a2, r)
    # With distinct ids the truth is P(1) = P(2) = 0.5: a@1 always dominates.
    renamed = build_object("a1", [((1.0, 0.0), 1.0)])
    db = [renamed, a2, c]
    np.testing.assert_allclose(enumerate_exact(db, a2, r).pdf, [0.0, 0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(mc_baseline(db, a2, r).pdf, [0.0, 0.5, 0.5], atol=1e-12)
    dist = idca(db, a2, r).distribution
    np.testing.assert_allclose(dist.lb, [0.0, 0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(dist.ub, [0.0, 0.5, 0.5], atol=1e-12)


def test_mixed_dimensionality_is_rejected():
    """A 2-d database with a 1-d reference used to be answered silently:
    broadcasting gave [0, 1] from both oracles, idca gave [1.] and a
    one-object kNN query answered "in"."""
    b = build_object("b", [((1.0, 0.0), 1.0)])
    c = build_object("c", [((2.0, 0.0), 1.0)])
    r1 = build_object("r", [((0.0,), 1.0)])
    for engine, db in ((enumerate_exact, [b, c]), (mc_baseline, [b, c]), (idca, [b])):
        with pytest.raises(ValueError, match="dimension"):
            engine(db, b, r1)
    with pytest.raises(ValueError, match="dimension"):
        pknn_query([c], r1, 1, 0.5)


def test_oracles_validate_the_database_once(rng, monkeypatch):
    """Each oracle call runs one `others` pass, and its PDF has a slot per
    database object other than the target, plus one, as `idca`'s does."""
    validate = oracle.others
    calls = []
    monkeypatch.setattr(oracle, "others", lambda db, *exclude: calls.append(len(exclude)) or validate(db, *exclude))
    db, b, r = random_instance(rng, n_objects=4, max_samples=2)
    external = build_object(b.id, [((0.5, 0.5), 1.0)])
    for target in (b, external):
        for engine in (enumerate_exact, mc_baseline):
            calls.clear()
            pdf = engine(db, target, r).pdf
            assert calls == [2]
            assert len(pdf) == len(idca(db, target, r, max_depth=1).distribution)
