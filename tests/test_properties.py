"""Property tests for the engine and the threshold queries against the
possible-worlds oracle.

Coordinates and weights are drawn from small integer grids so ties are
common; an object is a spread of samples, a single sample (a zero-extent
box) or several weighted samples at one point.  Query, target and reference
objects are either database members or external objects whose id may
collide with a database id.
"""

import contextlib
import functools
import importlib
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import udom.domination as domination
import udom.queries as queries
from udom.genfunc import _extract_batch, _ugf_expand_batch
from udom.idca import _expand_open, idca
from udom.model import build_object
from udom.oracle import enumerate_exact
from udom.queries import QueryPredicate, expected_rank, pknn_query, prknn_query

from reference import expected_rank_per_target, threshold_query_per_target


SHAPES = ("spread", "single", "coincident")


@st.composite
def objects(draw, obj_id, d, shapes=SHAPES):
    shape = draw(st.sampled_from(shapes))
    n = 1 if shape == "single" else draw(st.integers(2 if shape == "coincident" else 1, 3))
    if shape == "coincident":
        coords = draw(st.lists(st.integers(0, 4), min_size=d, max_size=d)) * n
    else:
        coords = draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    pts = np.array(coords, dtype=float).reshape(n, d)
    return build_object(obj_id, list(zip(pts, weights)))


@st.composite
def instances(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    db = [draw(objects(i, d)) for i in range(n)]
    if draw(st.booleans()):
        q = db[draw(st.integers(0, n - 1))]
    else:
        q = draw(objects(draw(st.integers(0, n - 1)), d))
    return db, q


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(instances(), st.sampled_from([1.0, 2.0, 3.0]), st.integers(1, 3), st.sampled_from([0.25, 0.5, 0.75]))
def test_threshold_queries_count_every_other_object(instance, p, k, tau):
    db, q = instance
    q_in_db = any(o is q for o in db)
    for query in (pknn_query, prknn_query):
        answer = query(db, q, k, tau, p=p)
        assert len(answer.decisions) == len(db) - q_in_db
        for decision in answer.decisions:
            if decision.decision == "undecided":
                continue
            target = next(o for o in db if o.id == decision.object_id)
            b, r = (target, q) if query is pknn_query else (q, target)
            exact = float(enumerate_exact(db, b, r, p=p).pdf[:k].sum())
            if abs(exact - tau) > 1e-9:
                assert decision.decision == ("in" if exact > tau else "out")


def recorder():
    """An `on_iteration` callback and the (depth, lb bits, ub bits) it saw."""
    seen = []
    return seen, lambda depth, dist: seen.append((depth, dist.lb.tobytes(), dist.ub.tobytes()))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    instances(),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.sampled_from(["optimal", "minmax"]),
    st.integers(1, 3),
    st.sampled_from([0.25, 0.5, 0.75]),
    st.sampled_from([{}, {"max_depth": 1}, {"max_depth": 3}, {"epsilon": 0.5}]),
    st.sampled_from([None, 1, 40]),
)
def test_queries_equal_the_per_target_loop(instance, p, criterion, k, tau, stops, budget):
    """The one-pass queries return, field by field, the decisions of one
    full `idca` run per target, and make the same `on_iteration` calls in
    the same order.  The database is validated once per query.  A tiny
    float budget splits the targets into chunks (budget 1: one per chunk)."""
    db, q = instance
    n_targets = len(db) - any(o is q for o in db)
    engine = dict(p=p, criterion=criterion, **stops)
    chunks, validations = [], []
    labels, validate = domination._mbr_labels, queries.others
    with (
        mock.patch.object(domination, "_BATCH_FLOAT_BUDGET", budget or domination._BATCH_FLOAT_BUDGET),
        # A chunk's size is its target-stack length times its reference-stack length.
        mock.patch.object(domination, "_mbr_labels", lambda *a: chunks.append(len(a[2]) * len(a[4])) or labels(*a)),
        mock.patch.object(queries, "others", lambda *a: validations.append(1) or validate(*a)),
        mock.patch("udom.domination.others", queries.others),
    ):
        for kind, query in (("knn", pknn_query), ("rknn", prknn_query)):
            chunks.clear()
            validations.clear()
            got_calls, got_hook = recorder()
            want_calls, want_hook = recorder()
            got = query(db, q, k, tau, on_iteration=got_hook, **engine).decisions
            assert validations == [1]
            assert sum(chunks) == n_targets
            if budget == 1:
                assert chunks == [1] * n_targets
            want = threshold_query_per_target(kind, db, q, k, tau, on_iteration=want_hook, **engine)
            assert repr(got) == repr(want)
            assert got_calls == want_calls
        got_calls, got_hook = recorder()
        want_calls, want_hook = recorder()
        got = expected_rank(db, q, on_iteration=got_hook, **engine)
        assert repr(got) == repr(expected_rank_per_target(db, q, on_iteration=want_hook, **engine))
        assert got_calls == want_calls


@st.composite
def engine_instances(draw):
    """A database with a target b and a reference r, each either a database
    member (b and r distinct) or an external object."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    db = [draw(objects(i, d)) for i in range(n)]
    members = draw(st.permutations(range(n)))
    picked = []
    for role in ("b", "r"):
        if members[len(picked) :] and draw(st.booleans()):
            picked.append(db[members[len(picked)]])
        else:
            picked.append(draw(objects(draw(st.sampled_from([*range(n), role])), d)))
    return db, *picked


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    engine_instances(),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
    st.sampled_from(["optimal", "minmax"]),
    st.integers(1, 4),
    st.sampled_from([0.25, 0.5, 0.75]),
)
def test_engine_sandwiches_oracle_and_stops_soundly(instance, p, criterion, k, tau):
    """Every depth's bounds contain the exact count PDF, lower bounds rise
    and upper bounds fall with depth, and a predicate-stopped run is a
    prefix of the full run with the full run's verdict."""
    db, b, r = instance
    exact = enumerate_exact(db, b, r, p=p).pdf
    full = idca(db, b, r, p=p, criterion=criterion, max_depth=12, epsilon=0.0)
    prev = None
    for dist in full.history:
        assert len(dist) == len(exact)
        assert (dist.lb <= exact + 1e-9).all() and (exact <= dist.ub + 1e-9).all()
        if prev is not None:
            assert (dist.lb >= prev.lb - 1e-12).all() and (dist.ub <= prev.ub + 1e-12).all()
        prev = dist

    predicate = QueryPredicate("knn", k, tau)
    early = idca(db, b, r, p=p, criterion=criterion, max_depth=12, decide=predicate.decide)
    assert early.iterations_run <= len(full.history)
    at_stop = full.history[early.iterations_run - 1]
    assert early.distribution.lb.tobytes() == at_stop.lb.tobytes()
    assert early.distribution.ub.tobytes() == at_stop.ub.tobytes()
    assert predicate.decide(early.distribution) == predicate.decide(full.distribution)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.data(),
    st.integers(1, 3),
    st.integers(2, 6),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.sampled_from(["optimal", "minmax"]),
)
def test_zero_extent_objects_are_answered_at_iteration_zero(data, d, n, p, criterion):
    """When every object is one point or several samples at one point, the
    MBRs are the objects: every run ends after iteration 0, and without an
    exact distance tie its bounds are the exact count PDF."""
    point = functools.partial(objects, d=d, shapes=("single", "coincident"))
    db = [data.draw(point(i)) for i in range(n)]
    b = db[0]
    r = data.draw(st.sampled_from(db[1:]) | point("r"))
    full = idca(db, b, r, p=p, criterion=criterion, max_depth=12, epsilon=0.0)
    assert full.iterations_run == 1
    assert full.stop_reason in ("criterion", "exhausted")

    exact = enumerate_exact(db, b, r, p=p).pdf
    dist = full.distribution
    assert (dist.lb <= exact + 1e-12).all() and (exact <= dist.ub + 1e-12).all()

    # Integer coordinates and orders: the p-th power distances are exact.
    def power(o):
        return float((np.abs(o.points[0] - r.points[0]) ** p).sum())

    if all(power(o) != power(b) for o in db if o is not b and o is not r):
        assert full.stop_reason == "criterion"
        np.testing.assert_allclose(dist.lb, exact, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dist.ub, exact, rtol=0, atol=1e-12)


@st.composite
def crowded_instances(draw):
    """Six to twelve overlapping objects of one to six weighted samples each,
    on a coarse grid (so samples and distances tie) or spread freely, and a
    query object that is a database member or external."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(6, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    db = []
    for i in range(n):
        k = int(rng.integers(1, 7))
        pts = rng.uniform(0.0, 1.0, size=d) + rng.uniform(-0.3, 0.3, size=(k, d))
        if grid:
            pts = np.round(pts * 4) / 4
        db.append(build_object(i, list(zip(pts, rng.uniform(0.1, 1.0, size=k)))))
    if draw(st.booleans()):
        q = db[draw(st.integers(0, n - 1))]
    else:
        q = build_object("q", [(pt, 1.0) for pt in rng.uniform(0.2, 0.8, size=(int(rng.integers(1, 4)), d))])
    return db, q


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    crowded_instances(),
    st.sampled_from(["optimal", "minmax"]),
    st.integers(1, 6),
    st.sampled_from([{}, {"max_depth": 2}, {"max_depth": 4}, {"epsilon": 0.25}]),
    st.sampled_from([None, 4, 24]),
    st.sampled_from([None, 1, 64 * 600, 64 * 7 * 30 * 30]),
)
def test_batched_refinement_equals_the_per_target_loop(instance, criterion, k, stops, pair_budget, batch_budget):
    """Many open targets refined together equal, field by field and call by
    call, one full `idca` run per target: both roles and criteria, q in the
    database or external, varied stop rules and k, and budgets patched so
    that labelling chunks, batches, kernel calls and expansions split into
    several chunks (budget 1: one target per chunk and batch, one candidate
    root per `pdom_bounds_grid` call, one pair row per expansion chunk;
    64 * 600: batches of a few runs; a kernel-call cap of 7 * 30 * 30
    floats: a reference's candidate roots in several calls) and the pair
    budget stops some runs.  Targets retire at different depths."""
    db, q = instance
    engine = importlib.import_module("udom.idca")
    patched = [
        (engine, "_PAIR_BUDGET", pair_budget),
        (engine, "_BATCH_FLOAT_BUDGET", batch_budget),
        (domination, "_BATCH_FLOAT_BUDGET", batch_budget),
    ]
    with contextlib.ExitStack() as stack:
        for module, name, value in patched:
            if value is not None:
                stack.enter_context(mock.patch.object(module, name, value))
        for kind, query in (("knn", pknn_query), ("rknn", prknn_query)):
            got_calls, got_hook = recorder()
            want_calls, want_hook = recorder()
            got = query(db, q, k, 0.5, criterion=criterion, on_iteration=got_hook, **stops).decisions
            want = threshold_query_per_target(kind, db, q, k, 0.5, criterion=criterion, on_iteration=want_hook, **stops)
            assert repr(got) == repr(want)
            assert got_calls == want_calls
        got_calls, got_hook = recorder()
        want_calls, want_hook = recorder()
        got = expected_rank(db, q, criterion=criterion, on_iteration=got_hook, **stops)
        assert repr(got) == repr(expected_rank_per_target(db, q, criterion=criterion, on_iteration=want_hook, **stops))
        assert got_calls == want_calls


# (plb, pub) of one factor, from two drawn values x <= y in (0, 1).
FACTOR_KINDS = {
    "impossible": lambda x, y: (0.0, 0.0),
    "certain": lambda x, y: (1.0, 1.0),
    "resolved": lambda x, y: (x, x),
    "open": lambda x, y: (x, y),
    "from_zero": lambda x, y: (0.0, y),
    "to_one": lambda x, y: (x, 1.0),
}


@st.composite
def factor_bounds(draw):
    """(rows, n) factor bounds with many exact 0 and 1 entries: each factor
    of a kind above, some rows certain in every factor, and all-zero
    padding columns mixed in."""
    rows, n, pad = draw(st.integers(1, 8)), draw(st.integers(0, 10)), draw(st.integers(0, 3))
    kinds = draw(st.lists(st.sampled_from(sorted(FACTOR_KINDS)), min_size=rows * n, max_size=rows * n))
    values = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=2 * rows * n, max_size=2 * rows * n))
    certain = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    plb, pub = np.zeros((2, rows, n + pad))
    for cell, kind in enumerate(kinds):
        x, y = sorted(values[2 * cell : 2 * cell + 2])
        plb[cell // n, cell % n], pub[cell // n, cell % n] = FACTOR_KINDS[kind](x, y)
    plb[certain, :n] = pub[certain, :n] = 1.0
    columns = draw(st.permutations(range(n + pad)))
    return plb[:, columns], pub[:, columns]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(factor_bounds())
@example((np.array([[1.0, 0.3, 0.0], [0.0, 0.2, 1.0]]), np.array([[1.0, 0.6, 0.0], [0.0, 0.2, 1.0]])))
@example((np.array([[1.0, 1.0, 0.0]]), np.array([[1.0, 1.0, 0.0]])))
@example((np.array([[0.3, 0.2], [0.0, 0.5]]), np.array([[0.6, 0.5], [0.1, 0.5]])))
def test_open_factor_expansion_equals_the_dense_grid(bounds):
    """Expanding only each row's open factors and shifting by its certain
    ones gives the dense expansion's count bounds byte for byte, and the
    packed block is expanded exactly when it updates fewer grid cells."""
    plb, pub = bounds
    n = plb.shape[1]
    engine = importlib.import_module("udom.idca")
    widths = []

    def spy(lo, hi):
        widths.append(lo.shape[1])
        return _ugf_expand_batch(lo, hi)

    with mock.patch.object(engine, "_ugf_expand_batch", spy):
        got = _expand_open(plb, pub)
    for g, w in zip(got, _extract_batch(_ugf_expand_batch(plb, pub), n)):
        assert g.shape == w.shape
        assert np.ascontiguousarray(g).tobytes() == w.tobytes()
    open_ = (pub > 0.0) & (plb < 1.0)
    w = int(open_.sum(axis=1).max(initial=0))
    a, a_open = (int(((plb > 0.0) & keep).sum(axis=1).max(initial=0)) for keep in (True, open_))
    packs = (a_open + 1) * w < (a + 1) * int((pub > 0.0).any(axis=0).sum())
    assert widths == [w if packs else n]
