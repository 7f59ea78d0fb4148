"""Property tests for the engine and the threshold queries against the
possible-worlds oracle.

Coordinates and weights are drawn from small integer grids so ties,
coincident samples and zero-extent boxes are common; query, target and
reference objects are either database members or external objects whose id
may collide with a database id.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from udom.idca import AnyOf, MaxDepth, PredicateDecided, UncertaintyBelow, idca
from udom.model import build_object
from udom.oracle import enumerate_exact
from udom.queries import QueryPredicate, pknn_query, prknn_query


@st.composite
def objects(draw, obj_id, d):
    n = draw(st.integers(1, 3))
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
    full = idca(db, b, r, p=p, criterion=criterion, stop=AnyOf([MaxDepth(12), UncertaintyBelow(0.0)]))
    prev = None
    for dist in full.history:
        assert len(dist) == len(exact)
        assert (dist.lb <= exact + 1e-9).all() and (exact <= dist.ub + 1e-9).all()
        if prev is not None:
            assert (dist.lb >= prev.lb - 1e-12).all() and (dist.ub <= prev.ub + 1e-12).all()
        prev = dist

    predicate = QueryPredicate("knn", k, tau)
    early = idca(db, b, r, p=p, criterion=criterion, stop=PredicateDecided(predicate.decide))
    assert early.iterations_run <= len(full.history)
    at_stop = full.history[early.iterations_run - 1]
    assert early.distribution.lb.tobytes() == at_stop.lb.tobytes()
    assert early.distribution.ub.tobytes() == at_stop.ub.tobytes()
    assert predicate.decide(early.distribution) == predicate.decide(full.distribution)
