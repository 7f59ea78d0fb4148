"""Property tests for the threshold queries against the possible-worlds oracle.

Coordinates and weights are drawn from small integer grids so ties and
coincident samples are common; the query is either a database member or an
external object whose id collides with a database id.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from udom.model import build_object
from udom.oracle import enumerate_exact
from udom.queries import pknn_query, prknn_query


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
