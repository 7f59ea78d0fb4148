import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import udom.domination as domination
from udom.domination import ProbBounds, _target_labels, classify, pdom_bounds_grid
from udom.geometry import _KERNEL_FLOATS_PER_CELL, Rect
from udom.model import DecompositionTree, Frontier, build_object

from conftest import random_boxes, random_instance, random_object
from reference import dominates_minmax, dominates_optimal, pdom_bounds_loop, pdom_bounds_per_r_node, pdom_bounds_stacked


def point_obj(obj_id, xy):
    return build_object(obj_id, [(xy, 1.0)])


def pdom_bounds(a, b_rect, r_rect, p=2.0, depth=1):
    """`pdom_bounds_grid` for candidate `a` at `depth` against one fixed
    (b-node, r-node) pair, as one ProbBounds."""
    b, r = (DecompositionTree([build_object("box", [(x.lo, 1.0), (x.hi, 1.0)])]).leaves(1) for x in (b_rect, r_rect))
    lb, ub = pdom_bounds_grid(DecompositionTree([a]).leaves(depth), b, r, p)
    return ProbBounds(float(lb[0, 0, 0]), float(ub[0, 0, 0]))


def test_probbounds_validation():
    ProbBounds(0.2, 0.8)
    with pytest.raises(ValueError):
        ProbBounds(0.8, 0.2)
    with pytest.raises(ValueError):
        ProbBounds(-0.2, 0.5)
    bounds = ProbBounds(0.25, 0.75)
    assert bounds.ub - bounds.lb == 0.5


def test_classify_clear_cut():
    r = point_obj("r", (0.0, 0.0))
    b = point_obj("b", (5.0, 0.0))
    near = point_obj("near", (0.5, 0.0))
    far = point_obj("far", (50.0, 0.0))
    cls = classify([near, b, far], b, r)
    assert cls.complete_dominators == ("near",)
    assert cls.irrelevant == ("far",)
    assert cls.influence_objects == ()
    assert cls.complete_domination_count == 1


def test_classify_mirror_symmetric_is_influence():
    r = build_object("r", [((-1.0, -1.0), 0.5), ((1.0, 1.0), 0.5)])
    b = build_object("b", [((2.0, 0.0), 0.5), ((3.0, 1.0), 0.5)])
    mirror = build_object("a", [((-2.0, 0.0), 0.5), ((-3.0, -1.0), 0.5)])
    cls = classify([mirror, b], b, r)
    assert cls.influence_objects == (mirror,)


def test_classify_excludes_target_and_reference():
    r = point_obj("r", (0.0, 0.0))
    b = point_obj("b", (1.0, 0.0))
    other = point_obj("c", (2.0, 0.0))
    cls = classify([r, b, other], b, r)
    groups = cls.complete_dominators + cls.influence_objects + cls.irrelevant
    assert set(groups) == {"c"}


def test_classify_influence_objects_are_database_objects(rng):
    """The influence group holds the database objects themselves, in database
    order, and the decided groups their ids.  An external reference whose id
    equals a database id excludes nothing, so that database object lands in
    exactly one group."""
    seen = 0
    for _ in range(40):
        db, b, _ = random_instance(rng, n_objects=6)
        twin = next(o for o in db if o is not b)
        r = build_object(twin.id, [(pt, 1.0) for pt in rng.uniform(0, 1, size=(3, 2))])
        cls = classify(db, b, r)
        rest = [o for o in db if o is not b]
        influence = [next(i for i, o in enumerate(rest) if o is a) for a in cls.influence_objects]
        assert influence == sorted(influence)
        for group in (cls.complete_dominators, cls.irrelevant):
            assert list(group) == [o.id for o in rest if o.id in group]
        assert sum(map(len, (cls.complete_dominators, cls.influence_objects, cls.irrelevant))) == len(rest)
        in_influence = any(a is twin for a in cls.influence_objects)
        hits = [twin.id in cls.complete_dominators, twin.id in cls.irrelevant, in_influence]
        assert sum(hits) == 1
        seen += hits[2]
    assert seen  # the twin was an influence object at least once


def _box_object(rng, obj_id, d, grid):
    """One to three samples, on the integer grid 0..4 (exact MBR ties are
    common) or uniform in [0, 4)."""
    n = int(rng.integers(1, 4))
    pts = rng.integers(0, 5, size=(n, d)).astype(float) if grid else rng.uniform(0.0, 4.0, size=(n, d))
    return build_object(obj_id, [(pt, 1.0) for pt in pts])


def test_classify_equals_the_one_pair_oracle(rng):
    """Object by object, `classify` groups as the one-pair kernel decides on
    the MBRs: COMPLETE when the object dominates b, else IRRELEVANT when b
    dominates it, else INFLUENCE.  Groups keep database order, and b and r,
    each a database member or external, land in no group; `db == [b]` and
    `db == []` give empty groups."""
    oracles = {"optimal": dominates_optimal, "minmax": dominates_minmax}
    for case in range(400):
        d, p = int(rng.integers(1, 4)), float(rng.integers(1, 4))
        criterion, grid = ("optimal", "minmax")[case % 2], case % 4 < 2
        db = [_box_object(rng, i, d, grid) for i in range(int(rng.integers(0, 6)))]
        b = db[0] if db and rng.random() < 0.5 else _box_object(rng, "b", d, grid)
        r = db[-1] if len(db) > 1 and rng.random() < 0.5 else _box_object(rng, "r", d, grid)
        dominates = oracles[criterion]
        want = {"complete": [], "influence": [], "irrelevant": []}
        for o in db:
            if o is b or o is r:
                continue
            if dominates(o.mbr, b.mbr, r.mbr, p):
                want["complete"].append(o.id)
            elif dominates(b.mbr, o.mbr, r.mbr, p):
                want["irrelevant"].append(o.id)
            else:
                want["influence"].append(o)
        cls = classify(db, b, r, p=p, criterion=criterion)
        assert list(cls.complete_dominators) == want["complete"]
        assert list(cls.irrelevant) == want["irrelevant"]
        assert len(cls.influence_objects) == len(want["influence"])
        assert all(got is o for got, o in zip(cls.influence_objects, want["influence"]))
        for alone in ([b], []):
            assert classify(alone, b, r, p=p, criterion=criterion) == domination.DominationClassification((), (), ())


def test_square_knn_chunk_equals_one_target_chunks(rng, monkeypatch):
    """A kNN split chunk of every object reads its reverse grid as the
    forward grid's transpose; one-target chunks make a reverse kernel call
    each.  Both give byte-identical masks and counts, under a point q (the
    kernel's key path) and a box q.  In the RkNN role over point objects a
    target dominates q under its own box; its own row is in neither mask,
    so in both roles each target's s and m are those of `classify`."""
    oracles = {"optimal": dominates_optimal, "minmax": dominates_minmax}
    for d in (1, 2, 3):
        for criterion in ("optimal", "minmax"):
            boxes = [_box_object(rng, i, d, grid=d == 2) for i in range(12)]
            points = [build_object(i, [(rng.uniform(0.0, 4.0, size=d), 1.0)]) for i in range(12)]
            order = [int(i) for i in rng.permutation(12)]
            for roles, objs in (("knn", boxes), ("rknn", points)):
                for q in (build_object("q", [(rng.uniform(0.0, 4.0, size=d), 1.0)]), _box_object(rng, "q", d, grid=False)):
                    ((cols, s, m, complete, influence),) = _target_labels(objs, order, q, roles, 2.0, criterion)
                    assert cols == order
                    with monkeypatch.context() as patch:
                        patch.setattr(domination, "_BATCH_FLOAT_BUDGET", 1)
                        chunks = list(_target_labels(objs, order, q, roles, 2.0, criterion))
                    assert [chunk[0] for chunk in chunks] == [[i] for i in order]
                    assert s.tobytes() == np.concatenate([chunk[1] for chunk in chunks]).tobytes()
                    assert m.tobytes() == np.concatenate([chunk[2] for chunk in chunks]).tobytes()
                    assert complete.tobytes() == np.hstack([chunk[3] for chunk in chunks]).tobytes()
                    assert influence.tobytes() == np.hstack([chunk[4] for chunk in chunks]).tobytes()
                    for j, t in enumerate(order):
                        cls = classify(objs, objs[t], q, criterion=criterion) if roles == "knn" else classify(objs, q, objs[t], criterion=criterion)
                        assert (s[j], m[j]) == (cls.complete_domination_count, len(cls.influence_objects))
                        assert not complete[t, j] and not influence[t, j]
                    if roles == "rknn" and len(q.points) == 1:
                        assert any(oracles[criterion](t.mbr, q.mbr, t.mbr, 2.0) for t in objs)


def test_classify_dimension_mismatch():
    b = point_obj("b", (0.0, 0.0))
    r = build_object("r", [((0.0,), 1.0)])
    with pytest.raises(ValueError):
        classify([b, point_obj("a", (1.0, 1.0))], b, r)


def test_classify_point_objects_agree_with_exhaustive(rng):
    """For point objects the rectangle criterion is exact, so classification
    must match the per-sample distance comparison."""
    for _ in range(200):
        pts = rng.uniform(0, 1, size=(8, 2))
        db = [point_obj(f"o{i}", tuple(p)) for i, p in enumerate(pts)]
        b = db[0]
        r = point_obj("r", tuple(rng.uniform(0, 1, size=2)))
        cls = classify(db, b, r)
        d_b = ((pts[0] - r.points[0]) ** 2).sum()
        for i in range(1, 8):
            d_a = ((pts[i] - r.points[0]) ** 2).sum()
            label = f"o{i}"
            if d_a < d_b:
                assert label in cls.complete_dominators
            elif d_b < d_a:
                assert label in cls.irrelevant
            else:
                assert db[i] in cls.influence_objects


def test_classify_multisample_is_conservative(rng):
    """Geometric classification may defer to 'influence', but whenever it
    commits, the exhaustive sample check agrees."""
    for _ in range(60):
        db, b, r = random_instance(rng, n_objects=6, max_samples=3)
        cls = classify(db, b, r)
        by_id = {o.id: o for o in db}
        for label in cls.complete_dominators:
            a = by_id[label]
            for a_pt in a.points:
                for b_pt in b.points:
                    for r_pt in r.points:
                        assert ((a_pt - r_pt) ** 2).sum() < ((b_pt - r_pt) ** 2).sum()
        for label in cls.irrelevant:
            a = by_id[label]
            for a_pt in a.points:
                for b_pt in b.points:
                    for r_pt in r.points:
                        assert ((b_pt - r_pt) ** 2).sum() < ((a_pt - r_pt) ** 2).sum()


def test_pdom_bounds_depth_one_complete():
    a = point_obj("a", (0.1, 0.0))
    b = point_obj("b", (5.0, 0.0))
    r = point_obj("r", (0.0, 0.0))
    bounds = pdom_bounds(a, b.mbr, r.mbr, depth=1)
    assert bounds == ProbBounds(1.0, 1.0)
    rev = pdom_bounds(b, a.mbr, r.mbr, depth=1)
    assert rev == ProbBounds(0.0, 0.0)


def test_pdom_bounds_depth_one_undecided(rng):
    a = random_object(rng, "a", spread=2.0)
    b = random_object(rng, "b", center=a.points[0], spread=2.0)
    r = random_object(rng, "r", center=a.points[0], spread=2.0)
    bounds = pdom_bounds(a, b.mbr, r.mbr, depth=1)
    assert 0.0 <= bounds.lb and bounds.ub <= 1.0


def test_pdom_bounds_exact_at_full_depth(rng):
    """Against singleton target/reference nodes, full decomposition of
    the candidate recovers the exact per-sample domination probability."""
    for _ in range(50):
        k = int(rng.integers(1, 5))
        pts = rng.uniform(0, 1, size=(k, 2))
        wts = rng.uniform(0.1, 1, size=k)
        a = build_object("a", list(zip(pts, wts)))
        b = point_obj("b", tuple(rng.uniform(0, 1, size=2)))
        r = point_obj("r", tuple(rng.uniform(0, 1, size=2)))
        # Unequal weights can chain off one sample per level, so full
        # separation is only guaranteed at depth k (not ceil(log2 k) + 1).
        depth = k + 1
        bounds = pdom_bounds(a, b.mbr, r.mbr, depth=depth)
        d_b = ((b.points[0] - r.points[0]) ** 2).sum()
        exact = sum(
            w for pt, w in zip(a.points, a.weights) if ((pt - r.points[0]) ** 2).sum() < d_b
        )
        assert bounds.lb == pytest.approx(exact, abs=1e-9)
        assert bounds.ub == pytest.approx(exact, abs=1e-9)


def test_pdom_bounds_monotone_in_depth(rng):
    for _ in range(40):
        a = random_object(rng, "a", max_samples=8, spread=1.0)
        b = random_object(rng, "b", max_samples=3, spread=1.0)
        r = random_object(rng, "r", max_samples=3, spread=1.0)
        prev = None
        for depth in (1, 2, 3, 4, 5):
            cur = pdom_bounds(a, b.mbr, r.mbr, depth=depth)
            if prev is not None:
                assert cur.lb >= prev.lb - 1e-12
                assert cur.ub <= prev.ub + 1e-12
            prev = cur


def test_pdom_complement_consistency(rng):
    for _ in range(60):
        a = random_object(rng, "a", spread=1.2)
        b = random_object(rng, "b", spread=1.2)
        r = random_object(rng, "r", spread=1.2)
        fwd = pdom_bounds(a, b.mbr, r.mbr, depth=3)
        rev = pdom_bounds(b, a.mbr, r.mbr, depth=3)
        assert fwd.lb + rev.lb <= 1.0 + 1e-9


def test_classification_consistent_with_depth_one_bounds(rng):
    """Certain dominators carry bounds (1, 1) against the root nodes (the MBRs),
    certainly-dominated objects (0, 0)."""
    for _ in range(30):
        db, b, r = random_instance(rng, n_objects=6)
        cls = classify(db, b, r)
        by_id = {o.id: o for o in db}
        for label in cls.complete_dominators:
            bounds = pdom_bounds(by_id[label], b.mbr, r.mbr, depth=1)
            assert bounds == ProbBounds(1.0, 1.0)
        for label in cls.irrelevant:
            bounds = pdom_bounds(by_id[label], b.mbr, r.mbr, depth=1)
            assert bounds == ProbBounds(0.0, 0.0)


def test_pdom_bounds_grid_matches_scalar(rng):
    """Every (b-node, r-node) cell equals the scalar per-node loop."""
    for _ in range(25):
        a = random_object(rng, "a", max_samples=8, spread=1.0)
        b = random_object(rng, "b", max_samples=4, spread=1.0)
        r = random_object(rng, "r", max_samples=4, spread=1.0)
        depth = 3
        af, bf, rf = (DecompositionTree([o]).leaves(depth) for o in (a, b, r))
        lb, ub = pdom_bounds_grid(af, bf, rf)
        assert lb.shape == ub.shape == (1, len(bf), len(rf))
        for i in range(len(bf)):
            for j in range(len(rf)):
                b_rect = Rect(bf.lo[i], bf.hi[i])
                r_rect = Rect(rf.lo[j], rf.hi[j])
                loop_lb, loop_ub = pdom_bounds_loop(af, b_rect, r_rect)
                assert lb[0, i, j] == pytest.approx(loop_lb, abs=1e-12)
                assert ub[0, i, j] == pytest.approx(loop_ub, abs=1e-12)


@pytest.mark.parametrize("criterion", ["optimal", "minmax"])
def test_pdom_bounds_grid_stack_matches_per_candidate(rng, criterion):
    """A stack of candidates gives, bit for bit, the bounds of each candidate
    evaluated alone on its own arrays.  Candidates differ in node count; some
    are one sample (a single atomic node) or coincident samples (atomic).
    The targets are a forest of 1-3 objects of distinct sample counts, and
    each target root's columns are, bit for bit, those of that root alone."""
    for trial in range(40):
        d = int(rng.integers(1, 5))
        p = (1.0, 2.0, 3.0)[trial % 3]
        cands = []
        for c in range(int(rng.integers(1, 7))):
            kind = c % 3
            if kind == 0:
                cands.append(build_object(c, [(rng.uniform(0, 1, d), 1.0)]))
            elif kind == 1:
                pt = rng.uniform(0, 1, d)
                cands.append(build_object(c, [(pt, w) for w in rng.uniform(0.1, 1, 3)]))
            else:
                cands.append(random_object(rng, c, d, max_samples=12, spread=1.0))
        sizes = rng.choice(np.arange(1, 7), size=int(rng.integers(1, 4)), replace=False)
        bs = [
            build_object(f"b{i}", list(zip(rng.uniform(0, 1, d) + rng.uniform(-0.5, 0.5, (n, d)), rng.uniform(0.1, 1, n))))
            for i, n in enumerate(sizes)
        ]
        r = random_object(rng, "r", d, max_samples=6, spread=1.0)
        depth = int(rng.integers(1, 5))
        stack = DecompositionTree(cands).leaves(depth)
        bf = DecompositionTree(bs).leaves(depth)
        rf = DecompositionTree([r]).leaves(depth)
        assert len(stack) == sum(len(DecompositionTree([c]).leaves(depth)) for c in cands)
        lb, ub = pdom_bounds_grid(stack, bf, rf, p, criterion)
        want_lb, want_ub = pdom_bounds_stacked(stack, bf, rf, p, criterion)
        assert lb.shape == (len(cands), len(bf), len(rf))
        assert lb.tobytes() == want_lb.tobytes()
        assert ub.tobytes() == want_ub.tobytes()
        for j, o in enumerate(bs):
            cols = slice(bf.seg[j], bf.seg[j + 1])
            one_lb, one_ub = pdom_bounds_grid(stack, DecompositionTree([o]).leaves(depth), rf, p, criterion)
            assert np.ascontiguousarray(lb[:, cols]).tobytes() == one_lb.tobytes()
            assert np.ascontiguousarray(ub[:, cols]).tobytes() == one_ub.tobytes()


def _level(rng, sizes, d, grid, points=0.0):
    """A forest level of `random_boxes`, root j of ``sizes[j]`` nodes with
    random masses that sum to 1, about a `points` share of the nodes made
    points (``lo == hi``).  Only the node arrays are read, so each node is
    its own sample."""
    seg = np.concatenate([[0], np.cumsum(sizes)])
    k = int(seg[-1])
    lo, hi = random_boxes(rng, k, d, grid)
    point = rng.uniform(size=k) < points
    hi[point] = lo[point]
    mass = rng.uniform(0.05, 1.0, size=k)
    mass /= np.repeat(np.add.reduceat(mass, seg[:-1]), sizes)
    return Frontier(lo, hi, mass, np.arange(k), np.arange(k + 1), seg)


def _tiles(seg, fit, n_boxes, n_points):
    """The (candidate node rows, r-stack) slices of each forward kernel
    call of a `pdom_bounds_grid` call whose kernel calls hold `fit`
    candidate nodes x r-nodes, the r-stack taken from the box r-nodes, then
    the point r-nodes: `a` cut greedily into the most consecutive whole
    roots whose nodes fit (a root over it alone), each cut with r-chunks of
    ``max(1, fit // nodes)`` box r-nodes, then each point r-node alone."""
    tiles, s = [], 0
    while s < seg.size - 1:
        e = s + 1
        while e < seg.size - 1 and seg[e + 1] - seg[s] <= fit:
            e += 1
        rows, k = slice(seg[s], seg[e]), max(1, fit // (seg[e] - seg[s]))
        tiles += [(rows, slice(i, min(i + k, n_boxes))) for i in range(0, n_boxes, k)]
        tiles += [(rows, slice(i, i + 1)) for i in range(n_boxes, n_boxes + n_points)]
        s = e
    return tiles


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.sampled_from([1, 2, 3, 8]),
    st.sampled_from(["optimal", "minmax"]),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(1, 300),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.booleans(),
    st.sampled_from([None, 1.0, 2.0, 7.0, 0.5, 0.0]),
    st.integers(0, 2**32 - 1),
)
@example(2.0, 2, "optimal", 4, 3, 300, 0.5, True, None, 0)
@example(3.0, 8, "minmax", 3, 2, 300, 0.5, False, 2.0, 1)
@example(1.0, 1, "optimal", 1, 1, 1, 0.0, True, 1.0, 2)
@example(2.0, 3, "optimal", 6, 2, 40, 0.5, True, 0.5, 3)
@example(1.5, 2, "minmax", 6, 1, 25, 0.0, False, 0.0, 4)
def test_pdom_bounds_grid_equals_one_r_node_at_a_time(p, d, criterion, a_roots, b_roots, k, points, grid, share, seed):
    """Cutting `a` into whole-root kernel calls and stacking the box r-nodes
    into cap-sized r-chunks changes no bit: lb and ub equal, byte for byte,
    one forward and one reverse kernel call per r-node over all of `a`.
    Cases span p, d and both criteria, integer-grid ties and coincident
    boxes, degenerate boxes, r-frontiers of 1-300 nodes that are all
    points, all boxes or a mix, and budgets patched so that a kernel call
    holds `share` x len(a) candidate nodes x r-nodes (None: the default
    budget): 1, 2 or 7 r-chunks' worth of all of `a`, or half of `a`, so
    several roots a cut, or 1, so each root alone, one over it too.  Each
    kernel call's candidate rows and r-stack are the next tile in order:
    per cut of `a`, the r-chunks of box r-nodes, then, under "optimal",
    each point r-node alone."""
    rng = np.random.default_rng(seed)
    a, b = (_level(rng, rng.integers(1, 9, size=roots), d, grid) for roots in (a_roots, b_roots))
    r = _level(rng, [k], d, grid, points)
    fit = domination._cap() // (len(b) * _KERNEL_FLOATS_PER_CELL) if share is None else max(1, int(share * len(a)))
    budget = domination._BATCH_FLOAT_BUDGET if share is None else 64 * _KERNEL_FLOATS_PER_CELL * len(b) * fit
    calls, kernel = [], domination.dominance_grid

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    with mock.patch.object(domination, "_BATCH_FLOAT_BUDGET", budget), mock.patch.object(domination, "dominance_grid", counted):
        lb, ub = pdom_bounds_grid(a, b, r, p, criterion)
    want_lb, want_ub = pdom_bounds_per_r_node(a, b, r, p, criterion)
    assert lb.shape == (a_roots, len(b), k)
    assert lb.tobytes() == want_lb.tobytes()
    assert ub.tobytes() == want_ub.tobytes()
    point = (r.lo == r.hi).all(axis=1) & (criterion == "optimal")
    tiles = _tiles(a.seg, fit, k - int(point.sum()), int(point.sum()))
    assert len(calls) == 2 * len(tiles)
    stacks = np.concatenate([r.lo[~point], r.lo[point]])
    for (rows, z), forward, reverse in zip(tiles, calls[::2], calls[1::2]):
        assert forward[0].tobytes() == reverse[2].tobytes() == a.lo[rows].tobytes()
        assert forward[4].tobytes() == reverse[4].tobytes() == stacks[z].tobytes()


def test_pdom_bounds_grid_peak_memory_fits_the_cap():
    """A call over a multi-root `a` and 100 or more box r-nodes, in r-chunks
    of several r-nodes under the default budget, and a call whose 1200
    candidate roots are over `_cap` at one r-node, cut into whole-root
    kernel calls, each peak within `_cap` floats for their kernel calls,
    plus their two outputs, plus 256 KiB for numpy's ufunc buffers."""
    rng = np.random.default_rng(11)
    a, b, r = (_level(rng, np.full(roots, 5), 2, False) for roots in (40, 4, 30))
    assert (~(r.lo == r.hi).all(axis=1)).sum() >= 100
    k = domination._cap() // (len(a) * len(b) * _KERNEL_FLOATS_PER_CELL)
    assert 1 < k < len(r)  # several r-chunks of several r-nodes
    box = Frontier(np.zeros((1, 2)), np.ones((1, 2)), np.ones(1), np.arange(1), np.arange(2), np.array([0, 1]))
    wide = _level(rng, np.full(1200, 5), 2, False), b, box
    assert len(wide[0]) * len(b) * _KERNEL_FLOATS_PER_CELL > domination._cap()
    for a, b, r in ((a, b, r), wide):
        outputs = 2 * 8 * (a.seg.size - 1) * len(b) * len(r)
        tracemalloc.start()
        try:
            pdom_bounds_grid(a, b, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= domination._cap() * 8 + outputs + 256 * 1024
