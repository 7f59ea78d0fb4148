import numpy as np
import pytest

from udom.domination import ProbBounds, classify, pdom_bounds_grid
from udom.geometry import Rect
from udom.model import FrontierStack, build_object

from conftest import random_instance, random_object
from reference import pdom_bounds_loop, pdom_bounds_stacked


def point_obj(obj_id, xy):
    return build_object(obj_id, [(xy, 1.0)])


def pdom_bounds(a, b_rect, r_rect, p=2.0, depth=1):
    """`pdom_bounds_grid` for candidate `a` at `depth` against one fixed
    (b-node, r-node) pair, as one ProbBounds."""
    b, r = (FrontierStack(x.lo[None], x.hi[None], np.ones(1), np.arange(2)) for x in (b_rect, r_rect))
    lb, ub = pdom_bounds_grid(FrontierStack.of([a.leaves_at_depth(depth)]), b, r, p)
    return ProbBounds(float(lb[0, 0, 0]), float(ub[0, 0, 0]))


def test_probbounds_validation():
    ProbBounds(0.2, 0.8)
    with pytest.raises(ValueError):
        ProbBounds(0.8, 0.2)
    with pytest.raises(ValueError):
        ProbBounds(-0.2, 0.5)
    assert ProbBounds(0.25, 0.75).width == 0.5


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
    assert cls.influence_objects == ("a",)


def test_classify_excludes_target_and_reference():
    r = point_obj("r", (0.0, 0.0))
    b = point_obj("b", (1.0, 0.0))
    other = point_obj("c", (2.0, 0.0))
    cls = classify([r, b, other], b, r)
    groups = cls.complete_dominators + cls.influence_objects + cls.irrelevant
    assert set(groups) == {"c"}


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
                assert label in cls.influence_objects


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
        bf = b.leaves_at_depth(depth)
        rf = r.leaves_at_depth(depth)
        lb, ub = pdom_bounds_grid(FrontierStack.of([a.leaves_at_depth(depth)]), bf, rf)
        assert lb.shape == ub.shape == (1, len(bf), len(rf))
        for i in range(len(bf)):
            for j in range(len(rf)):
                b_rect = Rect(bf.lo[i], bf.hi[i])
                r_rect = Rect(rf.lo[j], rf.hi[j])
                loop_lb, loop_ub = pdom_bounds_loop(a, b_rect, r_rect, depth=depth)
                assert lb[0, i, j] == pytest.approx(loop_lb, abs=1e-12)
                assert ub[0, i, j] == pytest.approx(loop_ub, abs=1e-12)


@pytest.mark.parametrize("criterion", ["optimal", "minmax"])
def test_pdom_bounds_grid_stack_matches_per_candidate(rng, criterion):
    """A stack of candidates gives, bit for bit, the bounds of each candidate
    evaluated alone on its own arrays.  Candidates differ in node count; some
    are one sample (a single atomic node) or coincident samples (atomic)."""
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
        b = random_object(rng, "b", d, max_samples=6, spread=1.0)
        r = random_object(rng, "r", d, max_samples=6, spread=1.0)
        depth = int(rng.integers(1, 5))
        stack = FrontierStack.of([c.leaves_at_depth(depth) for c in cands])
        bf, rf = b.leaves_at_depth(depth), r.leaves_at_depth(depth)
        assert len(stack) == sum(len(c.leaves_at_depth(depth)) for c in cands)
        lb, ub = pdom_bounds_grid(stack, bf, rf, p, criterion)
        want_lb, want_ub = pdom_bounds_stacked(stack, bf, rf, p, criterion)
        assert lb.shape == (len(cands), len(bf), len(rf))
        assert lb.tobytes() == want_lb.tobytes()
        assert ub.tobytes() == want_ub.tobytes()
