import numpy as np
import pytest

from udom.geometry import Rect, _optimal_values_grid, check_norm_order, dominance_grid, rect_min_dist

from conftest import make_rect, shrink_rect
from reference import (
    dominates_minmax,
    dominates_minmax_loop,
    dominates_optimal,
    dominates_optimal_loop,
    max_dist_1d,
    min_dist_1d,
    optimal_values_4d,
)


def grid_points(rect, res=10):
    axes = [np.linspace(lo, hi, res) for lo, hi in zip(rect.lo, rect.hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def test_min_dist_1d_examples():
    assert min_dist_1d(2, 4, 3) == 0
    assert min_dist_1d(2, 4, 5) == 1
    assert min_dist_1d(2, 4, 0) == 2


def test_max_dist_1d_examples():
    assert max_dist_1d(2, 4, 3) == 1
    assert max_dist_1d(2, 4, 5) == 3
    assert max_dist_1d(2, 2, 7) == 5


@pytest.mark.xfail(
    strict=True,
    reason="reference digit for this worked example is inconsistent with the "
    "definition max(|r - lo|, |r - hi|): the farthest point of [2, 4] from 3 "
    "is at distance 1, not 2 (asserted in test_max_dist_1d_examples)",
)
def test_max_dist_1d_inconsistent_reference_digit():
    assert max_dist_1d(2, 4, 3) == 2


def test_min_le_max(rng):
    for _ in range(500):
        lo, hi = np.sort(rng.uniform(-10, 10, 2))
        r = rng.uniform(-12, 12)
        assert min_dist_1d(lo, hi, r) <= max_dist_1d(lo, hi, r)


def test_interval_validation():
    """A one-dimensional Rect is a closed interval; a point is a legal one."""
    with pytest.raises(ValueError):
        Rect([2], [1])
    with pytest.raises(ValueError):
        Rect([0], [float("nan")])
    assert Rect([3], [3]).is_degenerate


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect([0, 0], [1])
    with pytest.raises(ValueError):
        Rect([], [])
    with pytest.raises(ValueError):
        Rect([[0, 1]], [[1, 2]])
    lo = np.array([0.0, 2.0])
    r = Rect(lo, [1, 3])
    lo[0] = 9.0  # the box holds its own read-only copy
    assert r.ndim == 2 and r.lo.tolist() == [0.0, 2.0] and r.hi.tolist() == [1.0, 3.0]
    with pytest.raises(ValueError):
        r.lo[0] = 1.0


def test_optimal_point_objects():
    a = Rect([0.0, 0.0], [0.0, 0.0])
    b = Rect([10.0, 10.0], [10.0, 10.0])
    r = Rect([1.0, 1.0], [1.0, 1.0])
    assert dominates_optimal(a, b, r, 2.0)
    assert not dominates_optimal(b, a, r, 2.0)


def test_optimal_never_self_dominates():
    a = Rect([0.0, 0.0], [2.0, 1.0])
    r = Rect([4.0, 4.0], [5.0, 5.0])
    assert not dominates_optimal(a, a, r, 2.0)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        rect_min_dist(Rect([0.0, 0.0], [0.0, 0.0]), Rect([1.0], [1.0]), 2.0)


def test_norm_order_validated():
    a = Rect([0.0], [0.0])
    for p in (0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            check_norm_order(p)
        with pytest.raises(ValueError):
            rect_min_dist(a, a, p)


def test_optimal_conservative_against_grid_oracle(rng):
    """Whenever the criterion fires, dense sampling finds no counterexample."""
    fired = 0
    for _ in range(1000):
        a = make_rect(rng, max_side=1.0)
        b = make_rect(rng, max_side=1.0)
        r = make_rect(rng, max_side=1.0)
        if rng.uniform() < 0.5:
            # Bias towards decided cases: pull a next to r, push b away.
            a = Rect(r.lo - 0.3, r.hi + 0.3)
            b = Rect(b.lo + 6.0, b.hi + 6.0)
        if not dominates_optimal(a, b, r, 2.0):
            continue
        fired += 1
        ga, gb, gr = grid_points(a), grid_points(b), grid_points(r)
        for rp in gr:
            max_a = np.sqrt(((ga - rp) ** 2).sum(axis=1)).max()
            min_b = np.sqrt(((gb - rp) ** 2).sum(axis=1)).min()
            assert max_a < min_b
    assert fired > 100


def test_minmax_examples():
    a = Rect([0.0, 0.0], [0.0, 0.0])
    b = Rect([10.0, 10.0], [10.0, 10.0])
    r = Rect([1.0, 1.0], [1.0, 1.0])
    assert dominates_minmax(a, b, r, 2.0)
    # Overlapping distance ranges in 1d: MaxDist(a, r) = 2.5 > MinDist(b, r) = 0.
    assert not dominates_minmax(
        Rect([0.0], [1.0]),
        Rect([2.0], [3.0]),
        Rect([0.5], [2.5]),
        1.0,
    )


def test_minmax_implies_optimal(rng):
    hits = 0
    for _ in range(10_000):
        a, b, r = (make_rect(rng, max_side=1.0) for _ in range(3))
        if rng.uniform() < 0.4:
            a = Rect(r.lo - 0.2, r.hi + 0.2)
            b = Rect(b.lo + 5.0, b.hi + 5.0)
        if dominates_minmax(a, b, r, 2.0):
            hits += 1
            assert dominates_optimal(a, b, r, 2.0)
    assert hits > 50


def test_optimal_strictly_tighter_fixture():
    """A 1d case the baseline misses: the reference couples both distances."""
    a = Rect([4.0], [6.0])
    b = Rect([11.0], [12.0])
    r = Rect([0.0], [7.0])
    assert dominates_optimal(a, b, r, 2.0)
    assert not dominates_minmax(a, b, r, 2.0)


def test_mutual_exclusion(rng):
    for _ in range(5000):
        a, b, r = (make_rect(rng, max_side=1.5) for _ in range(3))
        assert not (dominates_optimal(a, b, r, 2.0) and dominates_optimal(b, a, r, 2.0))


def test_shrinking_monotonicity(rng):
    checked = 0
    for _ in range(5000):
        r = make_rect(rng, max_side=1.0)
        a = Rect(r.lo - rng.uniform(0, 0.5), r.hi + rng.uniform(0, 0.5))
        shiftdir = rng.uniform(3.0, 8.0, size=2)
        b = Rect(a.lo + shiftdir, a.hi + shiftdir)
        if not dominates_optimal(a, b, r, 2.0):
            continue
        checked += 1
        a2, b2, r2 = shrink_rect(rng, a), shrink_rect(rng, b), shrink_rect(rng, r)
        assert dominates_optimal(a2, b2, r2, 2.0)
    assert checked > 500


def test_point_collapse(rng):
    for _ in range(2000):
        pa, pb, pr = rng.uniform(-5, 5, size=(3, 2))
        a, b, r = Rect(pa, pa), Rect(pb, pb), Rect(pr, pr)
        expected = ((pa - pr) ** 2).sum() < ((pb - pr) ** 2).sum()
        assert dominates_optimal(a, b, r, 2.0) == expected


def test_rect_distances():
    a = Rect([0.0, 0.0], [1.0, 1.0])
    b = Rect([4.0, 1.0], [5.0, 2.0])
    assert rect_min_dist(a, b, 2.0) == pytest.approx(3.0)
    assert rect_min_dist(a, b, 1.0) == pytest.approx(3.0)
    assert rect_min_dist(a, a, 2.0) == 0.0


def test_dominance_grid_matches_scalars(rng):
    """Every cell of the kernel's (m, n) matrix equals the scalar loop."""
    for criterion, loop in (("optimal", dominates_optimal_loop), ("minmax", dominates_minmax_loop)):
        for _ in range(50):
            m, n = rng.integers(1, 6, size=2)
            a = [make_rect(rng) for _ in range(m)]
            b = [make_rect(rng) for _ in range(n)]
            r = make_rect(rng)
            grid = dominance_grid(
                np.stack([x.lo for x in a]),
                np.stack([x.hi for x in a]),
                np.stack([x.lo for x in b]),
                np.stack([x.hi for x in b]),
                r.lo,
                r.hi,
                2.0,
                criterion,
            )
            for i in range(m):
                for j in range(n):
                    assert grid[i, j] == loop(a[i], b[j], r, 2.0)


def _kernel_boxes(rng, k, d):
    """k boxes in the unit cube on a coarse grid (so corners coincide), about
    a third of their sides of zero extent."""
    lo = np.round(rng.uniform(0.0, 1.0, size=(k, d)) * 8) / 8
    side = np.round(rng.uniform(0.0, 0.5, size=(k, d)) * 8) / 8
    side[rng.uniform(size=(k, d)) < 0.3] = 0.0
    return lo, lo + side


@pytest.mark.parametrize("d", range(1, 11))
def test_optimal_kernel_matches_4d_reference(rng, d):
    """The per-dimension kernel against the (m, n, d, 2) broadcast it replaced.

    While numpy's sum over d stays sequential (d <= 7) the values are the same
    bits.  From d = 8 numpy sums pairwise and the last bits may move, so the
    decisions must agree wherever the value is clear of zero by 1e-12."""
    drift = 0.0
    for trial in range(200):
        p = (1.0, 1.5, 2.0, 3.0, 4.0)[trial % 5]
        m, n = (int(k) for k in rng.integers(1, 12, size=2))
        a_lo, a_hi = _kernel_boxes(rng, m, d)
        b_lo, b_hi = _kernel_boxes(rng, n, d)
        if trial % 3 == 0:  # a point reference
            r_lo = r_hi = np.round(rng.uniform(0.0, 1.0, size=d) * 8) / 8
        elif trial % 3 == 1:  # a reference sharing corners with the boxes
            r_lo, r_hi = a_lo[0], b_hi[0]
            r_lo, r_hi = np.minimum(r_lo, r_hi), np.maximum(r_lo, r_hi)
        else:
            (r_lo,), (r_hi,) = _kernel_boxes(rng, 1, d)
        got = _optimal_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p)
        want = optimal_values_4d(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p)
        assert got.shape == want.shape == (m, n)
        if d <= 7:
            assert got.tobytes() == want.tobytes()
        else:
            clear = np.abs(want) > 1e-12
            assert ((got < 0.0) == (want < 0.0))[clear].all()
            drift = max(drift, float(np.abs(got - want).max()))
    assert drift <= 1e-13
