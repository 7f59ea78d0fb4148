import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udom.geometry import (
    _KERNEL_FLOATS_PER_CELL,
    Rect,
    _minmax_values_grid,
    _min_dists,
    _optimal_values_grid,
    check_norm_order,
    dominance_grid,
    rect_min_dist,
)

from conftest import make_rect, random_boxes, shrink_rect
from reference import (
    dominates_minmax,
    dominates_minmax_loop,
    dominates_optimal,
    dominates_optimal_loop,
    max_dist_1d,
    min_dist_1d,
    minmax_values_dimension_order,
    minmax_values_last_axis,
    optimal_values_4d,
    optimal_values_corners,
    rect_min_dist_scalar,
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
    point = Rect([3], [3])
    assert point.lo == point.hi == 3


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


def test_rect_min_dist_overflow_raises():
    """A distance whose p-th power overflows is refused, as the kernel refuses
    it, rather than returned as inf."""
    a, b = Rect([0.0, 0.0], [0.0, 0.0]), Rect([1e200, 0.0], [1e200, 0.0])
    assert rect_min_dist(a, b, 1.0) == 1e200
    with pytest.raises(ValueError, match="overflow"):
        rect_min_dist(a, b, 2.0)
    assert rect_min_dist(a, Rect([3.0, 4.0], [5.0, 6.0])) == 5.0


@pytest.mark.parametrize("d", [1, 2, 3, 9, 12])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_min_dists_equal_one_pair_at_a_time_bit_for_bit(rng, d, p):
    """The stacked MinDist powers that rank the bench's targets give each box,
    rooted as a numpy scalar, the float the one-pair formula gives it, at
    every p; the bench's array root at p = 2 gives it too."""
    boxes = [make_rect(rng, d) for _ in range(40)] + [Rect(np.zeros(d), np.zeros(d))]
    b = make_rect(rng, d)
    lo, hi = np.stack([a.lo for a in boxes]), np.stack([a.hi for a in boxes])
    powers = _min_dists(lo, hi, b, p)
    scalar = [rect_min_dist_scalar(a, b, p) for a in boxes]
    assert [float(s ** (1.0 / p)) for s in powers] == scalar
    assert [rect_min_dist(a, b, p) for a in boxes] == scalar
    if p == 2.0:
        assert (powers**0.5).tolist() == scalar


def test_norm_order_validated():
    a = Rect([0.0], [0.0])
    for p in (0.5, float("inf"), float("nan"), True, np.True_):
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
    """Every cell of the kernel's (m, n, 1) array under a one-box stack
    equals the scalar loop."""
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
                r.lo[None],
                r.hi[None],
                2.0,
                criterion,
            )
            assert grid.shape == (m, n, 1)
            for i in range(m):
                for j in range(n):
                    assert grid[i, j, 0] == loop(a[i], b[j], r, 2.0)


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
        got = _optimal_values_grid(a_lo, a_hi, b_lo, b_hi, r_lo[None], r_hi[None], p)[..., 0]
        want = optimal_values_4d(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, p)
        assert got.shape == want.shape == (m, n)
        if d <= 7:
            assert got.tobytes() == want.tobytes()
        else:
            clear = np.abs(want) > 1e-12
            assert ((got < 0.0) == (want < 0.0))[clear].all()
            drift = max(drift, float(np.abs(got - want).max()))
    assert drift <= 1e-13


@pytest.mark.parametrize("criterion", ["optimal", "minmax"])
def test_r_stack_equals_single_calls(rng, criterion):
    """A (k, d) stack of r-boxes gives (m, n, k) values whose layer z is, bit
    for bit, the one-box stack of r-box z; the masks follow."""
    values = _optimal_values_grid if criterion == "optimal" else _minmax_values_grid
    for trial in range(120):
        d = 1 + trial % 10
        p = (1.0, 1.5, 2.0, 3.0)[trial % 4]
        m, n, k = (int(x) for x in rng.integers(1, 9, size=3))
        a = _kernel_boxes(rng, m, d)
        b = _kernel_boxes(rng, n, d)
        r_lo, r_hi = _kernel_boxes(rng, k, d)
        stacked = values(*a, *b, r_lo, r_hi, p)
        grid = dominance_grid(*a, *b, r_lo, r_hi, p, criterion)
        assert stacked.shape == grid.shape == (m, n, k)
        for z in range(k):
            one = r_lo[z : z + 1], r_hi[z : z + 1]
            assert stacked[..., z].tobytes() == values(*a, *b, *one, p)[..., 0].tobytes()
            assert (grid[..., z] == dominance_grid(*a, *b, *one, p, criterion)[..., 0]).all()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.sampled_from([1, 2, 3, 8]),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 300),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(2.0, 8, 1, 6, 300, True, True, 0)
@example(3.0, 2, 6, 1, 300, True, False, 1)
def test_kernels_equal_their_earlier_forms(p, d, m, n, k, grid, shared, seed):
    """The dimension-loop kernels give their earlier forms' values byte for
    byte: "optimal" at every d, "minmax" while numpy's last-axis sum is
    sequential (d <= 7), and at d = 8 the same terms added in dimension
    order.  Cases span integer-grid ties, degenerate boxes, r-corners shared
    with the boxes, m = 1 or n = 1 and r-stacks of 1 to 300 boxes."""
    rng = np.random.default_rng(seed)
    a, b, r = (random_boxes(rng, count, d, grid) for count in (m, n, k))
    if shared:  # r-boxes that take their corners from the a- and b-boxes
        corners = np.concatenate([*a, *b])
        r = tuple(np.sort(corners[rng.integers(0, len(corners), size=(2, k))], axis=0))
    got = _optimal_values_grid(*a, *b, *r, p)
    assert got.tobytes() == optimal_values_corners(*a, *b, *r, p).tobytes()
    got = _minmax_values_grid(*a, *b, *r, p)
    want = (minmax_values_last_axis if d <= 7 else minmax_values_dimension_order)(*a, *b, *r, p)
    assert got.shape == (m, n, k)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("criterion", ["optimal", "minmax"])
@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("shape", [(250, 1, 250), (1, 250, 250), (50, 50, 40)])
def test_kernel_peak_memory_fits_its_floats_per_cell(shape, d, criterion):
    """One `dominance_grid` call's peak traced allocation is at most
    `_KERNEL_FLOATS_PER_CELL` floats per (m, n, k) cell, plus 256 KiB for
    numpy's ufunc buffers, whatever d: the shapes include the RkNN filter's
    (n, 1, k) and (1, n, k) grids, where corner arrays of every p-th power
    took about 4d floats per cell."""
    rng = np.random.default_rng(7)
    boxes = [_kernel_boxes(rng, count, d) for count in shape]
    args = [x for box in boxes for x in box]
    tracemalloc.start()
    try:
        dominance_grid(*args, 2.0, criterion)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _KERNEL_FLOATS_PER_CELL * 8 * np.prod(shape) + 256 * 1024


def _point_keys(a_lo, a_hi, b_lo, b_hi, t, p):
    """The a-boxes' far keys and the b-boxes' near keys under the point t:
    sums of per-dimension p-th power distances."""
    far = np.maximum(t - a_lo, a_hi - t) ** p
    near = np.maximum(np.maximum(b_lo - t, t - b_hi), 0.0) ** p
    return far.sum(axis=1), near.sum(axis=1)


def _point_reference_case(rng, kind, d, p):
    """a-boxes, b-boxes and a point t of one of four kinds, scaled by a power
    of two (ties stay exact) so that coordinates run from 1e-160 to 1e150
    and the p-th powers from subnormal to near overflow."""
    m, n = (int(x) for x in rng.integers(1, 10, size=2))
    if kind == 0:  # an integer grid with exact distance ties and point boxes
        t = rng.integers(-4, 5, size=d).astype(float)
        lo = rng.integers(-4, 5, size=(m + n, d)).astype(float)
        side = rng.integers(0, 3, size=(m + n, d)).astype(float)
    else:
        t = rng.uniform(-4.0, 4.0, size=d)
        lo = rng.uniform(-4.0, 4.0, size=(m + n, d))
        side = rng.uniform(0.0, 2.0, size=(m + n, d))
    side[rng.uniform(size=(m + n, d)) < 0.4] = 0.0
    hi = lo + side
    if kind == 2:  # boxes that touch or contain t
        hit = rng.uniform(size=m + n) < 0.5
        lo[hit], hi[hit] = np.minimum(lo[hit], t), np.maximum(hi[hit], t)
    if kind == 3:  # point b-boxes at permuted offsets of point a-boxes: ties in the reals, not in floats
        lo[:m] = hi[:m] = t + rng.choice([-1.0, 1.0], size=(m, d)) * rng.uniform(0.0, 4.0, size=(m, d))
        offsets = np.abs(lo[:m] - t)[rng.integers(0, m, size=n)]
        lo[m:] = hi[m:] = t + rng.permuted(offsets, axis=1) * rng.choice([-1.0, 1.0], size=(n, d))
    scale = 2.0 ** int(rng.integers(-531, min(498, int(1000 / p) - 8)))
    return lo[:m] * scale, hi[:m] * scale, lo[m:] * scale, hi[m:] * scale, t * scale


def _rounding_trap():
    """d = 8, p = 1, t = 0: a is 1 then seven terms of just under half an
    ulp of 1, which its far key drops (A = 1); b's near key is 1 + 6u.  The
    keys say a dominates (B - A = 6u, outside a d = 1 band), but the kernel's
    sum is u (1 - 7 * 2^-10) > 0."""
    u = np.finfo(float).eps / 2
    a = np.array([[1.0] + [u * (1 - 2.0**-10)] * 7])
    b = np.array([[1.0 + 6 * u] + [0.0] * 7])
    return a, a, b, b, np.zeros(8)


def test_point_reference_mask_equals_the_kernel(rng):
    """Under one point reference `dominance_grid` decides cells from distance
    keys outside a rounding band; its mask must be the kernel's bit for bit
    over p, d, ties, boxes touching or containing t, point boxes and
    subnormal powers, and some cells must fall in the band, including cells
    where the keys alone would decide wrongly."""
    band = wrong_keys = 0
    cases = [((1.0, 8), _rounding_trap())]
    for trial in range(1600):
        p, d = (1.0, 1.5, 2.0, 3.0)[trial % 4], 1 + trial // 4 % 3
        if trial % 40 < 4:
            d = 8
        cases.append(((p, d), _point_reference_case(rng, trial // 4 % 4, d, p)))
    for (p, d), (a_lo, a_hi, b_lo, b_hi, t) in cases:
        got = dominance_grid(a_lo, a_hi, b_lo, b_hi, t[None], t[None], p)
        values = _optimal_values_grid(a_lo, a_hi, b_lo, b_hi, t[None], t[None], p)[..., 0]
        assert got.shape == (len(a_lo), len(b_lo), 1)
        assert got[..., 0].tobytes() == (values < 0.0).tobytes()
        a_key, b_key = _point_keys(a_lo, a_hi, b_lo, b_hi, t, p)
        s = 2 * d * np.finfo(float).eps
        inside = (b_key >= (a_key * (1 - s))[:, None]) & (b_key <= (a_key * (1 + s))[:, None])
        band += int(inside.sum())
        wrong_keys += int((inside & ((b_key > a_key[:, None]) != (values < 0.0))).sum())
    assert band > 100
    assert wrong_keys > 0


def test_point_reference_keys_that_overflow_fall_back_to_the_kernel():
    """p = 1 and equal huge coordinates: the key sums overflow, the kernel's
    differences do not, so the call returns the kernel's mask, without error
    and without a RuntimeWarning."""
    a = np.array([[1.7e308, 1.7e308], [1.0e308, 1.7e308]])
    b = np.array([[1.7e308, 1.7e308], [1.7e308, 1.0e308]])
    t = np.zeros((1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dominance_grid(a, a, b, b, t, t, 1.0)
        want = _optimal_values_grid(a, a, b, b, t, t, 1.0) < 0.0
    assert got.tobytes() == want.tobytes()
    assert want.any() and not want.all()
