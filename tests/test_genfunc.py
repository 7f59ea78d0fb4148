import itertools

import numpy as np
import pytest

from udom.genfunc import _extract_batch, _ugf_expand_batch, gf_exact

from reference import (
    UGFPoly,
    _multiply_factor,
    extract_batch_loop,
    extract_bounds,
    gf_bounds_plain,
    ugf_expand,
    ugf_expand_batch_dense,
)

WORKED_PROBS = [0.2, 0.1, 0.3]
WORKED_BOUNDS = [(0.2, 0.7), (0.6, 0.8)]

# The product of (0.2x + 0.5y + 0.3)(0.6x + 0.2y + 0.2), verified by direct
# expansion and by the resolution-sandwich oracle below.
SOUND_WORKED_POLY = {
    (2, 0): 0.12,
    (1, 0): 0.22,
    (0, 0): 0.06,
    (1, 1): 0.34,
    (0, 1): 0.16,
    (0, 2): 0.10,
}

# Historic companion digits for the same example; they correspond to swapping
# the y and constant coefficients of the first factor and are provably not
# valid bounds (see test_published_worked_poly_is_unsound).
PUBLISHED_WORKED_POLY = {
    (2, 0): 0.12,
    (1, 0): 0.34,
    (0, 0): 0.10,
    (1, 1): 0.22,
    (0, 1): 0.16,
    (0, 2): 0.06,
}


def brute_force_count_pdf(probs):
    """Independent oracle: enumerate all 2^n outcomes."""
    pdf = np.zeros(len(probs) + 1)
    for bits in itertools.product([0, 1], repeat=len(probs)):
        w = 1.0
        for bit, p in zip(bits, probs):
            w *= p if bit else 1.0 - p
        pdf[sum(bits)] += w
    return pdf


def naive_conv(probs):
    """Plain convolution without the {0, 1} fast paths."""
    c = np.array([1.0])
    for p in probs:
        nxt = np.zeros(c.size + 1)
        nxt[:-1] += c * (1.0 - p)
        nxt[1:] += c * p
        c = nxt
    return c


# ---------------------------------------------------------------------------
# gf_exact
# ---------------------------------------------------------------------------


def test_gf_exact_worked_example_sound():
    """Expected values computed by the 2^3 enumeration oracle."""
    c = gf_exact(WORKED_PROBS)
    oracle = brute_force_count_pdf(WORKED_PROBS)
    np.testing.assert_allclose(c, oracle, atol=1e-15)
    assert abs(c[0] - 0.504) < 1e-12
    assert abs(c[1] - 0.398) < 1e-12
    assert abs(c[2] - 0.092) < 1e-12
    assert abs(c[3] - 0.006) < 1e-12
    assert abs((c[0] + c[1]) - 0.902) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="reference digits 0.418 / 0.922 for gf_exact([0.2, 0.1, 0.3]) are "
    "arithmetically inconsistent with the inputs; the enumeration oracle "
    "gives 0.398 / 0.902 (asserted in test_gf_exact_worked_example_sound)",
)
def test_gf_exact_worked_example_reference_digits():
    c = gf_exact(WORKED_PROBS)
    assert abs(c[1] - 0.418) < 1e-12 and abs((c[0] + c[1]) - 0.922) < 1e-12


def test_gf_exact_empty():
    np.testing.assert_array_equal(gf_exact([]), [1.0])


def test_gf_exact_matches_enumeration(rng):
    probs = rng.uniform(0, 1, size=12)
    np.testing.assert_allclose(gf_exact(probs), brute_force_count_pdf(probs), atol=1e-12)


def test_gf_exact_degenerate_probs_match_plain_convolution(rng):
    for _ in range(50):
        probs = rng.uniform(0, 1, size=6)
        mask = rng.uniform(size=6) < 0.5
        probs[mask] = rng.choice([0.0, 1.0], size=int(mask.sum()))
        np.testing.assert_array_equal(gf_exact(probs), naive_conv(probs))


def test_gf_exact_validates():
    with pytest.raises(ValueError):
        gf_exact([0.5, 1.2])
    with pytest.raises(ValueError):
        gf_exact([-0.1])


# ---------------------------------------------------------------------------
# ugf_expand / extract_bounds: the sparse oracle the batch kernels are
# tested against
# ---------------------------------------------------------------------------


def test_ugf_expand_worked_example_sound():
    poly = ugf_expand(WORKED_BOUNDS)
    assert set(poly.coeffs) == set(SOUND_WORKED_POLY)
    for key, val in SOUND_WORKED_POLY.items():
        assert abs(poly.coefficient(*key) - val) < 1e-12
    dist = extract_bounds(poly)
    np.testing.assert_allclose(dist.lb, [0.06, 0.22, 0.12], atol=1e-12)
    np.testing.assert_allclose(dist.ub, [0.32, 0.82, 0.56], atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the historic product digits for this example swap the y and "
    "constant coefficients of the first factor; the resulting bounds are not "
    "sound (test_published_worked_poly_is_unsound) and the sound product is "
    "asserted in test_ugf_expand_worked_example_sound",
)
def test_ugf_expand_worked_example_reference_digits():
    poly = ugf_expand(WORKED_BOUNDS)
    for key, val in PUBLISHED_WORKED_POLY.items():
        assert abs(poly.coefficient(*key) - val) < 1e-12


def test_published_worked_poly_is_unsound():
    """One admissible resolution exceeds the historic upper bound for count 2.

    With p1 = 0.7 and p2 = 0.8 (inside the stated intervals), P(count = 2) is
    0.56, above the 0.40 that the historic digits would certify; the sound
    expansion yields exactly 0.56.
    """
    historic = UGFPoly(coeffs=dict(PUBLISHED_WORKED_POLY), n_factors=2)
    hist_dist = extract_bounds(historic)
    resolved = gf_exact([0.7, 0.8])
    assert resolved[2] > hist_dist.ub[2] + 0.1
    sound = extract_bounds(ugf_expand(WORKED_BOUNDS))
    assert resolved[2] <= sound.ub[2] + 1e-12


def test_extract_bounds_reproduces_reference_extraction():
    """Extraction arithmetic agrees with the worked example's own reading of
    its coefficients: lb[k] = c[k, 0], ub[k] = sum over i <= k <= i + j."""
    poly = UGFPoly(coeffs=dict(PUBLISHED_WORKED_POLY), n_factors=2)
    dist = extract_bounds(poly)
    np.testing.assert_allclose(dist.lb, [0.10, 0.34, 0.12], atol=1e-12)
    np.testing.assert_allclose(dist.ub, [0.32, 0.78, 0.40], atol=1e-12)


def test_ugf_tight_bounds_degenerate_to_gf(rng):
    probs = rng.uniform(0, 1, size=6)
    poly = ugf_expand([(p, p) for p in probs])
    assert all(j == 0 for _, j in poly.coeffs)
    dist = extract_bounds(poly)
    np.testing.assert_allclose(dist.lb, gf_exact(probs), atol=1e-12)
    np.testing.assert_allclose(dist.ub, gf_exact(probs), atol=1e-12)


def test_ugf_mass_conservation(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        lo = rng.uniform(0, 1, size=n)
        hi = lo + rng.uniform(0, 1, size=n) * (1 - lo)
        poly = ugf_expand(list(zip(lo, hi)))
        assert abs(poly.total_mass() - 1.0) < 1e-9
        assert all(i + j <= n for i, j in poly.coeffs)


def resolution_grid(bounds, steps=3):
    axes = [np.linspace(lo, hi, steps) for lo, hi in bounds]
    return itertools.product(*axes)


def test_extract_bounds_sandwich_over_resolutions(rng):
    """Any per-event probability inside its interval yields a PDF inside the
    extracted bounds pointwise."""
    for _ in range(25):
        n = int(rng.integers(1, 6))
        lo = rng.uniform(0, 1, size=n)
        hi = lo + rng.uniform(0, 1, size=n) * (1 - lo)
        dist = extract_bounds(ugf_expand(list(zip(lo, hi))))
        for resolved in resolution_grid(list(zip(lo, hi))):
            pdf = gf_exact(list(resolved))
            assert (pdf >= dist.lb - 1e-9).all()
            assert (pdf <= dist.ub + 1e-9).all()


# ---------------------------------------------------------------------------
# plain-GF route (a looser oracle)
# ---------------------------------------------------------------------------


def random_bounds(rng, n):
    lo = rng.uniform(0, 1, size=n)
    hi = lo + rng.uniform(0, 1, size=n) * (1 - lo)
    return list(zip(lo, hi))


def test_plain_lower_equals_ugf_lower(rng):
    for _ in range(200):
        bounds = random_bounds(rng, int(rng.integers(1, 11)))
        plain = gf_bounds_plain(bounds)
        via_ugf = extract_bounds(ugf_expand(bounds))
        np.testing.assert_allclose(plain.lb, via_ugf.lb, atol=1e-12)


def test_plain_upper_never_tighter(rng):
    for _ in range(200):
        bounds = random_bounds(rng, int(rng.integers(1, 11)))
        plain = gf_bounds_plain(bounds)
        via_ugf = extract_bounds(ugf_expand(bounds))
        assert (plain.ub >= via_ugf.ub - 1e-12).all()


def test_plain_upper_gap_two_candidates(rng):
    """For two events the count-1 upper-bound gap is exactly the product of
    the unresolved fractions."""
    for _ in range(200):
        bounds = random_bounds(rng, 2)
        plain = gf_bounds_plain(bounds)
        via_ugf = extract_bounds(ugf_expand(bounds))
        gap = plain.ub[1] - via_ugf.ub[1]
        expected = (bounds[0][1] - bounds[0][0]) * (bounds[1][1] - bounds[1][0])
        assert abs(gap - expected) < 1e-12


def test_plain_tight_bounds_coincide(rng):
    probs = rng.uniform(0, 1, size=5)
    plain = gf_bounds_plain([(p, p) for p in probs])
    np.testing.assert_allclose(plain.lb, gf_exact(probs), atol=1e-12)
    np.testing.assert_allclose(plain.ub, gf_exact(probs), atol=1e-12)


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------


def test_weighted_mix_contains_mixed_exact_pdfs(rng):
    """Mixing the batch kernels' bound rows by weight, as the engine mixes
    node pairs, keeps any mixture of compatible exact PDFs inside."""
    for _ in range(50):
        n = 3
        w = rng.dirichlet(np.ones(3))
        lo = rng.uniform(0, 1, size=(3, n))
        hi = lo + rng.uniform(0, 1, size=(3, n)) * (1 - lo)
        row_lb, row_ub = _extract_batch(_ugf_expand_batch(lo, hi), n)
        true_mix = sum(wi * gf_exact(rng.uniform(l, h)) for wi, l, h in zip(w, lo, hi))
        assert (true_mix >= w @ row_lb - 1e-9).all()
        assert (true_mix <= np.minimum(w @ row_ub, 1.0) + 1e-9).all()


# ---------------------------------------------------------------------------
# truncation (the sparse oracle's k-truncation)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_truncation_transparent_below_k(rng, k):
    for _ in range(40):
        bounds = random_bounds(rng, int(rng.integers(k, 11)))
        full = extract_bounds(ugf_expand(bounds))
        trunc = extract_bounds(ugf_expand(bounds, truncate_at=k), n=len(bounds))
        np.testing.assert_allclose(trunc.lb[:k], full.lb[:k], atol=1e-12)
        np.testing.assert_allclose(trunc.ub[:k], full.ub[:k], atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_truncation_coefficient_budget(rng, k):
    """Stepwise expansion never stores more than O(k^2) coefficients."""
    budget = (k + 1) * (k + 2) // 2 - 1 + k  # detailed wedge plus one bucket per row
    bounds = random_bounds(rng, 10)
    coeffs = {(0, 0): 1.0}
    for lb, ub in bounds:
        coeffs = _multiply_factor(coeffs, lb, ub - lb, 1.0 - ub, k)
        assert len(coeffs) <= budget
        assert all(i < k for i, _ in coeffs)


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------


def test_batch_expansion_matches_sparse(rng):
    rows, n = 17, 6
    lo = rng.uniform(0, 1, size=(rows, n))
    hi = lo + rng.uniform(0, 1, size=(rows, n)) * (1 - lo)
    grids = _ugf_expand_batch(lo, hi)
    batch_lb, batch_ub = _extract_batch(grids, n)
    for row in range(rows):
        poly = ugf_expand(list(zip(lo[row], hi[row])))
        dist = extract_bounds(poly)
        for (i, j), val in poly.coeffs.items():
            assert abs(grids[row, i, j] - val) < 1e-12
        np.testing.assert_allclose(batch_lb[row], dist.lb, atol=1e-12)
        np.testing.assert_allclose(batch_ub[row], dist.ub, atol=1e-12)


def random_batch(rng, rows, n, zero_columns):
    """Bound rows mixing the four kinds of factor: (0, 0), (1, 1), exact
    fractional (lb = ub) and unresolved (lb < ub).  The first row has no
    unresolved factor.  With `zero_columns` some columns are (0, 0) in every
    row; otherwise every factor of the last row is unresolved."""
    lo = rng.uniform(0.0, 1.0, size=(rows, n))
    hi = lo + rng.uniform(0.0, 1.0, size=(rows, n)) * (1.0 - lo)
    kind = rng.choice(4, size=(rows, n), p=rng.dirichlet(np.ones(4)))
    lo = np.select([kind == 0, kind == 1], [0.0, 1.0], lo)
    hi = np.select([kind == 0, kind == 1, kind == 2], [0.0, 1.0, lo], hi)
    hi[0] = lo[0]
    if zero_columns:
        zero = rng.random(n) < 0.3
        lo[:, zero] = hi[:, zero] = 0.0
    else:
        hi[-1] = 0.5 + 0.5 * rng.uniform(0.0, 1.0, size=n)
        lo[-1] = 0.5 * hi[-1] * rng.uniform(0.0, 1.0, size=n)
    return lo, hi


def test_batch_kernels_match_dense_reference(rng):
    """The kernels equal, byte for byte, the full (rows, n+1, n+1) expansion
    and the per-count extraction loop; their grid is sized by the factors
    that can add mass."""
    for trial in range(120):
        n = trial % 41
        rows = int(rng.integers(1, 301)) if trial % 4 == 0 else int(rng.integers(1, 25))
        lo, hi = random_batch(rng, rows, n, zero_columns=trial % 2 == 0)
        grids = _ugf_expand_batch(lo, hi)
        dense = ugf_expand_batch_dense(lo, hi)
        a = int((lo > 0).sum(axis=1).max())
        u = int((lo < hi).sum(axis=1).max())
        assert grids.shape == (rows, a + 1, u + 1)
        assert grids.tobytes() == np.ascontiguousarray(dense[:, : a + 1, : u + 1]).tobytes()
        assert not dense[:, a + 1 :].any() and not dense[:, :, u + 1 :].any()
        got = _extract_batch(grids, n)
        want = extract_batch_loop(dense)
        for g, w in zip(got, want):
            assert g.shape == (rows, n + 1)
            assert g.tobytes() == w.tobytes()

