"""Generating-function calculus over exact and bounded Bernoulli variables.

The count of independent Bernoulli events is read off the coefficients of
``prod_i (1 - p_i + p_i*x)``.  When only an interval [p_lb, p_ub] is known per
event, the product is taken over three-term factors

    p_lb * x  +  (p_ub - p_lb) * y  +  (1 - p_ub)

where x tracks events that certainly happen, y tracks unresolved events and
the constant tracks events that certainly do not happen.  A coefficient
c[i, j] is then the probability that at least i events certainly happen with
up to j more unresolved, which yields count bounds:

    P(count = k)  >=  c[k, 0]
    P(count = k)  <=  sum of c[i, j] over i <= k <= i + j

The engine's batch expansion keeps only the degrees that can hold mass: the
x-degree never exceeds the number of factors with p_lb > 0, nor the y-degree
the number with p_lb < p_ub, so the coefficients beyond them are exact zeros
and leaving them out changes no bound in its last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "BernoulliBounds",
    "UGFPoly",
    "DomCountDistribution",
    "gf_exact",
    "ugf_expand",
    "extract_bounds",
    "gf_bounds_plain",
    "weighted_mix",
    "shift_right",
]

MASS_TOLERANCE = 1e-9


class BernoulliBounds(NamedTuple):
    """Interval [p_lb, p_ub] bounding one event probability."""

    p_lb: float
    p_ub: float


def _as_bounds(bounds: Iterable) -> list[BernoulliBounds]:
    out = []
    for entry in bounds:
        lb, ub = entry
        if not (0.0 <= lb <= ub <= 1.0):
            raise ValueError(f"invalid probability bounds ({lb}, {ub})")
        out.append(BernoulliBounds(float(lb), float(ub)))
    return out


@dataclass(frozen=True)
class UGFPoly:
    """Sparse bivariate polynomial keyed by (x-degree, y-degree)."""

    coeffs: dict[tuple[int, int], float]
    n_factors: int
    truncate_at: Optional[int] = None

    def coefficient(self, i: int, j: int) -> float:
        return self.coeffs.get((i, j), 0.0)

    def total_mass(self) -> float:
        return float(sum(self.coeffs.values()))


@dataclass
class DomCountDistribution:
    """Per-count probability bounds: lb[k] <= P(count = k) <= ub[k].

    Upper bounds above 1 are permitted (they are vacuously valid); the loose
    plain-GF route can produce them, the UGF route never does.
    """

    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        if self.lb.shape != self.ub.shape or self.lb.ndim != 1:
            raise ValueError("lb/ub must be equal-length 1d arrays")
        if (self.lb < -MASS_TOLERANCE).any() or (self.lb > 1.0 + MASS_TOLERANCE).any():
            raise ValueError("lower bounds must lie in [0, 1]")
        if (self.lb > self.ub + MASS_TOLERANCE).any():
            raise ValueError("lower bounds must not exceed upper bounds")

    def __len__(self):
        return self.lb.size

    def copy(self) -> "DomCountDistribution":
        return DomCountDistribution(self.lb.copy(), self.ub.copy())


def gf_exact(probs: Sequence[float]) -> np.ndarray:
    """PDF of a sum of independent Bernoulli variables with exact probabilities.

    Returns an array c of length len(probs) + 1 with c[j] = P(sum = j).
    Factors with p in {0, 1} contribute a no-op / an index shift, so they are
    handled without touching the convolution (identical values, faster).
    """
    probs = np.asarray(list(probs), dtype=float)
    if probs.size and ((probs < 0.0) | (probs > 1.0)).any():
        raise ValueError("probabilities must lie in [0, 1]")
    ones = int((probs == 1.0).sum())
    fracs = probs[(probs > 0.0) & (probs < 1.0)]
    out = np.zeros(probs.size + 1)
    out[ones : ones + fracs.size + 1] = _gf_affine(fracs, 1.0 - fracs)
    return out


def _multiply_factor(coeffs, x, y, z, truncate_at):
    """One incremental step F^l = F^(l-1) * (x*X + y*Y + z).

    Source keys are visited in sorted order so accumulation is deterministic.
    With truncation k, targets with x-degree >= k are dropped and targets with
    total degree > k are merged into the bucket (i, k + 1 - i); bucketed mass
    only ever influences upper bounds for counts < k, where any representative
    with total degree > k acts identically.
    """
    out: dict[tuple[int, int], float] = {}
    for key in sorted(coeffs):
        v = coeffs[key]
        i, j = key
        for di, dj, f in ((1, 0, x), (0, 1, y), (0, 0, z)):
            if f == 0.0:
                continue
            ti, tj = i + di, j + dj
            if truncate_at is not None:
                if ti >= truncate_at:
                    continue
                if ti + tj > truncate_at:
                    tj = truncate_at + 1 - ti
            out[(ti, tj)] = out.get((ti, tj), 0.0) + v * f
    return out


def ugf_expand(bounds: Iterable, truncate_at: Optional[int] = None) -> UGFPoly:
    """Expand the product of bounded-Bernoulli factors into a UGFPoly.

    With ``truncate_at = k`` the result is only meaningful for counts below k:
    extracted bounds for those counts match the untruncated expansion, and the
    number of stored coefficients stays O(k^2) per step.
    """
    bounds = _as_bounds(bounds)
    if truncate_at is not None and truncate_at < 1:
        raise ValueError("truncate_at must be >= 1")
    coeffs = {(0, 0): 1.0}
    for b in bounds:
        coeffs = _multiply_factor(coeffs, b.p_lb, b.p_ub - b.p_lb, 1.0 - b.p_ub, truncate_at)
    return UGFPoly(coeffs=coeffs, n_factors=len(bounds), truncate_at=truncate_at)


def extract_bounds(poly: UGFPoly, n: Optional[int] = None) -> DomCountDistribution:
    """Count-probability bounds from a UGFPoly, for counts 0..n.

    For a truncated polynomial only counts below the truncation point carry
    valid bounds.
    """
    if n is None:
        n = poly.n_factors
    items = sorted(poly.coeffs.items())
    lb = np.zeros(n + 1)
    ub = np.zeros(n + 1)
    for k in range(n + 1):
        lb[k] = poly.coeffs.get((k, 0), 0.0)
        ub[k] = sum(v for (i, j), v in items if i <= k <= i + j)
    return DomCountDistribution(lb, ub)


def _gf_affine(x_coeffs: np.ndarray, const_coeffs: np.ndarray) -> np.ndarray:
    """Expand prod_i (x_coeffs[i] * x + const_coeffs[i]); returns n+1 coefficients."""
    c = np.array([1.0])
    for xc, cc in zip(x_coeffs, const_coeffs):
        nxt = np.zeros(c.size + 1)
        nxt[:-1] += c * cc
        nxt[1:] += c * xc
        c = nxt
    return c


def gf_bounds_plain(bounds: Iterable) -> DomCountDistribution:
    """Count bounds from two plain univariate products instead of one UGF.

    The lower product prod(p_lb*x + (1 - p_ub)) gives exactly the UGF lower
    bounds.  The upper product prod(p_ub*x + (1 - p_lb)) double-counts the
    unresolved fraction on both sides, so its coefficients are valid but in
    general looser than the UGF upper bounds (and may exceed 1 on very wide
    bounds; such values are kept raw, not clamped).
    """
    bounds = _as_bounds(bounds)
    plb = np.array([b.p_lb for b in bounds])
    pub = np.array([b.p_ub for b in bounds])
    lb = _gf_affine(plb, 1.0 - pub)
    ub = _gf_affine(pub, 1.0 - plb)
    return DomCountDistribution(lb, ub)


def weighted_mix(parts: Sequence[tuple[DomCountDistribution, float]]) -> DomCountDistribution:
    """Pointwise weighted sum of distributions; weights must sum to 1."""
    if not parts:
        raise ValueError("need at least one part")
    weights = np.array([w for _, w in parts], dtype=float)
    if (weights < 0).any():
        raise ValueError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > MASS_TOLERANCE:
        raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
    size = len(parts[0][0])
    if any(len(d) != size for d, _ in parts):
        raise ValueError("all parts must have equal array lengths")
    lb = np.zeros(size)
    ub = np.zeros(size)
    for dist, w in parts:
        lb += w * dist.lb
        ub += w * dist.ub
    return DomCountDistribution(lb, np.minimum(ub, 1.0))


def shift_right(dist: DomCountDistribution, offset: int) -> DomCountDistribution:
    """Shift both bound arrays up by `offset` counts; vacated entries become 0.

    Raises if the shift would push nonzero mass past the end of the arrays.
    """
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if offset == 0:
        return dist.copy()
    if offset > len(dist):
        raise ValueError(f"offset {offset} exceeds array length {len(dist)}")
    if (dist.lb[len(dist) - offset :] != 0).any() or (dist.ub[len(dist) - offset :] != 0).any():
        raise ValueError("shift would drop nonzero mass beyond the last count")
    lb = np.zeros_like(dist.lb)
    ub = np.zeros_like(dist.ub)
    lb[offset:] = dist.lb[: len(dist) - offset]
    ub[offset:] = dist.ub[: len(dist) - offset]
    return DomCountDistribution(lb, ub)


# ---------------------------------------------------------------------------
# Dense batch kernels used by the refinement engine.  Each batch row is one
# (target-node, reference-node) pair; tests pin them to the sparse
# single-instance implementations above and, byte for byte, to the full
# (rows, n+1, n+1) grid kept in tests/reference.py.
# ---------------------------------------------------------------------------


def _ugf_expand_batch(plb: np.ndarray, pub: np.ndarray) -> np.ndarray:
    """Expand UGFs for many bound vectors at once.

    plb/pub: (rows, n) arrays.  Returns dense coefficient grids indexed
    [row, x-degree, y-degree] of shape (rows, 1 + a, 1 + u), where a is the
    most factors with plb > 0 in any row and u the most with plb < pub.

    A factor adds x-degree only through plb and y-degree only through
    pub - plb, so a row's mass never leaves degrees (a, u); the full
    (n+1, n+1) grid holds exact zeros beyond them.  Every kept cell gets the
    same products and sums, in the same order, as on the full grid; the
    dropped terms are exact zeros, and adding +0.0 changes nothing.  A factor
    with pub == 0 in every row multiplies by exactly 1 and is skipped.
    """
    rows = plb.shape[0]
    y = pub - plb
    z = 1.0 - pub
    a = int((plb > 0.0).sum(axis=1).max(initial=0))
    u = int((y > 0.0).sum(axis=1).max(initial=0))
    f = np.zeros((rows, a + 1, u + 1))
    f[:, 0, 0] = 1.0
    for l in np.flatnonzero((pub > 0.0).any(axis=0)).tolist():
        nxt = z[:, l, None, None] * f
        nxt[:, 1:, :] += plb[:, l, None, None] * f[:, :-1, :]
        nxt[:, :, 1:] += y[:, l, None, None] * f[:, :, :-1]
        f = nxt
    return f


def _extract_batch(f: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of extract_bounds over grids from _ugf_expand_batch.

    Returns (rows, n+1) lower and upper bounds for counts 0..n.  The upper
    bound of count k sums, for each x-degree i <= k, the mass with y-degree
    at least k - i: ``total[i] - csum[i, k-i-1]``.  One vectorised step per
    x-degree i does this for every k > i at once, in the order the per-count
    loop would; a y-index past the grid reads the last cumulative column,
    which is the saturated sum.  Counts above a + u hold exact zeros.
    """
    rows, size, width = f.shape
    top = min(n + 1, size + width - 1)
    csum = f.cumsum(axis=2)
    total = csum[:, :, -1]
    lb = np.zeros((rows, n + 1))
    lb[:, :size] = f[:, :, 0]
    ub = np.zeros((rows, n + 1))
    for i in range(size):
        ub[:, i:top] += total[:, i, None]
        ub[:, i + 1 : top] -= csum[:, i, np.minimum(np.arange(top - i - 1), width - 1)]
    return lb, np.minimum(ub, 1.0, out=ub)
