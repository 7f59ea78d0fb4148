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
and leaving them out changes no bound in its last bit.  So too a certain
factor (p_lb = p_ub = 1) is an exact x-shift that adds only exact zeros,
and one with p_ub = 0 multiplies by exactly 1: `udom.idca` may expand a
row's other factors alone, in order, and shift its bounds by its count of
certain factors, with the same products and sums in every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["DomCountDistribution", "gf_exact"]

MASS_TOLERANCE = 1e-9


@dataclass
class DomCountDistribution:
    """Per-count probability bounds: lb[k] <= P(count = k) <= ub[k].

    Upper bounds above 1 are permitted (they are vacuously valid); the loose
    plain-GF route kept as a test oracle can produce them, the UGF never does.
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

    @classmethod
    def _unchecked(cls, lb: np.ndarray, ub: np.ndarray) -> "DomCountDistribution":
        """The engine's constructor: float 1-d bounds it has just clipped, not checked again."""
        dist = cls.__new__(cls)
        dist.lb, dist.ub = lb, ub
        return dist


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


def _gf_affine(x_coeffs: np.ndarray, const_coeffs: np.ndarray) -> np.ndarray:
    """Expand prod_i (x_coeffs[i] * x + const_coeffs[i]); returns n+1 coefficients."""
    c = np.array([1.0])
    for xc, cc in zip(x_coeffs, const_coeffs):
        nxt = np.zeros(c.size + 1)
        nxt[:-1] += c * cc
        nxt[1:] += c * xc
        c = nxt
    return c


# ---------------------------------------------------------------------------
# Dense batch kernels used by the refinement engine.  Each batch row is one
# (target-node, reference-node) pair; tests pin them to the sparse
# single-instance expansion and, byte for byte, to the full (rows, n+1, n+1)
# grid, both kept as oracles in tests/reference.py.
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
    """Count bounds read off grids from _ugf_expand_batch.

    Returns (rows, n+1) lower and upper bounds for counts 0..n: lb[k] is
    c[k, 0] and ub[k] sums c[i, j] over i <= k <= i + j.  The upper
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
