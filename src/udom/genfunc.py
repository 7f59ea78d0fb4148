"""Generating-function calculus over exact and bounded Bernoulli variables.

The count of independent Bernoulli events is read off the coefficients of
``prod_i (1 - p_i + p_i*x)``.  When only an interval [p_lb, p_ub] is known per
event, the uncertain generating function takes the product over three-term
factors

    p_lb * x  +  (p_ub - p_lb) * y  +  (1 - p_ub)

where x tracks events that certainly happen, y tracks unresolved events and
the constant tracks events that certainly do not happen.  Its bounds read
only two things off that product.  Let X count the certain events and Y the
unresolved ones; X is Poisson-binomial over p_lb and X + Y over p_ub, so

    P(count = k)  >=  P(X = k, Y = 0)  =  [x^k] prod(p_lb*x + 1 - p_ub)
    P(count = k)  <=  P(X <= k <= X + Y)  =  P(X <= k) - P(X + Y <= k - 1)

(X + Y < k implies X <= k).  The engine computes three univariate products
per pair row, C = prod(p_lb*x + 1 - p_ub), A = prod(p_lb*x + 1 - p_lb) and
B = prod(p_ub*x + 1 - p_ub): lb[k] = C[k] and
ub[k] = cumsum(A)[k] - cumsum(B)[k-1].  A pass over one factor with
x-coefficient x and constant z sets each coefficient to c[j]*z + c[j-1]*x.

The lower bound equals the (x, y) grid expansion's bit for bit: the grid's
y-degree-0 cells, which it reads, get the same products and sums in the same
order as C, and the y-terms never reach them.  The upper bound is a
difference of two cumulative sums.  Each coefficient of A and B passes
through at most 2n roundings for n factors and each cumulative sum n more,
over masses that total 1, so ub is off by at most about 3n*eps in absolute
terms; against the grid's ub (with rounding of its own) the tests hold it
within (n+1)*eps.  It is clamped to [lb, 1].  A row whose factors are all
resolved (p_lb = p_ub) has A = B = C bit for bit and takes ub = A, so its
bounds are exact, ub == lb, as on the grid.  A (0, 0) factor multiplies all
three products by exactly 1 and a (1, 1) factor shifts them by exactly one
degree, so padding and certain factors add no rounding.
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
        if np.isnan(self.lb).any() or np.isnan(self.ub).any():
            raise ValueError("bounds must not be NaN")
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

    Returns an array c of length len(probs) + 1 with c[j] = P(sum = j): the
    engine's product on one row with p_lb = p_ub = probs.
    """
    probs = np.asarray(list(probs), dtype=float)
    if not ((probs >= 0.0) & (probs <= 1.0)).all():  # NaN fails too
        raise ValueError("probabilities must lie in [0, 1]")
    return _ugf_expand_batch(probs[None], probs[None])[0, 0].copy()


# ---------------------------------------------------------------------------
# Batch kernels used by the refinement engine.  Each batch row is one
# (target-node, reference-node) pair; tests pin them to the sparse
# single-instance expansion and to the full (rows, n+1, n+1) grid, both kept
# as oracles in tests/reference.py.
# ---------------------------------------------------------------------------


def _ugf_expand_batch(plb: np.ndarray, pub: np.ndarray) -> np.ndarray:
    """The products C, A and B of the module docstring for many bound vectors.

    plb/pub: (rows, n) arrays.  Returns their coefficients as a (3, rows, n+1)
    array indexed [product, row, degree].  One pass per column with pub > 0
    in some row (any other column multiplies by exactly 1); after j passes
    every product has degree <= j, so a pass updates only the first j+1 cells.
    """
    rows, n = plb.shape
    f = np.zeros((n + 1, 3, rows))  # [degree, product, row]: a pass updates contiguous rows
    f[0] = 1.0
    x, z = np.empty((2, 3, rows))  # one column's coefficients of C, A, B
    for j, l in enumerate(np.flatnonzero((pub > 0.0).any(axis=0)).tolist()):
        x[:2], x[2] = plb[:, l], pub[:, l]
        np.subtract(1.0, x, out=z)
        z[0] = z[2]
        carry = x * f[: j + 1]
        f[: j + 1] *= z
        f[1 : j + 2] += carry
    return f.transpose(1, 2, 0)


def _extract_batch(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count bounds read off products from `_ugf_expand_batch`: (rows, n+1)
    lower and upper bounds for counts 0..n, lb = C and
    ub[k] = cumsum(A)[k] - cumsum(B)[k-1], clamped to [lb, 1].  On a row whose
    factors are all resolved (plb = pub) the three products are the same bit
    for bit and ub[k] is A[k] exactly, which the difference of sums would
    round; so a row with A == B takes ub = A, and ub == lb there."""
    lb, a, b = f
    ub = a.cumsum(axis=1)
    ub[:, 1:] -= b[:, :-1].cumsum(axis=1)
    np.copyto(ub, a, where=(a == b).all(axis=1)[:, None])
    return lb, np.maximum(np.minimum(ub, 1.0, out=ub), lb, out=ub)
