"""Candidate classification and decomposition-based domination probability bounds.

Bounds are always computed against one fixed (target-node, reference-node)
pair: decomposing the target or reference jointly with several candidates
couples their domination events, so the API takes node rectangles (never a
whole object) for those two roles.  Only the candidate side is enumerated over
its decomposition frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import check_norm_order, dominance_grid
from .model import Frontier, FrontierStack, UncertainObject

__all__ = [
    "ProbBounds",
    "DominationClassification",
    "classify",
    "pdom_bounds_grid",
]


@dataclass(frozen=True)
class ProbBounds:
    """Probability interval [lb, ub] for one domination relation."""

    lb: float
    ub: float

    def __post_init__(self):
        if not (-1e-12 <= self.lb <= self.ub + 1e-12 and self.ub <= 1.0 + 1e-12):
            raise ValueError(f"invalid probability bounds ({self.lb}, {self.ub})")

    @property
    def width(self) -> float:
        return self.ub - self.lb


@dataclass(frozen=True)
class DominationClassification:
    """Split of the database relative to a target b and reference r.

    ``complete_dominators`` are closer than b to r in every possible world,
    ``irrelevant`` objects in none, ``influence_objects`` are undecided at the
    MBR level and are the only source of count uncertainty.  The target (and
    the reference, when it is a database object) is excluded from all groups;
    see `others`.
    """

    complete_dominators: tuple
    influence_objects: tuple
    irrelevant: tuple

    @property
    def complete_domination_count(self) -> int:
        return len(self.complete_dominators)


def others(db: Sequence[UncertainObject], *exclude: UncertainObject) -> list[UncertainObject]:
    """The database objects other than `exclude`, in database order.

    Identity is the Python object, so an external object whose id equals a
    database id excludes nothing.  Ids still label answers, so repeated
    database ids raise ValueError, as do objects of differing dimensionality.
    """
    if len({o.id for o in db}) != len(db):
        raise ValueError("database object ids must be unique")
    if len({o.points.shape[1] for o in (*db, *exclude)}) > 1:
        raise ValueError("dimension mismatch between database, target and reference")
    skip = {id(o) for o in exclude}
    return [o for o in db if id(o) not in skip]


def classify(
    db: Sequence[UncertainObject],
    b: UncertainObject,
    r: UncertainObject,
    p: float = 2.0,
    criterion: str = "optimal",
) -> DominationClassification:
    """Classify every database object against (b, r) from the MBRs alone.

    ``criterion`` selects the decision rule: "optimal" (corner-wise, tight) or
    "minmax" (baseline, kept for comparisons; never prunes more than optimal).
    """
    p = check_norm_order(p)
    if criterion not in ("optimal", "minmax"):
        raise ValueError(f"unknown criterion {criterion!r}")
    cands = others(db, b, r)
    if not cands:
        return DominationClassification((), (), ())
    a_lo = np.stack([o.mbr.lo for o in cands])
    a_hi = np.stack([o.mbr.hi for o in cands])
    b_lo, b_hi = b.mbr.lo[None, :], b.mbr.hi[None, :]
    dominates_b = dominance_grid(a_lo, a_hi, b_lo, b_hi, r.mbr.lo, r.mbr.hi, p, criterion)[:, 0]
    dominated = dominance_grid(b_lo, b_hi, a_lo, a_hi, r.mbr.lo, r.mbr.hi, p, criterion)[0, :]
    complete = tuple(o.id for o, f in zip(cands, dominates_b) if f)
    irrelevant = tuple(o.id for o, f, g in zip(cands, dominates_b, dominated) if g and not f)
    influence = tuple(o.id for o, f, g in zip(cands, dominates_b, dominated) if not f and not g)
    return DominationClassification(complete, influence, irrelevant)


def pdom_bounds_grid(
    a: FrontierStack,
    b: Frontier | FrontierStack,
    r: Frontier | FrontierStack,
    p: float = 2.0,
    criterion: str = "optimal",
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised pdom bounds of every stacked candidate frontier against
    every (b-node, r-node) pair.

    `a` holds one segment per candidate; only the ``lo``/``hi`` node arrays
    of `b` and `r` are read.  Returns (lb, ub) arrays of shape
    (n_cands, len(b), len(r)).  Each r-node costs one forward and one reverse
    `dominance_grid` call over all candidate nodes at once, so the peak
    temporary is O(len(a) * len(b)) per r-node.  Each candidate's masses are
    summed over its own segment, in the order a lone frontier would use.
    """
    segs = list(zip(a.seg[:-1], a.seg[1:]))
    lb = np.zeros((len(segs), len(b), len(r)))
    ub = np.ones((len(segs), len(b), len(r)))
    for z, (r_lo, r_hi) in enumerate(zip(r.lo, r.hi)):
        dom = dominance_grid(a.lo, a.hi, b.lo, b.hi, r_lo, r_hi, p, criterion).astype(float)
        rev = dominance_grid(b.lo, b.hi, a.lo, a.hi, r_lo, r_hi, p, criterion).astype(float)
        for c, (s, e) in enumerate(segs):
            lb[c, :, z] = a.mass[s:e] @ dom[s:e]
            ub[c, :, z] = 1.0 - rev[:, s:e] @ a.mass[s:e]
    np.minimum(lb, 1.0, out=lb)
    np.maximum(ub, lb, out=ub)
    return lb, ub
