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

from .geometry import Rect, check_norm_order, dominance_grid, dominates_optimal
from .model import Frontier, UncertainObject

__all__ = [
    "ProbBounds",
    "DominationClassification",
    "classify",
    "pdom_bounds",
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
    the reference, when it is a database object) is excluded from all groups.
    """

    complete_dominators: tuple
    influence_objects: tuple
    irrelevant: tuple

    @property
    def complete_domination_count(self) -> int:
        return len(self.complete_dominators)


def same_object(a, b) -> bool:
    return a is b or (a is not None and b is not None and a.id == b.id)


def result_length(db: Sequence[UncertainObject], b: UncertainObject) -> int:
    """Count-array size: |db| when the target is a database object, else
    |db| + 1 (an external target can be dominated by every object)."""
    in_db = any(same_object(o, b) for o in db)
    return len(db) + (0 if in_db else 1)


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
    cands = [o for o in db if not same_object(o, b) and not same_object(o, r)]
    if not cands:
        return DominationClassification((), (), ())
    a_lo = np.stack([o.mbr.lo for o in cands])
    a_hi = np.stack([o.mbr.hi for o in cands])
    if a_lo.shape[1] != b.ndim or b.ndim != r.ndim:
        raise ValueError("dimension mismatch between database, target and reference")
    b_lo, b_hi = b.mbr.lo[None, :], b.mbr.hi[None, :]
    dominates_b = dominance_grid(a_lo, a_hi, b_lo, b_hi, r.mbr.lo, r.mbr.hi, p, criterion)[:, 0]
    dominated = dominance_grid(b_lo, b_hi, a_lo, a_hi, r.mbr.lo, r.mbr.hi, p, criterion)[0, :]
    complete = tuple(o.id for o, f in zip(cands, dominates_b) if f)
    irrelevant = tuple(o.id for o, f, g in zip(cands, dominates_b, dominated) if g and not f)
    influence = tuple(o.id for o, f, g in zip(cands, dominates_b, dominated) if not f and not g)
    return DominationClassification(complete, influence, irrelevant)


def pdom_bounds(
    a: UncertainObject,
    b_rect: Rect,
    r_rect: Rect,
    p: float = 2.0,
    depth: int = 1,
) -> ProbBounds:
    """Bounds on P(a dominates the fixed node pair (b_rect, r_rect)).

    The lower bound accumulates the mass of a's frontier nodes that
    dominate; the upper bound is one minus the mass of nodes that are
    themselves dominated.  Deepening a's frontier only tightens both sides.
    """
    p = check_norm_order(p)
    f = a.leaves_at_depth(depth)
    lb = 0.0
    dominated_mass = 0.0
    for lo, hi, mass in zip(f.lo, f.hi, f.mass.tolist()):
        node = Rect.from_bounds(lo, hi)
        if dominates_optimal(node, b_rect, r_rect, p):
            lb += mass
        elif dominates_optimal(b_rect, node, r_rect, p):
            dominated_mass += mass
    lb = min(lb, 1.0)
    ub = min(1.0 - dominated_mass, 1.0)
    return ProbBounds(lb, max(ub, lb))


def pdom_bounds_grid(
    a: Frontier,
    b: Frontier,
    r: Frontier,
    p: float = 2.0,
    criterion: str = "optimal",
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised pdom bounds of one candidate frontier against every
    (b-node, r-node) pair.

    Returns (lb, ub) arrays of shape (len(b), len(r)); one r-node is
    processed at a time to bound peak memory.
    """
    lb = np.zeros((len(b), len(r)))
    ub = np.ones((len(b), len(r)))
    for z, (r_lo, r_hi) in enumerate(zip(r.lo, r.hi)):
        dom = dominance_grid(a.lo, a.hi, b.lo, b.hi, r_lo, r_hi, p, criterion)
        rev = dominance_grid(b.lo, b.hi, a.lo, a.hi, r_lo, r_hi, p, criterion)
        lb[:, z] = a.mass @ dom.astype(float)
        ub[:, z] = 1.0 - rev.astype(float) @ a.mass
    np.minimum(lb, 1.0, out=lb)
    np.maximum(ub, lb, out=ub)
    return lb, ub
