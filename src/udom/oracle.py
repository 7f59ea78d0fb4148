"""Ground-truth engines for small instances.

``enumerate_exact`` walks every joint assignment of one sample per object and
tallies domination counts directly from distances; it is deliberately naive
(its only job is to be obviously right) and refuses to run past a fixed
world budget rather than silently approximating.

``mc_baseline`` is the sampling comparison partner: it draws positions of the
query object, treats each draw as certain, and combines exact per-candidate
domination probabilities conditioned on a fixed (query sample, target sample)
pair through the plain generating function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domination import _pdf_length, others
from .genfunc import gf_exact
from .geometry import _check_count, _no_overflow, check_norm_order
from .model import UncertainObject

__all__ = ["ExactPdf", "WorldBudgetError", "enumerate_exact", "mc_baseline"]

_WORLD_BUDGET = 10_000_000


class WorldBudgetError(RuntimeError):
    """The instance has more possible worlds than `enumerate_exact` walks."""


@dataclass(frozen=True)
class ExactPdf:
    """A count PDF with provenance (how much work produced it)."""

    pdf: np.ndarray
    worlds: int
    note: str = ""

    def __len__(self):
        return self.pdf.size


def _dist_pow(points: np.ndarray, ref: np.ndarray, p: float) -> np.ndarray:
    return _no_overflow(lambda: (np.abs(points - ref[None, :]) ** p).sum(axis=1))


def enumerate_exact(
    db: Sequence[UncertainObject],
    b: UncertainObject,
    r: UncertainObject,
    p: float = 2.0,
) -> ExactPdf:
    """Exact PDF of b's domination count w.r.t. r by full world enumeration.

    Every world fixes one sample of b, r and each candidate; its weight is the
    product of the sample weights and its count is the number of candidates
    strictly closer to r's sample than b's sample.  An instance with more
    than 10,000,000 worlds raises `WorldBudgetError` before any is walked.
    """
    p = check_norm_order(p)
    cands = others(db, b, r)
    n_worlds = 1
    for n_samples in (b.n_samples, r.n_samples, *(c.n_samples for c in cands)):
        n_worlds *= n_samples
        if n_worlds > _WORLD_BUDGET:
            raise WorldBudgetError(f"instance has more than {_WORLD_BUDGET} possible worlds")
    size = _pdf_length(db, b)
    pdf = np.zeros(size)
    for r_pt, r_w in zip(r.points, r.weights):
        d_b = _dist_pow(b.points, r_pt, p)
        closer = [_dist_pow(c.points, r_pt, p) for c in cands]
        for b_idx in range(b.n_samples):
            threshold = d_b[b_idx]
            counts = np.zeros(1, dtype=np.int64)
            wts = np.ones(1)
            for c, dists in zip(cands, closer):
                ind = (dists < threshold).astype(np.int64)
                counts = (counts[:, None] + ind[None, :]).ravel()
                wts = (wts[:, None] * c.weights[None, :]).ravel()
            tally = np.bincount(counts, weights=wts, minlength=size)
            pdf += r_w * b.weights[b_idx] * tally
    return ExactPdf(pdf=pdf, worlds=n_worlds, note=f"enumerated {n_worlds} worlds")


def mc_baseline(
    db: Sequence[UncertainObject],
    b: UncertainObject,
    q: UncertainObject,
    samples: Optional[int] = None,
    p: float = 2.0,
    seed: int = 0,
) -> ExactPdf:
    """Sampling estimate of b's domination count PDF w.r.t. query q.

    ``samples=None`` covers q's discrete alternatives exhaustively (then the
    result equals enumerate_exact); otherwise `samples` draws from q are
    aggregated into empirical weights.  For each (query draw, b sample) pair
    the candidates are conditionally independent, so their exact marginal
    probabilities feed the plain generating function.
    """
    p = check_norm_order(p)
    if samples is not None:
        _check_count(samples, "samples")
    cands = others(db, b, q)
    size = _pdf_length(db, b)
    if samples is None:
        q_points, q_weights = q.points, q.weights
        drawn = q.n_samples
    else:
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(samples, q.weights)
        keep = counts > 0
        q_points = q.points[keep]
        q_weights = counts[keep] / samples
        drawn = samples
    # Candidate samples flattened once; per threshold one segmented reduction
    # yields every candidate's marginal.  Marginals that cover all (or none)
    # of a candidate's samples are snapped to exact 1 (0), which is the true
    # value and keeps those candidates out of the convolution.
    if cands:
        flat_pts = np.concatenate([c.points for c in cands])
        flat_w = np.concatenate([c.weights for c in cands])
        seg = np.zeros(len(cands), dtype=np.intp)
        np.cumsum([c.n_samples for c in cands[:-1]], out=seg[1:])
        n_sizes = np.array([c.n_samples for c in cands])
    pdf = np.zeros(size)
    pairs = 0
    for q_pt, q_w in zip(q_points, q_weights):
        d_b = _dist_pow(b.points, q_pt, p)
        d_flat = _dist_pow(flat_pts, q_pt, p) if cands else None
        for b_idx in range(b.n_samples):
            if cands:
                closer = d_flat < d_b[b_idx]
                probs = np.add.reduceat(np.where(closer, flat_w, 0.0), seg)
                hit_counts = np.add.reduceat(closer.astype(np.intp), seg)
                probs[hit_counts == n_sizes] = 1.0
                probs[hit_counts == 0] = 0.0
                np.clip(probs, 0.0, 1.0, out=probs)
            else:
                probs = np.zeros(0)
            counts_pdf = gf_exact(probs)
            pdf[: counts_pdf.size] += q_w * b.weights[b_idx] * counts_pdf
            pairs += 1
    return ExactPdf(pdf=pdf, worlds=pairs, note=f"{drawn} query draws, {pairs} pairs")
