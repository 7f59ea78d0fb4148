"""Correctness gate for benchmark answers.

Three checks, each failing the query it belongs to:

* invariants on every answer: per refinement step lb <= ub, sum(lb) <= 1 <=
  sum(ub) and a non-increasing summed bound width; per threshold decision
  0 <= lb <= ub <= 1 and a verdict that follows from the bounds and tau;
* for the default seed, equality with the recorded outputs in ``expected/``:
  decisions, iteration counts and stop reasons exactly, bounds within 1e-9;
* outside the timed window, for a seed-chosen subset of queries and targets,
  bounds that bracket the exact count PDF of ``udom.oracle.mc_baseline``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from udom.oracle import mc_baseline
from workloads import engine_pair

TOL = 1e-9
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
# A threshold decision row equal to this default is left out of the record.
_DEFAULT_ROW = ("out", 1, "criterion", 0.0, 0.0)


class StepMonitor:
    """``on_iteration`` hook that checks every refinement step of a query.

    The engine reports depth 1 first for each new target, so a depth that does
    not grow starts a new target's trace.
    """

    def __init__(self):
        self.errors: list[str] = []
        self._depth = 0
        self._width = np.inf

    def __call__(self, depth, dist):
        lb, ub = dist.lb, dist.ub
        width = float((ub - lb).sum())
        if depth <= self._depth:
            self._width = np.inf
        if (lb > ub + TOL).any():
            self.errors.append(f"depth {depth}: lb > ub")
        if lb.sum() > 1.0 + TOL or ub.sum() < 1.0 - TOL:
            self.errors.append(f"depth {depth}: sum(lb)={lb.sum():.12g} sum(ub)={ub.sum():.12g}")
        if width > self._width + TOL:
            self.errors.append(f"depth {depth}: width rose {self._width:.12g} -> {width:.12g}")
        self._depth, self._width = depth, width


def record(answer) -> dict:
    """Deterministic, compact form of one query's output."""
    if hasattr(answer, "decisions"):
        rows = []
        for i, d in enumerate(answer.decisions):
            row = (d.decision, d.iterations, d.stop_reason, float(d.lb), float(d.ub))
            if row != _DEFAULT_ROW:
                rows.append([i, d.object_id, *row])
        return {"n": len(answer.decisions), "rows": rows}
    res = answer.result
    nz = np.flatnonzero((answer.lb != 0) | (answer.ub != 0))
    return {
        "n": int(answer.lb.size),
        "iterations": res.iterations_run,
        "stop": res.stop_reason,
        "bounds": [[int(i), float(answer.lb[i]), float(answer.ub[i])] for i in nz],
    }


def digest(rec: dict) -> str:
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()[:16]


def answer_errors(answer, tau=None) -> list[str]:
    """Invariants of a finished answer (threshold decisions or rank bounds)."""
    errors = []
    if hasattr(answer, "decisions"):
        for d in answer.decisions:
            if not (-TOL <= d.lb <= d.ub + TOL and d.ub <= 1.0 + TOL):
                errors.append(f"object {d.object_id}: bounds ({d.lb}, {d.ub})")
            verdict = "in" if d.lb > tau else "out" if d.ub <= tau else "undecided"
            if d.decision != verdict:
                errors.append(f"object {d.object_id}: {d.decision} but bounds say {verdict}")
        return errors
    lb, ub = answer.lb, answer.ub
    if (lb > ub + TOL).any() or lb.sum() > 1.0 + TOL or ub.sum() < 1.0 - TOL:
        errors.append("rank bounds violate lb <= ub or sum(lb) <= 1 <= sum(ub)")
    trace = answer.result.uncertainty_trace
    if any(b > a + TOL for a, b in zip(trace, trace[1:])):
        errors.append(f"uncertainty trace rises: {trace}")
    return errors


def load_expected(workload: str) -> dict | None:
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def compare(rec: dict, want: dict) -> list[str]:
    """Differences between a record and the expected one."""
    if rec["n"] != want["n"]:
        return [f"length {rec['n']} != {want['n']}"]
    errors = []
    if "rows" in want:
        got = {r[0]: r for r in rec["rows"]}
        exp = {r[0]: r for r in want["rows"]}
        for i in sorted(set(got) | set(exp)):
            g = got.get(i, [i, None, *_DEFAULT_ROW])
            e = exp.get(i, [i, None, *_DEFAULT_ROW])
            if g[2:5] != e[2:5] or abs(g[5] - e[5]) > TOL or abs(g[6] - e[6]) > TOL:
                errors.append(f"row {i}: {g[2:]} != {e[2:]}")
        return errors
    if (rec["iterations"], rec["stop"]) != (want["iterations"], want["stop"]):
        errors.append(f"iterations/stop {rec['iterations']}/{rec['stop']} != {want['iterations']}/{want['stop']}")
    got = {b[0]: b[1:] for b in rec["bounds"]}
    exp = {b[0]: b[1:] for b in want["bounds"]}
    for i in sorted(set(got) | set(exp)):
        g, e = got.get(i, [0.0, 0.0]), exp.get(i, [0.0, 0.0])
        if abs(g[0] - e[0]) > TOL or abs(g[1] - e[1]) > TOL:
            errors.append(f"count {i}: {g} != {e}")
    return errors


def _dist_pow(points, ref):
    return ((points - ref[None, :]) ** 2).sum(axis=1)


def exact_count_pdf(db, b, r) -> np.ndarray:
    """Exact PDF of b's domination count w.r.t. r over db (L2).

    Objects that dominate b in every world, or in none, enter as a count
    offset; ``mc_baseline`` with ``samples=None`` (exhaustive over r's
    samples) handles the rest, so the result equals ``mc_baseline`` on the
    whole db while staying cheap at n=10000.  Point-to-box distances of the
    MBRs settle most objects; the others are settled from their samples.
    """
    others = [o for o in db if o.id != b.id and o.id != r.id]
    size = len(db) + (0 if any(o.id == b.id for o in db) else 1)
    d_b = np.stack([_dist_pow(b.points, r_pt) for r_pt in r.points])
    b_min, b_max = d_b.min(axis=1)[:, None], d_b.max(axis=1)[:, None]
    lo = np.stack([o.mbr.lo for o in others])[None]
    hi = np.stack([o.mbr.hi for o in others])[None]
    rp = r.points[:, None, :]
    far = (np.maximum(np.abs(rp - lo), np.abs(rp - hi)) ** 2).sum(axis=2)
    near = (np.maximum(np.maximum(lo - rp, rp - hi), 0.0) ** 2).sum(axis=2)
    always = (far < b_min).all(axis=0)
    never = (near >= b_max).all(axis=0)
    for i in np.flatnonzero(~always & ~never):
        d = np.stack([_dist_pow(others[i].points, r_pt) for r_pt in r.points])
        always[i] = (d.max(axis=1)[:, None] < b_min).all()
        never[i] = (d.min(axis=1)[:, None] >= b_max).all()
    rest = [o for o, a, z in zip(others, always, never) if not a and not z]
    pdf = mc_baseline(rest, b, r, samples=None).pdf
    out = np.zeros(size)
    shift = int(always.sum())
    out[shift : shift + len(rest) + 1] = pdf[: len(rest) + 1]
    return out


def oracle_errors(wl, query, answer, db, rng, extra_targets=8) -> list[str]:
    """Bracket checks against the exact PDF for one answered query.

    Threshold queries check every target refined past iteration 0 or left
    undecided, plus `extra_targets` seed-chosen others.
    """
    if query.op == "irank":
        exact = exact_count_pdf(db, *engine_pair(query, db))
        bad = np.flatnonzero((exact < answer.lb - TOL) | (exact > answer.ub + TOL))
        return [f"count {i}: exact {exact[i]:.12g} outside [{answer.lb[i]:.12g}, {answer.ub[i]:.12g}]" for i in bad]
    by_id = {o.id: o for o in db}
    decisions = answer.decisions
    picked = {i for i, d in enumerate(decisions) if d.iterations > 1 or d.decision == "undecided"}
    rest = [i for i in range(len(decisions)) if i not in picked]
    picked |= set(rng.choice(rest, size=min(extra_targets, len(rest)), replace=False).tolist())
    errors = []
    for i in sorted(picked):
        d = decisions[i]
        exact = exact_count_pdf(db, *engine_pair(query, db, by_id[d.object_id]))[: wl.k].sum()
        if not (d.lb - TOL <= exact <= d.ub + TOL):
            errors.append(f"object {d.object_id}: exact {exact:.12g} outside [{d.lb:.12g}, {d.ub:.12g}]")
    return errors
