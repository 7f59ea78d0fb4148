"""Uncertain objects as weighted sample sets, and their kd-decomposition.

An object is a finite set of weighted alternative positions whose weights sum
to one, bounded by its tight MBR.  Continuous densities enter by sampling at
ingestion time.  The decomposition bisects a node's samples at the weighted
median of the widest MBR axis; child masses are always the exact weight sums
(which reduces to the 0.5^(level-1) rule for even splits), and child
rectangles are tight MBRs of their samples.  A `DecompositionTree` is a
forest: it holds the samples of one or more objects, one root each (an
object's own tree has one root; a refinement run builds one forest over all
its participants).  It is read forward as a stream of levels and holds only
the newest one.  Each level is one `Frontier`: per-node
``lo``/``hi``/``mass`` arrays whose rows are segmented by root, plus a sample
permutation whose segments list every node's samples.  A level is built by
one `split` of every node of the level above, which reads each node's axis
and half-mass from that level.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .geometry import Rect, _check_count

__all__ = [
    "Frontier",
    "DecompositionTree",
    "UncertainObject",
    "DatasetError",
    "build_object",
    "generate_synthetic",
    "load_dataset",
    "save_dataset_jsonl",
]


class DatasetError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass(frozen=True, eq=False)
class Frontier:
    """One decomposition level as read-only arrays over its k nodes.

    Node i has the tight MBR ``[lo[i], hi[i]]``, the weight sum ``mass[i]``
    and the samples ``order[start[i]:start[i + 1]]``.  Root j of the forest
    owns node rows ``seg[j]:seg[j + 1]``; a one-object tree has one root.
    Compared by identity: a level is built once, from the one above it.
    """

    lo: np.ndarray
    hi: np.ndarray
    mass: np.ndarray
    order: np.ndarray
    start: np.ndarray
    seg: np.ndarray

    def __len__(self) -> int:
        return self.mass.size

    @cached_property
    def atomic(self) -> np.ndarray:
        """Per node: True when all its samples coincide (nothing to split)."""
        return (self.lo == self.hi).all(axis=1)

    def take(self, roots: np.ndarray) -> "Frontier":
        """The node rows of `roots` (root indices, in that order), copied,
        with their samples: one frontier over the same forest samples."""
        rows, seg = _ranges(self.seg[roots], self.seg[roots + 1])
        samples, start = _ranges(self.start[rows], self.start[rows + 1])
        return Frontier(self.lo[rows], self.hi[rows], self.mass[rows], self.order[samples], start, seg)


def _ranges(heads: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ranges ``heads[i]:ends[i]`` and their offsets in it."""
    offsets = np.concatenate([[0], np.cumsum(ends - heads)])
    return np.repeat(heads - offsets[:-1], ends - heads) + np.arange(offsets[-1]), offsets


def _by_size(start: np.ndarray, nodes: np.ndarray):
    """Group `nodes` by sample count: yields each group's nodes and their
    (nodes, count) matrix of sample positions ``start[i] .. start[i + 1] - 1``."""
    sizes = start[nodes + 1] - start[nodes]
    for size in np.flatnonzero(np.bincount(sizes)):
        rows = nodes[sizes == size]
        yield rows, start[rows, None] + np.arange(size)


def _frontier(points, weights, order, start, seg) -> Frontier:
    pts = np.take(points, order, axis=0)
    w = weights[order]
    heads = start[:-1]
    # A row of a C-ordered 2-D .sum(axis=1) is numpy's pairwise summation over
    # the node's samples in node order, as the node's own .sum() would add
    # them; np.add.reduceat adds sequentially and would move masses (and so
    # every bound) in the last bits.
    mass = np.empty(heads.size)
    for rows, pos in _by_size(start, np.arange(heads.size)):
        mass[rows] = w[pos].sum(axis=1)
    arrays = (np.minimum.reduceat(pts, heads), np.maximum.reduceat(pts, heads), mass, order, start, seg)
    for a in arrays:
        a.setflags(write=False)
    return Frontier(*arrays)


def split(points: np.ndarray, weights: np.ndarray, level: Frontier) -> tuple[np.ndarray, np.ndarray]:
    """Cut every non-atomic node of `level` at the weighted median of its widest axis.

    Returns ``(order, n_left)``: ``level.order`` with each node's samples
    sorted (stably) by their coordinate on the node's widest axis, and per
    node the length of the shortest prefix whose cumulative weight reaches
    half the node mass, clipped so both sides stay non-empty; 0 for an
    atomic node, which is not cut.  Nodes of one size are cut together, as
    the rows of one 2-D stable argsort and one row-wise ``cumsum``: each row
    adds from zero in node order, as a per-node ``cumsum`` would.
    """
    order = level.order.copy()
    axis = np.argmax(level.hi - level.lo, axis=1)
    n_left = np.zeros(len(level), dtype=np.intp)
    for rows, pos in _by_size(level.start, np.flatnonzero(~level.atomic)):
        ids = order[pos]
        ids = np.take_along_axis(ids, np.argsort(points[ids, axis[rows, None]], axis=1, kind="stable"), axis=1)
        order[pos] = ids
        below = (np.cumsum(weights[ids], axis=1) < level.mass[rows, None] / 2.0).sum(axis=1)
        n_left[rows] = np.minimum(below + 1, pos.shape[1] - 1)
    return order, n_left


class DecompositionTree:
    """Binary kd-decompositions of `objects` (a forest, root j for
    ``objects[j]``), read forward as a stream of levels: the tree holds only
    its newest `Frontier`, and each level is one `split` of every node of
    the level above."""

    def __init__(self, objects: Sequence["UncertainObject"]):
        self._points = np.concatenate([o.points for o in objects])
        self._weights = np.concatenate([o.weights for o in objects])
        start = np.cumsum([0] + [o.n_samples for o in objects])
        self._level = _frontier(self._points, self._weights, np.arange(start[-1]), start, np.arange(start.size))
        self._depth = 1

    def leaves(self, depth: int) -> Frontier:
        """Frontier of the forest at most `depth` levels deep (roots are level 1).

        Deepens forward from the newest level built; a `depth` below it
        raises ValueError.  Atomic nodes are carried down unchanged; each
        root's frontier masses always sum to its root mass.  Once every root
        is fully separated the newest level is returned unchanged.
        """
        _check_count(depth, "depth")
        if depth < self._depth:
            raise ValueError(f"depth {depth} is below the newest level built ({self._depth})")
        f = self._level
        while self._depth < depth and not f.atomic.all():
            order, n_left = split(self._points, self._weights, f)
            cut = np.flatnonzero(n_left)
            start = np.sort(np.concatenate([f.start, f.start[cut] + n_left[cut]]))
            # A root's first row moves down by the number of cut nodes above it.
            f = _frontier(self._points, self._weights, order, start, f.seg + np.searchsorted(cut, f.seg))
            self._level, self._depth = f, self._depth + 1
        return f


class UncertainObject:
    """A weighted discrete sample set with an id and a tight MBR."""

    __slots__ = ("id", "points", "weights", "mbr")

    def __init__(self, obj_id, points: np.ndarray, weights: np.ndarray):
        # Copy before freezing so caller-owned arrays are never made read-only.
        points = np.array(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need a non-empty (n, d) sample array")
        if weights.shape != (points.shape[0],):
            raise ValueError("weights must be one per sample")
        if not np.isfinite(points).all():
            raise ValueError("sample coordinates must be finite")
        # n weights below max_float / 2n have a finite sum, so the sum is taken only where it cannot overflow.
        if not (weights.min() > 0 and float(weights.max()) * 2 * weights.size < np.inf):
            raise ValueError("sample weights must be positive, with a finite sum: each below 8.9e307 / samples")
        weights = weights / weights.sum()
        points.setflags(write=False)
        weights.setflags(write=False)
        self.id = obj_id
        self.points = points
        self.weights = weights
        self.mbr = Rect(points.min(axis=0), points.max(axis=0))

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def ndim(self) -> int:
        return self.points.shape[1]

    def __repr__(self):
        return f"UncertainObject(id={self.id!r}, n={self.n_samples}, d={self.ndim})"


def build_object(obj_id, samples: Iterable) -> UncertainObject:
    """Build an object from (point, weight) pairs; weights are normalised."""
    pts = []
    wts = []
    for entry in samples:
        point, weight = entry
        pts.append(np.asarray(point, dtype=float))
        wts.append(float(weight))
    if not pts:
        raise ValueError("object needs at least one sample")
    return UncertainObject(obj_id, np.stack(pts), np.array(wts))


def generate_synthetic(
    n: int,
    d: int = 2,
    max_extent: float = 0.004,
    samples_per_object: int = 1000,
    seed: int = 0,
) -> list[UncertainObject]:
    """Uniform random objects in the unit cube.

    Each object gets an anchor uniform in [0, 1]^d, per-dimension extents
    uniform in (0, max_extent], and samples uniform inside the resulting box,
    so every MBR lies within [0, 1 + max_extent]^d.  Fully deterministic for a
    fixed seed.
    """
    for value, name in ((n, "n"), (d, "d"), (samples_per_object, "samples_per_object")):
        _check_count(value, name)
    if not (0.0 < max_extent < 1.0):
        raise ValueError("max_extent must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        anchor = rng.uniform(0.0, 1.0, size=d)
        extent = (1.0 - rng.uniform(0.0, 1.0, size=d)) * max_extent
        pts = anchor + rng.uniform(0.0, 1.0, size=(samples_per_object, d)) * extent
        wts = np.full(samples_per_object, 1.0 / samples_per_object)
        objects.append(UncertainObject(i, pts, wts))
    return objects


def _gaussian_cloud(rng, mean, sigma, n):
    """Samples from a per-dimension Gaussian truncated at +-3 sigma.

    Rejection sampling renormalises the truncated density automatically;
    zero-sigma dimensions collapse to the mean.
    """
    d = mean.size
    z = rng.standard_normal((n, d))
    while True:
        bad = np.abs(z) > 3.0
        if not bad.any():
            break
        z[bad] = rng.standard_normal(int(bad.sum()))
    with np.errstate(over="ignore"):  # overflowing samples are rejected as the object is built
        return mean[None, :] + z * sigma[None, :]


def load_dataset(path, *, seed: int = 0) -> list[UncertainObject]:
    """Read objects from a file; the format follows the file name.

    Formats:
      * a ``.csv`` name is ``gaussian-csv``: rows
        ``id, x1..xd, sigma1..sigmad, nsamples``; samples are drawn from the
        per-dimension Gaussian truncated at +-3 sigma (seeded by `seed`,
        reproducible), with equal weights.
      * any other name is ``jsonl``: one object per line,
        ``{"id": ..., "samples": [[x1, ..., xd, w], ...]}``.
    """
    path = str(path)
    if path.endswith(".csv"):
        return _load_gaussian_csv(path, seed)
    return _load_jsonl(path)


def _append_checked(objects: list, lines: dict, obj: UncertainObject, lineno: int):
    """Append `obj` read from `lineno`, rejecting a new dimensionality or a
    repeated id (`lines` maps each id to the line that defined it)."""
    d = obj.ndim
    if objects and objects[-1].ndim != d:
        raise DatasetError(
            f"line {lineno}: dimensionality {d} differs from previous objects ({objects[-1].ndim})"
        )
    first = lines.setdefault(obj.id, lineno)
    if first != lineno:
        raise DatasetError(f"line {lineno}: id {obj.id!r} repeats the id of line {first}")
    objects.append(obj)


def _load_jsonl(path) -> list[UncertainObject]:
    objects: list[UncertainObject] = []
    lines: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            try:
                obj_id = row["id"]
                hash(obj_id)  # ids key dicts downstream; a list or object id is malformed
                raw = row["samples"]
                samples = [(entry[:-1], entry[-1]) for entry in raw]
                obj = build_object(obj_id, samples)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise DatasetError(f"line {lineno}: {exc}") from exc
            _append_checked(objects, lines, obj, lineno)
    if not objects:
        raise DatasetError("dataset is empty")
    return objects


def _load_gaussian_csv(path, seed: int) -> list[UncertainObject]:
    rng = np.random.default_rng(seed)
    objects: list[UncertainObject] = []
    lines: dict = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            row = [cell.strip() for cell in row if cell.strip() != ""]
            if not row or row[0].startswith("#"):
                continue
            if (len(row) - 2) % 2 != 0 or len(row) < 4:
                raise DatasetError(
                    f"line {lineno}: expected columns id, x1..xd, sigma1..sigmad, nsamples"
                )
            d = (len(row) - 2) // 2
            obj_id = row[0]
            try:
                mean = np.array([float(v) for v in row[1 : 1 + d]])
                sigma = np.array([float(v) for v in row[1 + d : 1 + 2 * d]])
                nsamples = int(row[-1])
                if not (np.isfinite(mean).all() and np.isfinite(sigma).all()):
                    raise ValueError("mean and sigma must be finite")
                if (sigma < 0).any():
                    raise ValueError("sigma must be >= 0")
                if nsamples < 1:
                    raise ValueError("nsamples must be >= 1")
                pts = _gaussian_cloud(rng, mean, sigma, nsamples)
                obj = UncertainObject(obj_id, pts, np.full(nsamples, 1.0 / nsamples))
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: {exc}") from exc
            _append_checked(objects, lines, obj, lineno)
    if not objects:
        raise DatasetError("dataset is empty")
    return objects


def save_dataset_jsonl(objects: Sequence[UncertainObject], path):
    """Write objects in the jsonl sample-list format (stable field order)."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            samples = [[*map(float, pt), float(w)] for pt, w in zip(obj.points, obj.weights)]
            fh.write(json.dumps({"id": obj.id, "samples": samples}) + "\n")
