"""Uncertain objects as weighted sample sets with lazy kd-decomposition.

An object is a finite set of weighted alternative positions whose weights sum
to one, bounded by its tight MBR.  Continuous densities enter by sampling at
ingestion time.  The decomposition bisects a node's samples at the weighted
median of the widest MBR axis; child masses are always the exact weight sums
(which reduces to the 0.5^(level-1) rule for even splits), and child
rectangles are tight MBRs of their samples.  Each level is one `Frontier`:
per-node ``lo``/``hi``/``mass`` arrays plus a sample permutation whose
segments list every node's samples; a split reads its node's axis and
half-mass from the level it refines.
"""

from __future__ import annotations

import csv
import json
import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import Rect, _check_count

__all__ = [
    "Frontier",
    "FrontierStack",
    "DecompositionTree",
    "UncertainObject",
    "DatasetError",
    "build_object",
    "split",
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
    and the samples ``order[start[i]:start[i + 1]]``.  Compared by identity:
    the tree builds each level once.
    """

    lo: np.ndarray
    hi: np.ndarray
    mass: np.ndarray
    order: np.ndarray
    start: np.ndarray

    def __len__(self) -> int:
        return self.mass.size

    @property
    def atomic(self) -> np.ndarray:
        """Per node: True when all its samples coincide (nothing to split)."""
        return (self.lo == self.hi).all(axis=1)


@dataclass(frozen=True, eq=False)
class FrontierStack:
    """Several frontiers' nodes concatenated into one set of node arrays.

    Frontier i owns rows ``seg[i]:seg[i + 1]`` of ``lo``, ``hi`` and
    ``mass``; len() is the total node count.
    """

    lo: np.ndarray
    hi: np.ndarray
    mass: np.ndarray
    seg: np.ndarray

    @classmethod
    def of(cls, frontiers: Sequence[Frontier]) -> "FrontierStack":
        seg = np.cumsum([0] + [len(f) for f in frontiers])
        return cls(*(np.concatenate([getattr(f, k) for f in frontiers]) for k in ("lo", "hi", "mass")), seg)

    def __len__(self) -> int:
        return self.mass.size


def _frontier(points, weights, order, start) -> Frontier:
    pts = points[order]
    w = weights[order]
    heads = start[:-1]
    # One .sum() per segment keeps numpy's pairwise summation over the node's
    # samples in node order; np.add.reduceat adds sequentially and would move
    # masses (and so every bound) in the last bits.
    mass = np.array([w[s:e].sum() for s, e in zip(heads, start[1:])])
    arrays = (np.minimum.reduceat(pts, heads), np.maximum.reduceat(pts, heads), mass, order, start)
    for a in arrays:
        a.setflags(write=False)
    return Frontier(*arrays)


def split(keys: np.ndarray, weights: np.ndarray, half: float) -> tuple[np.ndarray, int]:
    """Cut one node at the weighted median of `keys`, its samples' split-axis coordinates.

    Returns ``(order, n_left)``: samples ordered by key (stable), of which
    the shortest prefix whose cumulative weight reaches `half` (half the node
    mass) goes left, clipped so both sides stay non-empty.  The node needs
    two distinct keys.
    """
    order = np.argsort(keys, kind="stable")
    cum = np.cumsum(weights[order])
    n_left = int(np.searchsorted(cum, half)) + 1
    return order, min(max(n_left, 1), len(order) - 1)


class DecompositionTree:
    """Binary kd-decomposition stored as one `Frontier` per level, deepened
    lazily and guarded by a lock so that concurrent readers always observe a
    consistent frontier."""

    def __init__(self, points: np.ndarray, weights: np.ndarray):
        self._points = points
        self._weights = weights
        n = weights.size
        self._levels = [_frontier(points, weights, np.arange(n), np.array([0, n]))]
        self._lock = threading.Lock()

    def leaves(self, depth: int) -> Frontier:
        """Frontier of the tree at most `depth` levels deep (root is level 1).

        Atomic nodes are carried down unchanged; the frontier masses always
        sum to the root mass.  Deepening past full separation is a no-op.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        with self._lock:
            levels = self._levels
            while len(levels) < depth and not levels[-1].atomic.all():
                levels.append(self._deepen(levels[-1]))
            return levels[min(depth, len(levels)) - 1]

    def _deepen(self, f: Frontier) -> Frontier:
        order = f.order.copy()
        start = [0]
        axes = np.argmax(f.hi - f.lo, axis=1)
        for atomic, axis, half, s, e in zip(f.atomic, axes, f.mass / 2.0, f.start[:-1], f.start[1:]):
            if not atomic:
                seg = order[s:e]
                perm, n_left = split(self._points[seg, axis], self._weights[seg], half)
                order[s:e] = seg[perm]
                start.append(s + n_left)
            start.append(e)
        return _frontier(self._points, self._weights, order, np.array(start))

    def fully_separated(self, depth: int) -> bool:
        """True when every frontier node at `depth` is atomic."""
        return bool(self.leaves(depth).atomic.all())


class UncertainObject:
    """A weighted discrete sample set with id, tight MBR and decomposition tree."""

    __slots__ = ("id", "points", "weights", "mbr", "_tree")

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
        total = weights.sum()
        if (weights <= 0).any() or not np.isfinite(total):
            raise ValueError("sample weights must be positive, with a finite sum")
        weights = weights / total
        points.setflags(write=False)
        weights.setflags(write=False)
        self.id = obj_id
        self.points = points
        self.weights = weights
        self.mbr = Rect(points.min(axis=0), points.max(axis=0))
        self._tree: Optional[DecompositionTree] = None

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def ndim(self) -> int:
        return self.points.shape[1]

    @property
    def decomposition(self) -> DecompositionTree:
        if self._tree is None:
            self._tree = DecompositionTree(self.points, self.weights)
        return self._tree

    def leaves_at_depth(self, depth: int) -> Frontier:
        return self.decomposition.leaves(depth)

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
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: {exc}") from exc
            pts = _gaussian_cloud(rng, mean, sigma, nsamples)
            wts = np.full(nsamples, 1.0 / nsamples)
            _append_checked(objects, lines, UncertainObject(obj_id, pts, wts), lineno)
    if not objects:
        raise DatasetError("dataset is empty")
    return objects


def save_dataset_jsonl(objects: Sequence[UncertainObject], path):
    """Write objects in the jsonl sample-list format (stable field order)."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            samples = [[*map(float, pt), float(w)] for pt, w in zip(obj.points, obj.weights)]
            fh.write(json.dumps({"id": obj.id, "samples": samples}) + "\n")
