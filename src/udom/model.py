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
from functools import cached_property, partial
from typing import Iterable, Sequence

import numpy as np

from .geometry import Rect, _check_count, _ranges

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


def _by_size(start: np.ndarray, nodes: np.ndarray):
    """Group `nodes` by sample count: yields each group's nodes and their
    (nodes, count) matrix of sample positions ``start[i] .. start[i + 1] - 1``."""
    sizes = start[nodes + 1] - start[nodes]
    for size in np.flatnonzero(np.bincount(sizes)):
        rows = nodes[sizes == size]
        yield rows, start[rows, None] + np.arange(size)


def _segment_sums(values: np.ndarray, start: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per segment i, ``values[start[i]:start[i + 1]].sum()`` bit for bit
    (``start[0] == 0``, ``start[-1] == values.size``, no segment empty).

    A row of a C-ordered 2-D .sum(axis=1) is numpy's pairwise summation over
    the segment in order, as the segment's own .sum() would add it;
    np.add.reduceat adds in an order of its own (neither left to right nor
    pairwise) and would move masses (and so every bound) in the last bits.
    Segments of one size are the rows of a reshape; others are gathered by size.
    """
    if sizes.size == 1 or (sizes == sizes[0]).all():
        return values.reshape(sizes.size, sizes[0]).sum(axis=1)
    sums = np.empty(sizes.size)
    for rows, pos in _by_size(start, np.arange(sizes.size)):
        sums[rows] = values[pos].sum(axis=1)
    return sums


def _frontier(points, weights, order, start, seg) -> Frontier:
    pts = np.take(points, order, axis=0)
    heads = start[:-1]
    mass = _segment_sums(weights[order], start, np.diff(start))
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


_NO_SAMPLES = "need a non-empty (n, d) sample array"
_HALF_MAX = np.finfo(float).max / 2


def _validated(points: np.ndarray, weights: np.ndarray, start: np.ndarray | None = None):
    """Check the samples of one or more objects and freeze them.

    Object i owns rows ``start[i]:start[i + 1]`` of the float (N, d)
    `points` and (N,) `weights`; ``start=None`` is one object owning all
    rows.  Runs every check of `UncertainObject`, with its messages, then
    normalises each object's weights by that object's own sum and takes each
    object's MBR.  Returns ``(points, weights, lo, hi)``, all read-only:
    `points` itself (frozen in place), the normalised weights and the (k, d)
    per-object MBR bounds.
    """
    if points.ndim != 2 or points.size == 0:
        raise ValueError(_NO_SAMPLES)
    if start is None:
        start = np.array([0, points.shape[0]])
    elif not (start[1:] > start[:-1]).all():
        raise ValueError(_NO_SAMPLES)
    heads = start[:-1]
    sizes = start[1:] - heads
    if weights.shape != (points.shape[0],):
        raise ValueError("weights must be one per sample")
    if not np.isfinite(points).all():
        raise ValueError("sample coordinates must be finite")
    # n weights below max_float / 2n have a finite sum, so sums are taken only where they cannot overflow.
    if not (weights.min() > 0 and (np.maximum.reduceat(weights, heads) < _HALF_MAX / sizes).all()):
        raise ValueError("sample weights must be positive, with a finite sum: each below 8.9e307 / samples")
    arrays = (
        points,
        weights / np.repeat(_segment_sums(weights, start, sizes), sizes),
        np.minimum.reduceat(points, heads),
        np.maximum.reduceat(points, heads),
    )
    for a in arrays:
        a.setflags(write=False)
    return arrays


class UncertainObject:
    """A weighted discrete sample set with an id and a tight MBR.

    Its arrays are read-only: its own copies, or views of arrays shared with
    the other objects of one `generate_synthetic` call."""

    __slots__ = ("id", "points", "weights", "mbr")

    def __init__(self, obj_id, points: np.ndarray, weights: np.ndarray):
        # Copy before freezing so caller-owned arrays are never made read-only.
        points, weights, lo, hi = _validated(np.array(points, dtype=float), np.asarray(weights, dtype=float))
        # Own (d,) bounds: a row view would keep a second array object per bound alive.
        lo, hi = lo[0].copy(), hi[0].copy()
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.id = obj_id
        self.points = points
        self.weights = weights
        self.mbr = Rect._checked(lo, hi)

    @classmethod
    def _batch(cls, ids, points: np.ndarray, weights: np.ndarray, start: np.ndarray) -> list["UncertainObject"]:
        """One object per id, object i owning rows ``start[i]:start[i + 1]``
        of the float (N, d) `points` and (N,) `weights`, which are checked
        as `_validated` does and frozen, not copied: every object's arrays
        are read-only views of the shared ones, which it keeps alive."""
        points, weights, lo, hi = _validated(points, weights, start)
        objects = []
        for obj_id, a, b, lo_i, hi_i in zip(ids, start[:-1], start[1:], lo, hi):
            obj = object.__new__(cls)
            obj.id = obj_id
            obj.points = points[a:b]
            obj.weights = weights[a:b]
            obj.mbr = Rect._checked(lo_i, hi_i)
            objects.append(obj)
        return objects

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


# Floats in one generate_synthetic draw, at most (a draw holds at least one object).
_DRAW_FLOATS = 1 << 20


def _check_sample_floats(floats: int, what: str) -> None:
    """Refuse, before anything is allocated, a sample array of more floats
    than one batched chunk of the engine holds (`_BATCH_FLOAT_BUDGET`, ~128
    MB): a small count in a file row or an argument must not ask the host
    for more memory than it has.  `what` names the count in the message."""
    from .domination import _BATCH_FLOAT_BUDGET  # domination imports this module

    if floats > _BATCH_FLOAT_BUDGET:
        raise ValueError(f"{what} is {floats} sample floats, more than the {_BATCH_FLOAT_BUDGET} one sample array may hold")


def generate_synthetic(
    n: int,
    d: int = 2,
    max_extent: float = 0.004,
    samples_per_object: int = 1000,
    seed: int = 0,
) -> list[UncertainObject]:
    """Uniform random objects in the unit cube, with ids 0 .. n - 1.

    Each object gets an anchor uniform in [0, 1]^d, per-dimension extents
    uniform in (0, max_extent], and samples uniform inside the resulting box,
    so every MBR lies within [0, 1 + max_extent]^d.  Fully deterministic for a
    fixed seed: the generator's uniform stream is read object by object, each
    object taking its d anchor coordinates, then its d extents, then its
    samples row by row.  The objects' arrays are read-only views of one
    shared sample array (and one weight array), which any object kept keeps
    alive whole.  An n * samples_per_object * d over `_BATCH_FLOAT_BUDGET`
    floats raises ValueError before anything is drawn.
    """
    for value, name in ((n, "n"), (d, "d"), (samples_per_object, "samples_per_object")):
        _check_count(value, name)
    if not (0.0 < max_extent < 1.0):
        raise ValueError("max_extent must lie in (0, 1)")
    s = samples_per_object
    _check_sample_floats(n * s * d, "n * samples_per_object * d")
    points = _synthetic_samples(np.random.default_rng(seed), n, d, max_extent, s)
    # Every weight is 1 / s: one value, broadcast; normalising writes the one weight array.
    return UncertainObject._batch(range(n), points, np.broadcast_to(1.0 / s, n * s), np.arange(0, n * s + 1, s))


def _synthetic_samples(rng, n: int, d: int, max_extent: float, s: int) -> np.ndarray:
    """The (n * s, d) samples of `generate_synthetic`, object by object.

    One draw per chunk of objects, row i holding object i's anchor, extent
    uniforms and samples: the stream the objects would read one by one.
    """
    width = (2 + s) * d
    chunk = max(1, _DRAW_FLOATS // width)
    points = np.empty((n * s, d))
    for first in range(0, n, chunk):
        u = rng.uniform(0.0, 1.0, size=(min(chunk, n - first), width))
        extent = (1.0 - u[:, d : 2 * d]) * max_extent
        out = points[first * s : (first + len(u)) * s].reshape(len(u), s, d)
        np.multiply(u[:, 2 * d :].reshape(len(u), s, d), extent[:, None], out=out)
        out += u[:, None, :d]
    return points


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
        reproducible), with equal weights.  Trailing empty cells are
        dropped; an empty cell before them raises DatasetError, and so does
        an nsamples * d over `_BATCH_FLOAT_BUDGET`, before any draw.  Blank
        rows and rows whose first cell starts with ``#`` are skipped.
      * any other name is ``jsonl``: one object per line,
        ``{"id": ..., "samples": [[x1, ..., xd, w], ...]}``; blank lines are
        skipped.  A line's samples become one (s, d + 1) float array whose
        last column is the weights.

    Both formats run through one loop: each row gives one object (or none),
    and any fault in a row, an allocation that fails included, raises
    DatasetError naming its line; an object of a new dimensionality or with
    a repeated id is refused, and so is a file without objects.
    """
    gaussian = str(path).endswith(".csv")
    read_row = partial(_gaussian_row, np.random.default_rng(seed)) if gaussian else _jsonl_row
    objects: list[UncertainObject] = []
    lines: dict = {}
    with open(path, "r", encoding="utf-8", newline="" if gaussian else None) as fh:
        for lineno, row in enumerate(csv.reader(fh) if gaussian else fh, start=1):
            try:
                obj = read_row(row)
            # OverflowError: a JSON integer past the float range; MemoryError: a sample count too large to hold.
            except (KeyError, IndexError, TypeError, ValueError, OverflowError, MemoryError) as exc:
                raise DatasetError(f"line {lineno}: {exc}") from exc
            if obj is not None:
                _append_checked(objects, lines, obj, lineno)
    if not objects:
        raise DatasetError("dataset is empty")
    return objects


def _append_checked(objects: list, lines: dict, obj: UncertainObject, lineno: int):
    """Append `obj` read from `lineno`, rejecting a new dimensionality or a
    repeated id: one equal to an earlier id (`1` and `1.0`) or printed as
    one (`1` and `"1"`), since answers and `--b`/`--q` name objects by text.
    `lines` maps each id, and its str(), to the line that defined it."""
    d = obj.ndim
    if objects and objects[-1].ndim != d:
        raise DatasetError(
            f"line {lineno}: dimensionality {d} differs from previous objects ({objects[-1].ndim})"
        )
    for key in (obj.id, str(obj.id)):
        first = lines.setdefault(key, lineno)
        if first != lineno:
            raise DatasetError(f"line {lineno}: id {obj.id!r} repeats the id of line {first}")
    objects.append(obj)


def _jsonl_row(line: str) -> UncertainObject | None:
    """The object of one jsonl line, or None for a blank one."""
    line = line.strip()
    if not line:
        return None
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from exc
    obj_id = row["id"]
    hash(obj_id)  # ids key dicts downstream; a list or object id is malformed
    raw = row["samples"]
    for value in (v for entry in raw for v in entry):  # true or "0.5" would pass as floats
        if type(value) not in (int, float):
            raise ValueError(f"sample value {json.dumps(value)} is not a number")
    # Every entry is now a list of numbers or an empty container.
    widths = [len(entry) for entry in raw]
    if not widths:
        raise ValueError("object needs at least one sample")
    for i, width in enumerate(widths, start=1):
        if width == 0:
            raise ValueError(f"sample {i} is empty")
        if width != widths[0]:
            raise ValueError(f"sample {i} has {width} values, sample 1 has {widths[0]}")
    samples = np.array(raw, dtype=float)
    return UncertainObject(obj_id, samples[:, :-1], samples[:, -1])


def _gaussian_row(rng, row: list[str]) -> UncertainObject | None:
    """The object of one gaussian-csv row, its samples drawn from `rng`, or
    None for a blank or comment row."""
    row = [cell.strip() for cell in row]
    while row and row[-1] == "":  # a trailing comma is no missing value
        row.pop()
    if not row or row[0].startswith("#"):
        return None
    if "" in row:
        raise ValueError(f"column {row.index('') + 1} is empty")
    if (len(row) - 2) % 2 != 0 or len(row) < 4:
        raise ValueError("expected columns id, x1..xd, sigma1..sigmad, nsamples")
    d = (len(row) - 2) // 2
    mean = np.array([float(v) for v in row[1 : 1 + d]])
    sigma = np.array([float(v) for v in row[1 + d : 1 + 2 * d]])
    nsamples = int(row[-1])
    if not (np.isfinite(mean).all() and np.isfinite(sigma).all()):
        raise ValueError("mean and sigma must be finite")
    if (sigma < 0).any():
        raise ValueError("sigma must be >= 0")
    if nsamples < 1:
        raise ValueError("nsamples must be >= 1")
    _check_sample_floats(nsamples * d, "nsamples * d")
    return UncertainObject(row[0], _gaussian_cloud(rng, mean, sigma, nsamples), np.full(nsamples, 1.0 / nsamples))


def save_dataset_jsonl(objects: Sequence[UncertainObject], path):
    """Write objects in the jsonl sample-list format (stable field order):
    each object's samples as one stacked (s, d + 1) array, weights last,
    written as its list of float rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            samples = np.column_stack((obj.points, obj.weights)).tolist()
            fh.write(json.dumps({"id": obj.id, "samples": samples}) + "\n")
