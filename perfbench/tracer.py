"""Span tracer that wraps the engine's layer entry points from outside.

Each hook names a layer and the namespace where the engine looks the callable
up, so a patched name is the one the engine actually calls.  ``udom.idca`` on
the package is the function ``idca``, which shadows the submodule, so modules
are resolved with ``importlib.import_module``.  A hook whose module or
attribute no longer exists is reported as an absent layer; the run goes on.

Spans live in memory as (query, name, parent, start, end) and are written out
by the caller at the end of the run.  A span ends after its counters are
taken, so counting cost lands in the layer, not in its parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _count_dominance(c, args, kwargs, out):
    c["geometry.dominance_grid.box_pairs"] += np.shape(args[0])[0] * np.shape(args[2])[0]


def _count_classify(c, args, kwargs, out):
    influence = len(out.influence_objects)
    c["domination.classify.objects"] += len(out.complete_dominators) + influence + len(out.irrelevant)
    c["domination.classify.dominators"] += len(out.complete_dominators)
    c["domination.classify.influence"] += influence


def _count_pdom(c, args, kwargs, out):
    c["domination.pdom_bounds_grid.leaf_triples"] += len(args[0]) * len(args[1]) * len(args[2])


def _count_expand(c, args, kwargs, out):
    plb, pub = args[0], args[1]
    rows, n = plb.shape
    c["genfunc.expand.rows"] += rows
    c["genfunc.expand.factors"] += rows * n
    c["genfunc.expand.cells"] += rows * (n + 1) ** 2 * n
    c["genfunc.expand.unresolved"] += int((plb < pub).sum())


def _count_idca(c, args, kwargs, out):
    c["idca.iterations"] += out.iterations_run
    c[f"idca.stop.{out.stop_reason}"] += 1


# (layer, module, attribute path, counter)
HOOKS = (
    ("geometry.dominance_grid", "udom.domination", "dominance_grid", _count_dominance),
    ("model.leaves", "udom.model", "DecompositionTree.leaves", None),
    ("model.split", "udom.model", "split", None),
    ("domination.classify", "udom.idca", "classify", _count_classify),
    ("domination.pdom_bounds_grid", "udom.idca", "pdom_bounds_grid", _count_pdom),
    ("genfunc.expand", "udom.idca", "_ugf_expand_batch", _count_expand),
    ("genfunc.extract", "udom.idca", "_extract_batch", None),
    ("idca", "udom.queries", "idca", _count_idca),
)
ROOT = "queries"


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []  # [query, name, parent index, start, end]
        self.counts: defaultdict = defaultdict(int)
        self.absent: list[str] = []
        self.counter_errors: set[str] = set()
        self.query = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.query, name, parent, time.perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][4] = time.perf_counter()

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    try:
                        counter(self.counts, args, kwargs, out)
                    except (AttributeError, IndexError, TypeError, ValueError):
                        self.counter_errors.add(name)
                return out
            finally:
                self._close()

        return traced

    def call(self, query_index, fn, *args, **kwargs):
        """Run one public API call as the root span of query `query_index`."""
        self.query = query_index
        return self.wrap(ROOT, fn)(*args, **kwargs)

    def install(self):
        for name, module, path, counter in self.hooks:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_times(self) -> dict:
        """Per layer name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (_, name, _, start, end), inner in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - inner
        return dict(out)
