"""Shared generators for randomized tests.

Instances are kept tiny so the exhaustive possible-worlds oracle stays cheap;
every generator takes an explicit rng so failures reproduce from the seed.
"""

import numpy as np
import pytest

from udom import Rect, build_object


def make_rect(rng, d=2, span=4.0, max_side=1.5):
    lo = rng.uniform(-span, span, size=d)
    side = rng.uniform(0.0, max_side, size=d)
    return Rect(lo, lo + side)


def shrink_rect(rng, rect):
    """A random sub-rectangle (componentwise interval containment)."""
    u = rng.uniform(0.0, 1.0, size=(2, rect.ndim))
    width = rect.hi - rect.lo
    new_lo = rect.lo + u[0] * width * 0.5
    new_hi = rect.hi - u[1] * (rect.hi - new_lo) * 0.5
    return Rect(new_lo, np.maximum(new_hi, new_lo))


def random_boxes(rng, count, d, grid):
    """`count` boxes as (lo, hi) stacks: on an integer grid (exact distance
    ties, shared corners) or of float bounds; about a third of their sides,
    and every side of some boxes, of zero extent."""
    if grid:
        lo, side = rng.integers(-3, 4, size=(count, d)).astype(float), rng.integers(0, 3, size=(count, d)).astype(float)
    else:
        lo, side = rng.uniform(-1.0, 1.0, size=(count, d)), rng.uniform(0.0, 1.0, size=(count, d))
    side[rng.uniform(size=(count, d)) < 0.3] = 0.0
    side[rng.uniform(size=count) < 0.2] = 0.0
    return lo, lo + side


def random_object(rng, obj_id, d=2, max_samples=4, center=None, spread=1.0):
    n = int(rng.integers(1, max_samples + 1))
    if center is None:
        center = rng.uniform(0.0, 1.0, size=d)
    pts = center + rng.uniform(-spread / 2, spread / 2, size=(n, d))
    wts = rng.uniform(0.1, 1.0, size=n)
    return build_object(obj_id, list(zip(pts, wts)))


def random_instance(rng, n_objects=None, d=2, max_samples=4, spread=0.6):
    """A tiny database plus an uncertain reference object."""
    if n_objects is None:
        n_objects = int(rng.integers(3, 7))
    db = [random_object(rng, f"o{i}", d, max_samples, spread=spread) for i in range(n_objects)]
    b = db[int(rng.integers(0, n_objects))]
    r = random_object(rng, "ref", d, max_samples, spread=spread)
    return db, b, r


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
