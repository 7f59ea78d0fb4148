import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import generate_synthetic_loop, load_jsonl_pairs, save_dataset_jsonl_pairs

from udom import domination, model
from udom.model import (
    DatasetError,
    DecompositionTree,
    UncertainObject,
    build_object,
    generate_synthetic,
    load_dataset,
    save_dataset_jsonl,
    split,
)


def equal_weight(points):
    return [(p, 1.0) for p in points]


def segments(front):
    """Per frontier node, the indices of its samples."""
    return [front.order[s:e] for s, e in zip(front.start[:-1], front.start[1:])]


def recursive_frontier(points, weights, depth):
    """Reference recursive splitter (the former per-node Partition tree).

    Returns (lo, hi, mass, sample indices) per frontier node, left to right.
    """

    def visit(idx, level):
        pts, w = points[idx], weights[idx]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        if level >= depth or (lo == hi).all():
            return [(lo, hi, w.sum(), idx)]
        order = np.argsort(pts[:, int(np.argmax(hi - lo))], kind="stable")
        cum = np.cumsum(w[order])
        n_left = int(np.searchsorted(cum, w.sum() / 2.0)) + 1
        n_left = min(max(n_left, 1), len(order) - 1)
        return visit(idx[order[:n_left]], level + 1) + visit(idx[order[n_left:]], level + 1)

    return visit(np.arange(len(weights)), 1)


def test_build_single_sample_normalises():
    obj = build_object("a", [((1.0, 2.0), 5.0)])
    assert obj.weights[0] == 1.0
    assert (obj.mbr.lo == [1.0, 2.0]).all() and (obj.mbr.hi == [1.0, 2.0]).all()


def test_build_four_corner_samples():
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    obj = build_object("sq", equal_weight(corners))
    assert (obj.mbr.lo == [0.0, 0.0]).all() and (obj.mbr.hi == [1.0, 1.0]).all()
    root = DecompositionTree([obj]).leaves(1)
    assert len(root) == 1 and root.mass[0] == 1.0
    assert (root.lo[0] == obj.mbr.lo).all() and (root.hi[0] == obj.mbr.hi).all()


def test_constructor_does_not_freeze_caller_arrays():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    wts = np.array([0.5, 0.5])
    obj = UncertainObject("x", pts, wts)
    pts[0, 0] = 9.0  # caller's array must stay writable and detached
    assert obj.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        obj.points[0, 0] = 5.0


def test_build_errors():
    with pytest.raises(ValueError):
        build_object("x", [])
    with pytest.raises(ValueError):
        build_object("x", [((np.nan, 0.0), 1.0)])
    with pytest.raises(ValueError):
        build_object("x", [((0.0, 0.0), 0.0)])
    with pytest.raises(ValueError):
        build_object("x", [((0.0, 0.0), -2.0)])
    # Each weight is finite, but their sum overflows.
    with pytest.raises(ValueError, match="finite sum"):
        build_object("x", [((0.0, 0.0), 1e308), ((0.1, 0.0), 1e308)])


def test_samples_without_coordinates_are_refused_as_a_sample_array(tmp_path):
    with pytest.raises(ValueError, match=r"need a non-empty \(n, d\) sample array"):
        UncertainObject(0, np.zeros((3, 0)), np.ones(3))
    path = tmp_path / "nodims.jsonl"
    path.write_text('{"id": "a", "samples": [[1.0]]}\n')
    with pytest.raises(DatasetError, match=r"line 1: need a non-empty \(n, d\) sample array"):
        load_dataset(path)


def object_bytes(obj):
    return obj.id, obj.points.tobytes(), obj.weights.tobytes(), obj.mbr.lo.tobytes(), obj.mbr.hi.tobytes()


def assert_read_only(objects):
    for obj in objects:
        for a in (obj.points, obj.weights, obj.mbr.lo, obj.mbr.hi):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


def ragged_samples(rng, sizes, d=2):
    """Samples of objects with the given sample counts: (points, weights, start),
    the weights non-dyadic (their sums round)."""
    start = np.concatenate([[0], np.cumsum(sizes)])
    return rng.uniform(-1.0, 1.0, size=(start[-1], d)), rng.integers(1, 10, size=start[-1]) / 7.0, start


def test_batch_constructor_equals_one_object_at_a_time(rng):
    sizes = np.concatenate([[2, 40], rng.integers(1, 41, size=58)])
    points, weights, start = ragged_samples(rng, sizes)
    weights[:2] = 3e307, 1e307  # below 8.9e307 / 2 each, though not below 8.9e307 / 40
    batch = UncertainObject._batch(range(sizes.size), points, weights, start)
    assert_read_only(batch)
    for i, (obj, a, b) in enumerate(zip(batch, start[:-1], start[1:])):
        alone = UncertainObject(i, points[a:b], weights[a:b])
        assert object_bytes(obj) == object_bytes(alone)
        # Both normalise by the object's own weight sum and take its own MBR.
        assert alone.weights.tobytes() == (weights[a:b] / weights[a:b].sum()).tobytes()
        assert alone.mbr.lo.tobytes() == points[a:b].min(axis=0).tobytes()
        assert alone.mbr.hi.tobytes() == points[a:b].max(axis=0).tobytes()
    assert all(obj.points.base is points for obj in batch)  # views, not copies


def _nan_coordinate(points, weights, a, b):
    points[a, 0] = np.nan


def _inf_coordinate(points, weights, a, b):
    points[b - 1, 1] = -np.inf


def _zero_weight(points, weights, a, b):
    weights[a] = 0.0


def _negative_weight(points, weights, a, b):
    weights[b - 1] = -2.0


def _nan_weight(points, weights, a, b):
    weights[a] = np.nan


def _overflowing_sum(points, weights, a, b):
    weights[a:b] = 1e308


@pytest.mark.parametrize(
    "spoil",
    [_nan_coordinate, _inf_coordinate, _zero_weight, _negative_weight, _nan_weight, _overflowing_sum],
)
def test_batch_constructor_refuses_as_one_object_would(rng, spoil):
    sizes = np.array([5, 3, 2, 7])
    points, weights, start = ragged_samples(rng, sizes)
    spoil(points, weights, start[2], start[3])
    with pytest.raises(ValueError) as alone:
        UncertainObject(2, points[start[2] : start[3]], weights[start[2] : start[3]])
    with pytest.raises(ValueError) as batch:
        UncertainObject._batch(range(4), points, weights, start)
    assert str(batch.value) == str(alone.value)


def test_batch_constructor_refuses_empty_objects_and_missing_coordinates(rng):
    points, weights, start = ragged_samples(rng, np.array([4, 2, 3]))
    with pytest.raises(ValueError) as alone:
        UncertainObject(1, np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError) as batch:
        UncertainObject._batch(range(4), points, weights, np.insert(start, 2, start[1]))
    assert str(batch.value) == str(alone.value)
    with pytest.raises(ValueError) as alone:
        UncertainObject(1, np.zeros((2, 0)), weights[4:6])
    with pytest.raises(ValueError) as batch:
        UncertainObject._batch(range(3), points[:, :0], weights, start)
    assert str(batch.value) == str(alone.value)


def test_leaf_masses_sum_to_one_at_any_depth(rng):
    pts = rng.uniform(0, 1, size=(1000, 2))
    tree = DecompositionTree([build_object("u", equal_weight(pts))])
    for depth in (1, 2, 3, 5, 8):
        assert abs(tree.leaves(depth).mass.sum() - 1.0) < 1e-9


def test_split_four_on_a_line():
    obj = build_object("line", equal_weight([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]))
    tree = DecompositionTree([obj])
    order, (n_left,) = split(obj.points, obj.weights, tree.leaves(1))
    assert n_left == 2
    assert set(map(tuple, obj.points[order[:n_left]])) == {(0.0, 0.0), (1.0, 0.0)}
    assert set(map(tuple, obj.points[order[n_left:]])) == {(2.0, 0.0), (3.0, 0.0)}
    halves = tree.leaves(2)
    assert len(halves) == 2 and halves.mass.tolist() == pytest.approx([0.5, 0.5])
    assert [seg.tolist() for seg in segments(halves)] == [order[:2].tolist(), order[2:].tolist()]


def test_split_three_equal_weights():
    obj = build_object("tri", equal_weight([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))
    masses = sorted(DecompositionTree([obj]).leaves(2).mass.tolist())
    assert masses == pytest.approx([1 / 3, 2 / 3])


def test_split_unbalanced_weights_keeps_children_nonempty():
    obj = build_object("w", [((0.0, 0.0), 0.1), ((1.0, 0.0), 0.9)])
    tree = DecompositionTree([obj])
    order, (n_left,) = split(obj.points, obj.weights, tree.leaves(1))
    assert n_left == 1 and order.tolist() == [0, 1]
    assert tree.leaves(2).mass.tolist() == pytest.approx([0.1, 0.9])


def test_coincident_root_stays_atomic():
    tree = DecompositionTree([build_object("c", equal_weight([(1.0, 1.0), (1.0, 1.0)]))])
    root = tree.leaves(1)
    assert root.atomic.all()
    for depth in (1, 2, 3, 6):
        front = tree.leaves(depth)
        assert front is root and len(front) == 1 and front.mass[0] == 1.0
        assert front.order.tolist() == [0, 1] and front.start.tolist() == [0, 2]


def test_deepen_splits_along_widest_side():
    obj = build_object("tall", equal_weight([(0.0, 0.0), (0.0, 10.0), (1.0, 4.0), (1.0, 6.0)]))
    # The root is 1 wide and 10 tall, so its children separate in y.
    low, high = segments(DecompositionTree([obj]).leaves(2))
    assert obj.points[low, 1].max() <= obj.points[high, 1].min()
    assert sorted(obj.points[low, 1].tolist()) == [0.0, 4.0]


def test_deepen_tie_for_widest_side_takes_first_axis():
    obj = build_object("square", equal_weight([(0.0, 3.0), (1.0, 0.0), (2.0, 2.0), (3.0, 1.0)]))
    # Both sides are 3 wide: argmax picks x, so the children separate in x.
    low, high = segments(DecompositionTree([obj]).leaves(2))
    assert sorted(obj.points[low, 0].tolist()) == [0.0, 1.0]
    assert sorted(obj.points[high, 0].tolist()) == [2.0, 3.0]


def test_leaves_depth_one_is_root():
    tree = DecompositionTree([build_object("r", equal_weight([(0.0, 0.0), (1.0, 1.0)]))])
    root = tree.leaves(1)
    assert len(root) == 1 and root.order.tolist() == [0, 1] and root.start.tolist() == [0, 2]
    assert not root.atomic[0]


@pytest.mark.parametrize("depth", [0, 2.5, float("nan")])
def test_leaves_rejects_a_depth_that_is_not_a_count(depth):
    """A depth that is not an integer >= 1 raises ValueError and deepens
    nothing: the root level is still the newest."""
    tree = DecompositionTree([build_object("r", equal_weight([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]))])
    with pytest.raises(ValueError, match="depth"):
        tree.leaves(depth)
    assert len(tree.leaves(1)) == 1


def test_eight_samples_fully_separate_at_depth_four():
    pts = [(float(i), float(i % 3)) for i in range(8)]
    tree = DecompositionTree([build_object("e", equal_weight(pts))])
    assert not tree.leaves(3).atomic.all()
    leaves = tree.leaves(4)
    # The tree holds only its newest level: an older depth is gone.
    with pytest.raises(ValueError, match="below the newest level"):
        tree.leaves(3)
    assert len(leaves) == 8
    assert leaves.mass.tolist() == pytest.approx([1 / 8] * 8)
    assert leaves.atomic.all()
    # Idempotent beyond full separation, at any depth from the newest level on.
    assert tree.leaves(9) is leaves
    assert tree.leaves(5) is leaves


def test_frontier_partitions_sample_set(rng):
    pts = rng.uniform(0, 1, size=(37, 2))
    wts = rng.uniform(0.2, 1.0, size=37)
    obj = build_object("p", list(zip(pts, wts)))
    tree = DecompositionTree([obj])
    for depth in (2, 3, 4, 6):
        front = tree.leaves(depth)
        assert sorted(front.order.tolist()) == list(range(37))
        assert front.start[0] == 0 and front.start[-1] == 37
        assert (np.diff(front.start) > 0).all()
        for i, seg in enumerate(segments(front)):
            np.testing.assert_array_equal(front.lo[i], obj.points[seg].min(axis=0))
            np.testing.assert_array_equal(front.hi[i], obj.points[seg].max(axis=0))
            assert (obj.mbr.lo <= front.lo[i]).all() and (front.hi[i] <= obj.mbr.hi).all()
            np.testing.assert_allclose(front.mass[i], obj.weights[seg].sum())


def test_child_rects_nested_in_parents(rng):
    pts = rng.uniform(0, 1, size=(64, 2))
    tree = DecompositionTree([build_object("n", equal_weight(pts))])
    for depth in range(1, 8):
        parent, child = tree.leaves(depth), tree.leaves(depth + 1)
        up = np.searchsorted(parent.start, child.start[:-1], side="right") - 1
        assert (child.start[1:] <= parent.start[up + 1]).all()
        assert (parent.lo[up] <= child.lo).all() and (child.hi <= parent.hi[up]).all()
        # Every non-atomic parent has exactly two children, an atomic one itself.
        np.testing.assert_array_equal(np.bincount(up, minlength=len(parent)), 2 - parent.atomic)


def test_power_of_two_masses_match_half_rule(rng):
    """2^m equal-weight samples in general position give 0.5^(level-1) masses."""
    pts = rng.uniform(0, 1, size=(16, 2))
    tree = DecompositionTree([build_object("h", equal_weight(pts))])
    for depth in (2, 3, 4, 5):
        front = tree.leaves(depth)
        assert len(front) == 2 ** (depth - 1)
        assert front.mass.tolist() == pytest.approx([0.5 ** (depth - 1)] * len(front))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_frontiers_match_recursive_reference(rng, d):
    """Every level equals the recursive splitter's frontier bit for bit:
    same nodes in the same order, same lo/hi/mass and per-node samples."""
    for trial in range(40):
        n = int(rng.integers(1, 40))
        pts = rng.uniform(0, 1, size=(n, d))
        if trial % 2:
            pts = np.round(pts, 1)  # ties along the split axis
        if trial % 3 == 0:
            pts[:, -1] = 0.5  # a constant axis
        if trial % 5 == 0:
            pts[n // 2 :] = pts[0]  # coincident samples
        wts = rng.uniform(0.05, 1.0, size=n) if trial % 4 else np.ones(n)
        obj = build_object("f", list(zip(pts, wts)))
        tree = DecompositionTree([obj])
        depth, done = 1, False
        while not done:
            expected = recursive_frontier(obj.points, obj.weights, depth)
            front = tree.leaves(depth)
            assert len(front) == len(expected)
            for i, (lo, hi, mass, idx) in enumerate(expected):
                assert np.array_equal(front.lo[i], lo) and np.array_equal(front.hi[i], hi)
                assert front.mass[i] == mass
                assert np.array_equal(segments(front)[i], idx)
            done = bool(front.atomic.all())
            assert done == all((lo == hi).all() for lo, hi, _, _ in expected)
            depth += 1


@st.composite
def forest_objects(draw):
    """1..6 objects of one dimensionality 1..3: one sample, coincident
    samples, samples on a small integer grid (ties on every axis) or spread
    samples, each with equal or unequal weights."""
    d = draw(st.integers(1, 3))
    objs = []
    for i in range(draw(st.integers(1, 6))):
        shape = draw(st.sampled_from(("single", "coincident", "grid", "spread")))
        n = 1 if shape == "single" else draw(st.integers(2, 40))
        if shape == "coincident":
            pts = np.tile(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)), (n, 1))
        elif shape == "grid":
            pts = np.array(draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))).reshape(n, d)
        else:
            pts = np.array(draw(st.lists(st.floats(0, 1), min_size=n * d, max_size=n * d))).reshape(n, d)
        if draw(st.booleans()):
            wts = [1.0] * n
        else:
            wts = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        objs.append(build_object(i, list(zip(pts.astype(float), wts))))
    return objs


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(forest_objects())
def test_forest_levels_equal_each_object_alone(objs):
    """Every level of a forest holds, in the rows of each root, the
    recursive splitter's frontier of that object alone, byte for byte:
    lo, hi and mass, and the object's sample order and node starts.
    `take` of the roots in reverse order is those parts in that order."""
    forest = DecompositionTree(objs)
    offsets = np.cumsum([0] + [o.n_samples for o in objs])
    depth = 1
    while True:
        level = forest.leaves(depth)
        assert level.seg[0] == 0 and level.seg[-1] == len(level) and len(level.seg) == len(objs) + 1
        for j, obj in enumerate(objs):
            expected = recursive_frontier(obj.points, obj.weights, depth)
            part = level.take(np.array([j]))
            assert len(part) == len(expected) and part.seg.tolist() == [0, len(part)]
            assert part.lo.tobytes() == np.array([lo for lo, _, _, _ in expected]).tobytes()
            assert part.hi.tobytes() == np.array([hi for _, hi, _, _ in expected]).tobytes()
            assert part.mass.tobytes() == np.array([mass for _, _, mass, _ in expected]).tobytes()
            own = part.order - offsets[j]
            assert np.array_equal(own, np.concatenate([idx for _, _, _, idx in expected]))
            assert np.array_equal(part.start, np.cumsum([0] + [len(idx) for _, _, _, idx in expected]))
        parts = [level.take(np.array([j])) for j in reversed(range(len(objs)))]
        picked = level.take(np.arange(len(objs))[::-1])
        for name in ("lo", "hi", "mass", "order"):
            assert getattr(picked, name).tobytes() == np.concatenate([getattr(x, name) for x in parts]).tobytes()
        assert np.array_equal(picked.seg, np.cumsum([0] + [len(x) for x in parts]))
        assert np.array_equal(np.diff(picked.start), np.concatenate([np.diff(x.start) for x in parts]))
        if level.atomic.all():
            break
        depth += 1
    assert forest.leaves(depth + 3) is level


def test_generate_synthetic_shapes_and_bounds():
    db = generate_synthetic(50, d=2, max_extent=0.004, samples_per_object=20, seed=9)
    assert len(db) == 50
    for obj in db:
        assert obj.n_samples == 20 and obj.ndim == 2
        assert (obj.mbr.lo >= 0.0).all() and (obj.mbr.hi <= 1.004).all()
        assert (obj.mbr.hi - obj.mbr.lo <= 0.004 + 1e-12).all()


def test_generate_synthetic_deterministic(tmp_path):
    a = generate_synthetic(10, 2, 0.01, 5, seed=42)
    b = generate_synthetic(10, 2, 0.01, 5, seed=42)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.points, y.points)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset_jsonl(a, p1)
    save_dataset_jsonl(b, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("samples", [1, 3, 50])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_generate_synthetic_equals_per_object_draws(d, samples, seed):
    db = generate_synthetic(17, d, 0.3, samples, seed)
    expected = generate_synthetic_loop(17, d, 0.3, samples, seed)
    assert [object_bytes(o) for o in db] == [object_bytes(o) for o in expected]
    assert all(type(o.id) is int for o in db)
    assert_read_only(db)


@pytest.mark.parametrize("draw_floats", [1, 3 * (2 + 5) * 3])
def test_generate_synthetic_across_draw_chunks(monkeypatch, draw_floats):
    # 3 objects per draw (5 draws for 13 objects), or one object per draw.
    monkeypatch.setattr(model, "_DRAW_FLOATS", draw_floats)
    db = generate_synthetic(13, 3, 0.05, 5, seed=4)
    expected = generate_synthetic_loop(13, 3, 0.05, 5, seed=4)
    assert [object_bytes(o) for o in db] == [object_bytes(o) for o in expected]
    assert_read_only(db)


def test_generate_single_point_object():
    db = generate_synthetic(1, 2, 0.5, 1, seed=0)
    assert db[0].n_samples == 1 and (db[0].mbr.lo == db[0].mbr.hi).all()


def test_generate_validates():
    with pytest.raises(ValueError):
        generate_synthetic(0, 2, 0.004, 10)
    with pytest.raises(ValueError):
        generate_synthetic(5, 2, 1.5, 10)
    with pytest.raises(ValueError):
        generate_synthetic(5, 2, 0.0, 10)
    for n, d, samples in ((2.5, 2, 10), (5, 2.5, 10), (5, 2, 2.5), (True, 2, 10)):
        with pytest.raises(ValueError, match="must be an integer"):
            generate_synthetic(n, d, 0.004, samples)


def test_load_jsonl_roundtrip(tmp_path):
    path = tmp_path / "d.jsonl"
    row = {"id": "a", "samples": [[0.0, 0.0, 1 / 3], [1.0, 0.0, 1 / 3], [0.0, 1.0, 1 / 3]]}
    path.write_text(json.dumps(row) + "\n")
    (obj,) = load_dataset(path)
    assert obj.id == "a" and obj.n_samples == 3
    np.testing.assert_allclose(obj.weights, [1 / 3] * 3)

    out = tmp_path / "copy.jsonl"
    save_dataset_jsonl([obj], out)
    (again,) = load_dataset(out)
    np.testing.assert_allclose(again.points, obj.points)


def test_load_jsonl_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    for bad in ("not json", '{"id": "b", "samples": [[0, 0, 1e308], [0.1, 0, 1e308]]}'):
        path.write_text('{"id": "a", "samples": [[0, 0, 1]]}\n' + bad + "\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)


@pytest.mark.parametrize("sample", ["[true, 0.5, 1.0]", '["0.5", 0.5, 1.0]', "[0.5, 0.5, true]", "[0.5, null, 1.0]"])
def test_load_jsonl_refuses_sample_values_that_are_not_numbers(tmp_path, sample):
    """A JSON true, "0.5" or null is no coordinate or weight, though float()
    turns the first two into one: refused, naming the line and the value."""
    path = tmp_path / "types.jsonl"
    path.write_text('{"id": "a", "samples": [[0, 0, 1]]}\n{"id": "b", "samples": [' + sample + "]}\n")
    with pytest.raises(DatasetError, match=r"^line 2: sample value (true|null|\"0.5\") is not a number$"):
        load_dataset(path)


def test_load_jsonl_refuses_an_integer_past_the_float_range(tmp_path):
    """A JSON integer of 401 digits is a number no float holds: refused
    with its line, not raised as an OverflowError."""
    path = tmp_path / "big.jsonl"
    path.write_text('{"id": "a", "samples": [[1' + "0" * 400 + ", 0.5, 1.0]]}\n")
    with pytest.raises(DatasetError, match="^line 1: "):
        load_dataset(path)


def test_load_jsonl_dimension_mismatch(tmp_path):
    path = tmp_path / "dims.jsonl"
    path.write_text(
        '{"id": "a", "samples": [[0, 0, 1]]}\n{"id": "b", "samples": [[0, 0, 0, 1]]}\n'
    )
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)


def test_load_rejects_repeated_id(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"id": "a", "samples": [[1, 0, 1]]}\n{"id": "c", "samples": [[3, 0, 1]]}\n'
        '{"id": "a", "samples": [[2, 0, 1]]}\n'
    )
    with pytest.raises(DatasetError, match="line 3.*'a'.*line 1"):
        load_dataset(path)
    path.write_text('{"id": ["a"], "samples": [[1, 0, 1]]}\n')
    with pytest.raises(DatasetError, match="line 1"):
        load_dataset(path)
    csv_path = tmp_path / "dup.csv"
    csv_path.write_text("# id, x, y, sx, sy, n\na, 1, 0, 0, 0, 1\na, 2, 0, 0, 0, 1\n")
    with pytest.raises(DatasetError, match="line 3.*'a'.*line 2"):
        load_dataset(csv_path)


def test_load_rejects_ids_that_print_alike(tmp_path):
    """Answers and `--b`/`--q` name objects by the text of their ids, so an
    id whose str() repeats an earlier one is refused in either order,
    naming both lines; `1` against `1.0`, equal ids, stays refused."""
    path = tmp_path / "ids.jsonl"
    for first, second in (("1", '"1"'), ('"1"', "1"), ("1", "1.0"), ("1.0", "1")):
        path.write_text(f'{{"id": {first}, "samples": [[0, 0, 1]]}}\n{{"id": {second}, "samples": [[1, 0, 1]]}}\n')
        with pytest.raises(DatasetError, match="line 2: id .* repeats the id of line 1"):
            load_dataset(path)


def test_gaussian_csv_sigma_zero(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("a, 0.5, 0.5, 0, 0, 7\n")
    (obj,) = load_dataset(path, seed=1)
    assert obj.n_samples == 7
    np.testing.assert_array_equal(obj.points, np.full((7, 2), 0.5))


def test_gaussian_csv_reproducible_and_bounded(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("a, 0.0, 0.0, 0.1, 0.2, 500\n")
    (one,) = load_dataset(path, seed=5)
    (two,) = load_dataset(path, seed=5)
    np.testing.assert_array_equal(one.points, two.points)
    assert (np.abs(one.points[:, 0]) <= 0.3 + 1e-12).all()
    assert (np.abs(one.points[:, 1]) <= 0.6 + 1e-12).all()
    (three,) = load_dataset(path, seed=6)
    assert not np.array_equal(one.points, three.points)


def test_gaussian_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a, 0.5, 0.5, 0.1, 3\n")  # sigma column missing
    with pytest.raises(DatasetError, match="line 1"):
        load_dataset(path)
    path.write_text("a, 0.5, 0.5, 0.1, 0.1, 0\n")
    with pytest.raises(DatasetError, match="nsamples"):
        load_dataset(path)
    for row in ("b,nan,0.5,0.1,0.1,4", "b,0.5,0.5,inf,0.1,4", "b,0.5,-inf,0.1,0.1,4"):
        path.write_text("a, 0.5, 0.5, 0.1, 0.1, 4\n" + row + "\n")
        with pytest.raises(DatasetError, match="line 2: mean and sigma must be finite"):
            load_dataset(path)
    # Finite sigmas whose drawn samples overflow.
    path.write_text("a, 0, 0, 0.1, 0.1, 5\nb, 0, 0, 1e308, 1e308, 50\n")
    with pytest.raises(DatasetError, match="line 2: sample coordinates must be finite"):
        load_dataset(path)


def test_gaussian_csv_empty_cell_is_an_error(tmp_path):
    """An empty cell inside a row is a missing value: it must not shift the
    columns after it (the row below would read as a 1-D object with mean 0.4
    and sigma 0.1).  Only trailing empty cells, as a trailing comma leaves,
    are dropped."""
    gap, valid = "b,0.4,,0.1,,10", "a,0.5,0.5,0.1,0.1,10"
    path = tmp_path / "gap.csv"
    for rows, line in (([gap], 1), ([gap, valid], 1), ([valid, gap], 2)):
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match=f"^line {line}: column 3 is empty$"):
            load_dataset(path)
    path.write_text(valid + ",\n" + "c, 0.2, 0.2, 0, 0, 3, ,\n")
    a, c = load_dataset(path)
    assert (a.id, a.ndim, a.n_samples) == ("a", 2, 10)
    assert (c.id, c.ndim, c.n_samples) == ("c", 2, 3)


def test_load_format_follows_file_name(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text('{"id": "a", "samples": [[0.5, 0.5, 1]]}\n')
    (obj,) = load_dataset(path)
    assert obj.id == "a" and obj.n_samples == 1
    # The format is no parameter: a stale positional one must not bind to `seed`.
    with pytest.raises(TypeError):
        load_dataset(path, "gaussian-csv")


def test_empty_dataset(tmp_path):
    for name, text in (("e.jsonl", "\n"), ("e.csv", "# id, x, sx, n\n\n,,\n")):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DatasetError, match="^dataset is empty$"):
            load_dataset(path)


# ---------------------------------------------------------------------------
# Dataset files: one line loop for both formats, one array per jsonl object
# ---------------------------------------------------------------------------


def loaded_bytes(obj):
    """Everything a loaded object holds: its id (with its type), sample and
    weight bytes, MBR bounds and which arrays are writeable."""
    arrays = (obj.points, obj.weights, obj.mbr.lo, obj.mbr.hi)
    return (type(obj.id), *object_bytes(obj), tuple(a.flags.writeable for a in arrays))


def jsonl_line(obj_id, points, weights):
    return json.dumps({"id": obj_id, "samples": [[*pt, w] for pt, w in zip(points.tolist(), weights.tolist())]})


def mixed_jsonl(rng):
    """Objects of 1 to 40 samples with non-dyadic weights and int, float and
    str ids, some of them in integer coordinates, and a blank line."""
    lines = []
    for i, s in enumerate(rng.integers(1, 41, size=30)):
        points = rng.uniform(-5.0, 5.0, size=(s, 3))
        if i % 5 == 0:
            points = np.round(points)  # written as JSON floats 1.0, read back alike
        obj_id = (i, float(i) + 0.5, f"obj-{i}")[i % 3]
        lines.append(jsonl_line(obj_id, points, rng.integers(1, 10, size=s) / 7.0))
        if i == 10:
            lines.append("")
    # Integer coordinates and weights, written as JSON integers.
    lines.append('{"id": "ints", "samples": [[1, -2, 3, 4], [9007199254740993, 0, 2, 1]]}')
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["generated", "mixed", "one-dimensional"])
def test_loader_and_writer_equal_the_pair_oracles_byte_for_byte(tmp_path, rng, kind):
    """The jsonl row becomes one (s, d + 1) array; the objects equal those
    of one (point, weight) pair per sample, and the writer's file equals
    the per-sample writer's."""
    path = tmp_path / "d.jsonl"
    if kind == "mixed":
        path.write_text(mixed_jsonl(rng))
    else:  # written from views of the generator's shared arrays
        save_dataset_jsonl(generate_synthetic(500, 2 if kind == "generated" else 1, 0.05, 12, seed=7), path)
    loaded, expected = load_dataset(path), load_jsonl_pairs(path)
    assert [loaded_bytes(o) for o in loaded] == [loaded_bytes(o) for o in expected]
    assert_read_only(loaded)
    ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
    save_dataset_jsonl(loaded, ours)
    save_dataset_jsonl_pairs(expected, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    if kind != "mixed":
        assert ours.read_bytes() == path.read_bytes()


def test_gaussian_csv_objects_are_the_row_draws_in_file_order(tmp_path):
    """Comment, blank and trailing-comma rows go through the shared loop;
    each object is its row's draw from the one seeded generator."""
    path = tmp_path / "g.csv"
    path.write_text("# id, x, y, sx, sy, n\na, 0.5, 0.5, 0.1, 0.2, 7,\n\nb, 0.1, 0.9, 0.05, 0, 3\n")
    rng = np.random.default_rng(3)
    expected = []
    for obj_id, mean, sigma, s in (("a", [0.5, 0.5], [0.1, 0.2], 7), ("b", [0.1, 0.9], [0.05, 0.0], 3)):
        points = model._gaussian_cloud(rng, np.array(mean), np.array(sigma), s)
        expected.append(UncertainObject(obj_id, points, np.full(s, 1.0 / s)))
    loaded = load_dataset(path, seed=3)
    assert [loaded_bytes(o) for o in loaded] == [loaded_bytes(o) for o in expected]


VALID = '{"id": "a", "samples": [[0, 0, 1]]}'

# One fault per jsonl line (two in the last two); each is read as line 3, below a valid line and a blank one.
JSONL_FAULTS = [
    "not json",
    '{"id": "b"',
    "[1, 2]",
    '"text"',
    "5",
    "null",
    '{"samples": [[0, 0, 1]]}',
    '{"id": "b"}',
    '{"id": ["b"], "samples": [[0, 0, 1]]}',
    '{"id": {"x": 1}, "samples": [[0, 0, 1]]}',
    '{"id": "b", "samples": 5}',
    '{"id": "b", "samples": null}',
    '{"id": "b", "samples": [0.5, 0.5]}',
    '{"id": "b", "samples": []}',
    '{"id": "b", "samples": ""}',
    '{"id": "b", "samples": {}}',
    '{"id": "b", "samples": "ab"}',
    '{"id": "b", "samples": [[true, 0.5, 1]]}',
    '{"id": "b", "samples": [["0.5", 0.5, 1]]}',
    '{"id": "b", "samples": [[0.5, null, 1]]}',
    '{"id": "b", "samples": [[[0.5], 0.5, 1]]}',
    '{"id": "b", "samples": [[1e400, 0.5, 1]]}',
    '{"id": "b", "samples": [[NaN, 0.5, 1]]}',
    '{"id": "b", "samples": [[1' + "0" * 400 + ', 0.5, 1]]}',
    '{"id": "b", "samples": [[0.5, 0.5, 1' + "0" * 400 + ']]}',
    '{"id": "b", "samples": [[0.5, 0.5, 0]]}',
    '{"id": "b", "samples": [[0.5, 0.5, -1]]}',
    '{"id": "b", "samples": [[0.5, 0.5, NaN]]}',
    '{"id": "b", "samples": [[0, 0, 1e308], [0.1, 0, 1e308]]}',
    '{"id": "b", "samples": [[1.0]]}',
    '{"id": "b", "samples": [[0.5, 0.5, 0.5, 1]]}',
    '{"id": "a", "samples": [[0.5, 0.5, 1]]}',
    # Two faults: the first one met in sample order is the one named.
    '{"id": "b", "samples": [[true, 0.5, 1], 5]}',
    '{"id": "b", "samples": [[0.5, 0.5, 1], 5, [true]]}',
]

# Ragged and empty sample entries showed list or numpy internals; they now state the fault.
JSONL_STATED = [
    ('{"id": "b", "samples": [[0.1, 0.2, 1], [0.3, 1]]}', "line 3: sample 2 has 2 values, sample 1 has 3"),
    ('{"id": "b", "samples": [[0.1, 0.2, 1], [0.3, 0.4, 0.5, 1]]}', "line 3: sample 2 has 4 values, sample 1 has 3"),
    ('{"id": "b", "samples": [[]]}', "line 3: sample 1 is empty"),
    ('{"id": "b", "samples": [[0.1, 0.2, 1], []]}', "line 3: sample 2 is empty"),
    ('{"id": "b", "samples": [""]}', "line 3: sample 1 is empty"),
    ('{"id": "b", "samples": [{}]}', "line 3: sample 1 is empty"),
    ('{"id": "b", "samples": {"": 1}}', "line 3: sample 1 is empty"),
]

# One fault per gaussian-csv row, read as line 4 below a comment row, a valid row and a blank one.
CSV_FAULTS = [
    ("b,0.5,,0.1,,10", "line 4: column 3 is empty"),
    ("b,0.5,0.5,0.1,3", "line 4: expected columns id, x1..xd, sigma1..sigmad, nsamples"),
    ("b,0.5", "line 4: expected columns id, x1..xd, sigma1..sigmad, nsamples"),
    ("b", "line 4: expected columns id, x1..xd, sigma1..sigmad, nsamples"),
    ("b,x,0.5,0.1,0.1,4", "line 4: could not convert string to float: 'x'"),
    ("b,0.5,0.5,0.1,0.1,1.5", "line 4: invalid literal for int() with base 10: '1.5'"),
    ("b,nan,0.5,0.1,0.1,4", "line 4: mean and sigma must be finite"),
    ("b,0.5,0.5,-0.1,0.1,4", "line 4: sigma must be >= 0"),
    ("b,0.5,0.5,0.1,0.1,0", "line 4: nsamples must be >= 1"),
    ("b,0,0,1e308,1e308,50", "line 4: sample coordinates must be finite"),
    ("a,0.5,0.5,0.1,0.1,4", "line 4: id 'a' repeats the id of line 2"),
    ("b,0.5,0.1,3", "line 4: dimensionality 1 differs from previous objects (2)"),
]


def load_error(path, load=load_dataset) -> str:
    with pytest.raises(DatasetError) as info:
        load(path)
    return str(info.value)


@pytest.mark.parametrize("fault", JSONL_FAULTS)
def test_jsonl_faults_read_as_the_pair_reader_reads_them(tmp_path, fault):
    path = tmp_path / "bad.jsonl"
    path.write_text(VALID + "\n\n" + fault + "\n" + VALID.replace('"a"', '"z"') + "\n")
    message = load_error(path)
    assert message.startswith("line 3: ")
    assert message == load_error(path, load_jsonl_pairs)


@pytest.mark.parametrize("fault, message", JSONL_STATED)
def test_ragged_and_empty_sample_entries_are_stated(tmp_path, fault, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(VALID + "\n\n" + fault + "\n")
    assert load_error(path) == message
    assert load_error(path, load_jsonl_pairs) != message


@pytest.mark.parametrize("fault, message", CSV_FAULTS)
def test_gaussian_csv_faults_name_their_line(tmp_path, fault, message):
    path = tmp_path / "bad.csv"
    path.write_text("# id, x, y, sx, sy, n\na, 0.5, 0.5, 0.1, 0.1, 4\n\n" + fault + "\n")
    assert load_error(path) == message


def test_a_sample_count_that_cannot_be_allocated_names_its_line(tmp_path, monkeypatch):
    """numpy raises MemoryError for an array it cannot allocate; the row's
    line is named, as for any other fault.  The draw is patched: a real
    oversized request fails at once or not depending on the host.  The
    count is under the sample cap, so the draw is reached."""

    def refuse(rng, mean, sigma, n):
        raise MemoryError(f"Unable to allocate an array with shape ({n}, {mean.size})")

    monkeypatch.setattr(model, "_gaussian_cloud", refuse)
    path = tmp_path / "big.csv"
    path.write_text("# a comment\n\na,0.5,0.5,0.1,0.1,1000000\n")
    assert load_error(path) == "line 3: Unable to allocate an array with shape (1000000, 2)"


def test_a_sample_count_over_the_cap_is_refused_before_any_draw(tmp_path, monkeypatch):
    """A gaussian-csv nsamples, or a generated n * samples, whose sample
    array would exceed `_BATCH_FLOAT_BUDGET` floats is refused with a stated
    message (naming its line in a file) before anything is drawn; one at the
    cap goes on to its draw.  The draws are patched to raise, so nothing is
    allocated either way."""
    cap = domination._BATCH_FLOAT_BUDGET

    def reached(*args):
        raise MemoryError("draw reached")

    monkeypatch.setattr(model, "_gaussian_cloud", reached)
    monkeypatch.setattr(model, "_synthetic_samples", reached)
    path = tmp_path / "big.csv"
    for d, nsamples in ((2, cap // 2 + 1), (1, cap + 1), (3, 10**12)):
        path.write_text("# a comment\n\nb," + "0.5," * d + "0.1," * d + f"{nsamples}\n")
        assert load_error(path) == f"line 3: nsamples * d is {nsamples * d} sample floats, more than the {cap} one sample array may hold"
    for d, nsamples in ((2, cap // 2), (1, cap)):
        path.write_text("b," + "0.5," * d + "0.1," * d + f"{nsamples}\n")
        assert load_error(path) == "line 1: draw reached"
    for n, d, samples in ((cap // 2 + 1, 2, 1), (10, 2, 10**12), (1, 1, cap + 1)):
        with pytest.raises(ValueError) as info:
            generate_synthetic(n, d, 0.004, samples)
        assert str(info.value) == f"n * samples_per_object * d is {n * samples * d} sample floats, more than the {cap} one sample array may hold"
    for n, d, samples in ((cap // 2, 2, 1), (1, 1, cap)):
        with pytest.raises(MemoryError, match="draw reached"):
            generate_synthetic(n, d, 0.004, samples)
