import json

import numpy as np
import pytest

from udom.model import (
    DatasetError,
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
    assert obj.mbr.is_degenerate
    assert obj.mbr.contains_point([1.0, 2.0])


def test_build_four_corner_samples():
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    obj = build_object("sq", equal_weight(corners))
    assert (obj.mbr.lo == [0.0, 0.0]).all() and (obj.mbr.hi == [1.0, 1.0]).all()
    root = obj.leaves_at_depth(1)
    assert len(root) == 1 and root.mass[0] == 1.0
    assert (root.lo[0] == obj.mbr.lo).all() and (root.hi[0] == obj.mbr.hi).all()


def test_constructor_does_not_freeze_caller_arrays():
    from udom.model import UncertainObject

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


def test_leaf_masses_sum_to_one_at_any_depth(rng):
    pts = rng.uniform(0, 1, size=(1000, 2))
    obj = build_object("u", equal_weight(pts))
    for depth in (1, 2, 3, 5, 8):
        assert abs(obj.leaves_at_depth(depth).mass.sum() - 1.0) < 1e-9


def test_split_four_on_a_line():
    obj = build_object("line", equal_weight([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]))
    order, n_left = split(obj.points, obj.weights)
    assert n_left == 2
    assert set(map(tuple, obj.points[order[:n_left]])) == {(0.0, 0.0), (1.0, 0.0)}
    assert set(map(tuple, obj.points[order[n_left:]])) == {(2.0, 0.0), (3.0, 0.0)}
    halves = obj.leaves_at_depth(2)
    assert len(halves) == 2 and halves.mass.tolist() == pytest.approx([0.5, 0.5])
    assert [seg.tolist() for seg in segments(halves)] == [order[:2].tolist(), order[2:].tolist()]


def test_split_three_equal_weights():
    obj = build_object("tri", equal_weight([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))
    masses = sorted(obj.leaves_at_depth(2).mass.tolist())
    assert masses == pytest.approx([1 / 3, 2 / 3])


def test_split_unbalanced_weights_keeps_children_nonempty():
    obj = build_object("w", [((0.0, 0.0), 0.1), ((1.0, 0.0), 0.9)])
    order, n_left = split(obj.points, obj.weights)
    assert n_left == 1 and order.tolist() == [0, 1]
    assert obj.leaves_at_depth(2).mass.tolist() == pytest.approx([0.1, 0.9])


def test_coincident_root_stays_atomic():
    obj = build_object("c", equal_weight([(1.0, 1.0), (1.0, 1.0)]))
    for depth in (1, 2, 3, 6):
        front = obj.leaves_at_depth(depth)
        assert len(front) == 1 and front.atomic.all() and front.mass[0] == 1.0
        assert front.order.tolist() == [0, 1] and front.start.tolist() == [0, 2]
    assert obj.decomposition.fully_separated(1)


def test_split_axis_is_widest_side():
    pts = np.array([(0.0, 0.0), (0.0, 10.0), (1.0, 4.0), (1.0, 6.0)])
    order, n_left = split(pts, np.full(4, 0.25))
    # Split must be along dimension 1 (extent 10 vs 1): children separate in y.
    assert pts[order[:n_left], 1].max() <= pts[order[n_left:], 1].min()


def test_leaves_depth_one_is_root():
    obj = build_object("r", equal_weight([(0.0, 0.0), (1.0, 1.0)]))
    root = obj.leaves_at_depth(1)
    assert len(root) == 1 and root.order.tolist() == [0, 1] and root.start.tolist() == [0, 2]
    assert not root.atomic[0]
    with pytest.raises(ValueError):
        obj.leaves_at_depth(0)


def test_eight_samples_fully_separate_at_depth_four():
    pts = [(float(i), float(i % 3)) for i in range(8)]
    obj = build_object("e", equal_weight(pts))
    leaves = obj.leaves_at_depth(4)
    assert len(leaves) == 8
    assert leaves.mass.tolist() == pytest.approx([1 / 8] * 8)
    assert leaves.atomic.all()
    # Idempotent beyond full separation.
    assert obj.leaves_at_depth(9) is leaves
    assert obj.decomposition.fully_separated(4)
    assert not obj.decomposition.fully_separated(3)


def test_frontier_partitions_sample_set(rng):
    pts = rng.uniform(0, 1, size=(37, 2))
    wts = rng.uniform(0.2, 1.0, size=37)
    obj = build_object("p", list(zip(pts, wts)))
    for depth in (2, 3, 4, 6):
        front = obj.leaves_at_depth(depth)
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
    obj = build_object("n", equal_weight(pts))
    for depth in range(1, 8):
        parent, child = obj.leaves_at_depth(depth), obj.leaves_at_depth(depth + 1)
        up = np.searchsorted(parent.start, child.start[:-1], side="right") - 1
        assert (child.start[1:] <= parent.start[up + 1]).all()
        assert (parent.lo[up] <= child.lo).all() and (child.hi <= parent.hi[up]).all()
        # Every non-atomic parent has exactly two children, an atomic one itself.
        np.testing.assert_array_equal(np.bincount(up, minlength=len(parent)), 2 - parent.atomic)


def test_power_of_two_masses_match_half_rule(rng):
    """2^m equal-weight samples in general position give 0.5^(level-1) masses."""
    pts = rng.uniform(0, 1, size=(16, 2))
    obj = build_object("h", equal_weight(pts))
    for depth in (2, 3, 4, 5):
        front = obj.leaves_at_depth(depth)
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
        depth, done = 1, False
        while not done:
            expected = recursive_frontier(obj.points, obj.weights, depth)
            front = obj.leaves_at_depth(depth)
            assert len(front) == len(expected)
            for i, (lo, hi, mass, idx) in enumerate(expected):
                assert np.array_equal(front.lo[i], lo) and np.array_equal(front.hi[i], hi)
                assert front.mass[i] == mass
                assert np.array_equal(segments(front)[i], idx)
            done = obj.decomposition.fully_separated(depth)
            assert done == all((lo == hi).all() for lo, hi, _, _ in expected)
            depth += 1


def test_concurrent_lazy_deepening_is_consistent(rng):
    """Readers racing to deepen the same tree all see complete frontiers."""
    import sys
    import threading

    pts = rng.uniform(0, 1, size=(64, 2))
    obj = build_object("conc", equal_weight(pts))
    obj.decomposition  # materialise the tree before sharing it
    errors = []
    seen = {}

    def reader(depth):
        try:
            for _ in range(50):
                front = obj.leaves_at_depth(depth)
                if seen.setdefault(depth, front) is not front:
                    errors.append("frontier rebuilt")
                if abs(front.mass.sum() - 1.0) > 1e-9:
                    errors.append(front.mass.sum())
                if sorted(front.order.tolist()) != list(range(64)) or front.start[-1] != 64:
                    errors.append("bad partition")
        except Exception as exc:  # surface failures from worker threads
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(d,)) for d in (2, 4, 6, 7) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(obj.leaves_at_depth(7)) == 64


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


def test_generate_single_point_object():
    db = generate_synthetic(1, 2, 0.5, 1, seed=0)
    assert db[0].n_samples == 1 and db[0].mbr.is_degenerate


def test_generate_validates():
    with pytest.raises(ValueError):
        generate_synthetic(0, 2, 0.004, 10)
    with pytest.raises(ValueError):
        generate_synthetic(5, 2, 1.5, 10)
    with pytest.raises(ValueError):
        generate_synthetic(5, 2, 0.0, 10)


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
    path.write_text('{"id": "a", "samples": [[0, 0, 1]]}\nnot json\n')
    with pytest.raises(DatasetError, match="line 2"):
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


def test_gaussian_csv_sigma_zero(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("a, 0.5, 0.5, 0, 0, 7\n")
    (obj,) = load_dataset(path, "gaussian-csv", seed=1)
    assert obj.n_samples == 7
    np.testing.assert_array_equal(obj.points, np.full((7, 2), 0.5))


def test_gaussian_csv_reproducible_and_bounded(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("a, 0.0, 0.0, 0.1, 0.2, 500\n")
    (one,) = load_dataset(path, "gaussian-csv", seed=5)
    (two,) = load_dataset(path, "gaussian-csv", seed=5)
    np.testing.assert_array_equal(one.points, two.points)
    assert (np.abs(one.points[:, 0]) <= 0.3 + 1e-12).all()
    assert (np.abs(one.points[:, 1]) <= 0.6 + 1e-12).all()
    (three,) = load_dataset(path, "gaussian-csv", seed=6)
    assert not np.array_equal(one.points, three.points)


def test_gaussian_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a, 0.5, 0.5, 0.1, 3\n")  # sigma column missing
    with pytest.raises(DatasetError, match="line 1"):
        load_dataset(path, "gaussian-csv")
    path.write_text("a, 0.5, 0.5, 0.1, 0.1, 0\n")
    with pytest.raises(DatasetError, match="nsamples"):
        load_dataset(path, "gaussian-csv")
    for row in ("b,nan,0.5,0.1,0.1,4", "b,0.5,0.5,inf,0.1,4", "b,0.5,-inf,0.1,0.1,4"):
        path.write_text("a, 0.5, 0.5, 0.1, 0.1, 4\n" + row + "\n")
        with pytest.raises(DatasetError, match="line 2: mean and sigma must be finite"):
            load_dataset(path, "gaussian-csv")


def test_load_unknown_format(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("{}\n")
    with pytest.raises(ValueError):
        load_dataset(path, "parquet")


def test_empty_dataset(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text("\n")
    with pytest.raises(DatasetError):
        load_dataset(path)
