import csv
import json

import numpy as np
import pytest
from reference import select_query_pair_sorted

from udom.bench import (
    PRUNING_HEADER,
    RUNTIME_HEADER,
    BenchConfig,
    bench_pruning,
    bench_runtime,
    select_query_pair,
    write_csv,
)
from udom.cli import load_config, main
from udom.model import UncertainObject, build_object, generate_synthetic, load_dataset, save_dataset_jsonl


@pytest.fixture
def tiny_dataset(tmp_path):
    db = generate_synthetic(25, d=2, max_extent=0.08, samples_per_object=4, seed=11)
    path = tmp_path / "tiny.jsonl"
    save_dataset_jsonl(db, path)
    return path


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_generate_cli_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["generate", "--n", "12", "--dims", "2", "--max-extent", "0.01",
            "--samples", "3", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(load_dataset(out1)) == 12


def test_query_knn_cli(tiny_dataset, tmp_path):
    out = tmp_path / "answer.json"
    rc = main([
        "query", "knn", "--dataset", str(tiny_dataset), "--k", "2", "--tau", "0.5",
        "--q", "0.5,0.5", "--max-depth", "4", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["query"] == "knn" and payload["k"] == 2
    assert len(payload["decisions"]) == 25
    for entry in payload["decisions"]:
        assert entry["decision"] in ("in", "out", "undecided")
        assert entry["lb"] <= entry["ub"] + 1e-9
    assert set(payload["results"]) <= {e["id"] for e in payload["decisions"]}


def test_query_irank_cli_by_id(tiny_dataset, tmp_path):
    out = tmp_path / "rank.json"
    rc = main([
        "query", "irank", "--dataset", str(tiny_dataset), "--b", "3", "--r", "7",
        "--max-depth", "4", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["b"] == "3" and payload["r"] == "7"
    assert len(payload["ranks"]) == 25
    trace = payload["uncertainty_trace"]
    assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))


def test_query_erank_cli(tiny_dataset, capsys):
    rc = main(["query", "erank", "--dataset", str(tiny_dataset), "--q", "0.2,0.2",
               "--max-depth", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["results"]) == 25
    for row in payload["results"]:
        assert 1.0 - 1e-9 <= row["lb"] <= row["ub"] <= 25 + 1e-9


def test_oracle_cli(tmp_path, capsys):
    db = generate_synthetic(6, d=2, max_extent=0.3, samples_per_object=3, seed=4)
    path = tmp_path / "micro.jsonl"
    save_dataset_jsonl(db, path)
    rc = main(["oracle", "exact", "--dataset", str(path), "--b", "3", "--r", "0.5,0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(sum(payload["pdf"]) - 1.0) < 1e-9
    rc = main(["oracle", "mc", "--dataset", str(path), "--b", "3", "--q", "0.5,0.5",
               "--sample-budget", "50"])
    assert rc == 0


def test_oracle_cli_budget_error(tiny_dataset, capsys):
    rc = main(["oracle", "exact", "--dataset", str(tiny_dataset), "--b", "3", "--r", "0.5,0.5"])
    assert rc == 1
    assert "worlds" in capsys.readouterr().err


def test_query_rknn_cli_with_file_target(tiny_dataset, tmp_path, capsys):
    qfile = tmp_path / "qobj.jsonl"
    qfile.write_text(json.dumps({"id": "ext", "samples": [[0.5, 0.5, 0.6], [0.52, 0.5, 0.4]]}) + "\n")
    rc = main(["query", "rknn", "--dataset", str(tiny_dataset), "--k", "2", "--tau", "0.4",
               "--q", str(qfile), "--max-depth", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["query"] == "rknn"
    assert len(payload["decisions"]) == 25


def test_query_object_file_must_hold_one_object(tiny_dataset, tmp_path, capsys):
    qfile = tmp_path / "three.jsonl"
    save_dataset_jsonl(load_dataset(tiny_dataset)[:3], qfile)
    rc = main(["query", "knn", "--dataset", str(tiny_dataset), "--q", str(qfile)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("udom: ") and "--q" in err and "3 objects" in err


def test_query_one_dimensional_external_point(tmp_path, capsys):
    """A trailing comma marks a point, so `0.5,` is external in one dimension."""
    data = tmp_path / "one.jsonl"
    assert main(["generate", "--n", "6", "--dims", "1", "--samples", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(["query", "knn", "--dataset", str(data), "--q", "0.5,", "--k", "2", "--max-depth", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(e["id"] for e in payload["decisions"]) == [str(i) for i in range(6)]
    # Without the comma the spec stays an id lookup.
    assert main(["query", "knn", "--dataset", str(data), "--q", "0.5"]) == 1
    assert "no object with id '0.5'" in capsys.readouterr().err


def test_query_q_as_dataset_id_excluded(tiny_dataset, capsys):
    rc = main(["query", "knn", "--dataset", str(tiny_dataset), "--k", "1", "--tau", "0.5",
               "--q", "7", "--max-depth", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    ids = {e["id"] for e in payload["decisions"]}
    assert "7" not in ids and len(ids) == 24


def test_query_epsilon_flag(tiny_dataset, capsys):
    rc = main(["query", "knn", "--dataset", str(tiny_dataset), "--k", "2", "--tau", "0.5",
               "--q", "0.5,0.5", "--max-depth", "8", "--epsilon", "100.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # A huge epsilon stops every refinement after the first sweep.
    assert all(e["iterations"] == 1 for e in payload["decisions"])
    # A NaN epsilon would never fire; it is refused, not ignored.
    rc = main(["query", "knn", "--dataset", str(tiny_dataset), "--q", "0.5,0.5", "--epsilon", "nan"])
    assert rc == 1
    assert "epsilon" in capsys.readouterr().err


def test_cli_unknown_id_fails(tiny_dataset, capsys):
    rc = main(["query", "irank", "--dataset", str(tiny_dataset), "--b", "zzz", "--r", "1"])
    assert rc == 1
    assert "zzz" in capsys.readouterr().err


def test_cli_missing_dataset_fails(tmp_path, capsys):
    rc = main(["query", "erank", "--dataset", str(tmp_path / "missing.jsonl"), "--q", "0,0"])
    assert rc == 1


def test_cli_reports_an_allocation_that_fails(tmp_path, capsys, monkeypatch):
    """A sample count too large to allocate exits 1 with the message, for a
    loaded row (naming its line) and for a generated dataset.  numpy's
    MemoryError is patched in: a real oversized request fails at once or
    not depending on the host."""

    def refuse(*args):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr("udom.model._gaussian_cloud", refuse)
    monkeypatch.setattr("udom.cli.generate_synthetic", refuse)
    data = tmp_path / "big.csv"
    data.write_text("a,0.5,0.5,0.1,0.1,1000000\n")
    assert main(["query", "knn", "--dataset", str(data), "--q", "0.5,0.5", "--k", "1"]) == 1
    assert capsys.readouterr().err == "udom: line 1: Unable to allocate 14.6 TiB for an array\n"
    out = tmp_path / "x.jsonl"
    assert main(["generate", "--n", "10", "--samples", "1000000000000", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "udom: Unable to allocate 14.6 TiB for an array\n"
    assert not out.exists()


def test_cli_refuses_a_sample_count_over_the_cap(tmp_path, capsys, monkeypatch):
    """A sample count whose array would exceed the cap exits 1 with the
    stated message, for a loaded row (naming its line) and for a generated
    dataset, before any draw: the draws are patched to fail the test."""

    def reached(*args):
        raise AssertionError("a refused count reached its draw")

    monkeypatch.setattr("udom.model._gaussian_cloud", reached)
    monkeypatch.setattr("udom.model._synthetic_samples", reached)
    data = tmp_path / "big.csv"
    data.write_text("a,0.5,0.5,0.1,0.1,1000000000000\n")
    assert main(["query", "knn", "--dataset", str(data), "--q", "0.5,0.5", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "udom: line 1: nsamples * d is 2000000000000 sample floats, more than the 16777216 one sample array may hold\n"
    out = tmp_path / "x.jsonl"
    assert main(["generate", "--n", "10", "--samples", "1000000000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "udom: n * samples_per_object * d is 20000000000000 sample floats, more than the 16777216 one sample array may hold\n"
    assert not out.exists()


def test_config_file_defaults_and_override(tmp_path, tiny_dataset, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"dataset = {tiny_dataset}\nk = 3\ntau = 0.25\nmax-depth = 3\nq = 0.5,0.5\n"
    )
    rc = main(["--config", str(cfg), "query", "knn"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 3 and payload["tau"] == 0.25
    # Explicit flags win over config values.
    rc = main(["--config", str(cfg), "query", "knn", "--k", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["k"] == 1


def test_load_config_parses_types(tmp_path):
    """Values stay strings: each is typed by the flag it names, not by the file reader."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a = 3\nb = 0.5\nc = hello\nd = true\n# comment\ne-f = 7\n")
    parsed = load_config(cfg)
    assert parsed == {"a": "3", "b": "0.5", "c": "hello", "d": "true", "e_f": "7"}


def test_config_value_fails_like_its_flag(tmp_path, tiny_dataset, capsys, monkeypatch):
    """A bad config value ends in the flag's own argparse error: exit 2, no dataset work."""
    reads = []
    monkeypatch.setattr("udom.cli.load_dataset", lambda *a, **kw: reads.append(a) or [])
    monkeypatch.setattr("udom.cli.generate_synthetic", lambda *a, **kw: reads.append(a) or [])
    out = tmp_path / "x.jsonl"
    cfg = tmp_path / "c.cfg"
    query = ["query", "knn", "--dataset", str(tiny_dataset), "--q", "0.5,0.5"]
    for argv, key, value in ((["generate", "--out", str(out)], "n", "1e1"), (query, "k", "2.5")):
        cfg.write_text(f"{key} = {value}\n")
        errors = []
        for given in (["--config", str(cfg), *argv], [*argv, f"--{key}", value]):
            with pytest.raises(SystemExit) as exc:
                main(given)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            errors.append(err.splitlines()[-1])
        assert errors[0] == errors[1]
        assert f"argument --{key}: invalid int value: '{value}'" in errors[0]
    assert reads == [] and not out.exists()


def test_config_rejects_bad_choice_and_unknown_key(tmp_path, tiny_dataset, capsys):
    argv = ["query", "knn", "--dataset", str(tiny_dataset), "--q", "0.5,0.5"]
    cfg = tmp_path / "c.cfg"
    for line, named in (("criterion = fastest", "fastest"), ("max_dept = 2", "max_dept")):
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), *argv])
        assert exc.value.code != 0
        assert named in capsys.readouterr().err


def test_removed_knobs_are_rejected(tmp_path, tiny_dataset, capsys):
    """The pair and world budgets and the dataset format are no flags and no config keys."""
    query = ["query", "knn", "--dataset", str(tiny_dataset), "--q", "0.5,0.5"]
    exact = ["oracle", "exact", "--dataset", str(tiny_dataset), "--b", "0", "--r", "1"]
    cfg = tmp_path / "c.cfg"
    for argv, flag, value in ((query, "pair-budget", "5"), (exact, "world-budget", "5"),
                              (query, "format", "jsonl")):
        cfg.write_text(f"{flag} = {value}\n")
        for given, named in (([*argv, f"--{flag}", value], f"--{flag}"),
                             (["--config", str(cfg), *argv], flag.replace("-", "_"))):
            with pytest.raises(SystemExit) as exc:
                main(given)
            assert exc.value.code == 2, given
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err, err


def test_config_key_of_another_subcommand_is_allowed(tmp_path):
    """`k` names no generate flag, but it names a query flag, so a shared file stays valid."""
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "d.jsonl"
    cfg.write_text(f"k = 2.5\nn = 5\nsamples = 2\nout = {out}\n")
    assert main(["--config", str(cfg), "generate"]) == 0
    assert len(load_dataset(out)) == 5


def test_config_bad_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("just-a-word\n")
    with pytest.raises(ValueError, match="line 1"):
        load_config(cfg)
    # The CLI reports it as an error message, not a traceback.
    assert main(["--config", str(cfg), "generate", "--out", str(tmp_path / "x.jsonl")]) == 1
    assert "line 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def small_config(**over):
    base = dict(
        n=60,
        dims=2,
        max_extent=0.05,
        samples_per_object=4,
        seed=5,
        repetitions=3,
        target_rank=4,
        max_depth=5,
        mc_samples=(2, 4),
    )
    base.update(over)
    return BenchConfig(**base)


def test_select_query_pair_rule():
    db = generate_synthetic(30, 2, 0.01, 3, seed=2)
    rng = np.random.default_rng(0)
    target, ref = select_query_pair(db, rng, m=10)
    assert target is not ref
    from udom.geometry import rect_min_dist

    dists = sorted(rect_min_dist(o.mbr, ref.mbr) for o in db if o is not ref)
    assert rect_min_dist(target.mbr, ref.mbr) == pytest.approx(dists[9])
    # Rank 0 would index the farthest object.
    with pytest.raises(ValueError):
        select_query_pair(db, rng, m=0)
    # One object leaves no target beside the reference.
    for tiny in (db[:1], []):
        with pytest.raises(ValueError, match="at least two objects"):
            select_query_pair(tiny, rng, m=1)


def lattice_db(ids):
    """Unit boxes and points on an integer lattice: many exact MinDist ties
    to any reference, each object one of `ids`."""
    rng = np.random.default_rng(5)
    objects = []
    for i, obj_id in enumerate(ids):
        x, y = rng.integers(-4, 5, size=2).astype(float)
        wide = i % 3 == 0
        objects.append(UncertainObject(obj_id, np.array([[x, y], [x + wide, y + wide]]), np.ones(2)))
    return objects


@pytest.mark.parametrize(
    "ids",
    [
        list(range(60)),
        # Ids that print alike (1 and "1", 2.0 and "2.0") keep database order; "10" sorts before "9".
        [1, "1", 2.0, "2.0", "10", 9, "9 ", 10.0, *(f"o{i}" for i in range(52))],
    ],
)
def test_select_query_pair_equals_the_sort_by_rect_min_dist(ids):
    db = lattice_db(ids)
    for m in (1, 2, 3, 10, 50, len(db) - 1, len(db), len(db) + 5):
        rng_a, rng_b = np.random.default_rng(m), np.random.default_rng(m)
        for _ in range(8):
            target, ref = select_query_pair(db, rng_a, m)
            expected_target, expected_ref = select_query_pair_sorted(db, rng_b, m)
            assert target is expected_target and ref is expected_ref


def test_select_query_pair_equals_the_sort_on_generated_data():
    db = generate_synthetic(2000, 2, 0.004, 2, seed=1)
    for m in (1, 2, 10, 50, 1999, 2500):
        rng_a, rng_b = np.random.default_rng(m), np.random.default_rng(m)
        for _ in range(3):
            assert select_query_pair(db, rng_a, m) == select_query_pair_sorted(db, rng_b, m)


def test_select_query_pair_overflow_raises():
    """MinDists whose squares overflow are refused, not ranked as inf."""
    db = [build_object(i, [(xy, 1.0)]) for i, xy in enumerate([(1e154, 1.3e154), (1.5e154, 0.0), (0.0, 0.0)])]
    with pytest.raises(ValueError, match="overflow"):
        select_query_pair(db, np.random.default_rng(0), m=1)


def test_bench_pruning_rows(tmp_path):
    rows = bench_pruning(small_config())
    assert rows, "no rows produced"
    assert set(rows[0]) == set(PRUNING_HEADER)
    by_query = {}
    for row in rows:
        by_query.setdefault((row["query"], row["criterion"]), []).append(row)
    for (query, _), qrows in by_query.items():
        uncs = [float(r["uncertainty"]) for r in qrows]
        assert all(a >= b - 1e-9 for a, b in zip(uncs, uncs[1:]))
    for query in {r["query"] for r in rows}:
        opt = next(r for r in rows if r["query"] == query and r["criterion"] == "optimal")
        mm = next(r for r in rows if r["query"] == query and r["criterion"] == "minmax")
        assert int(opt["candidate_count"]) <= int(mm["candidate_count"])
    out = tmp_path / "prune.csv"
    write_csv(rows, PRUNING_HEADER, out)
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)


def test_bench_pruning_deterministic_rows():
    a = bench_pruning(small_config())
    b = bench_pruning(small_config())
    assert a == b


def test_bench_runtime_full_mode():
    rows = bench_runtime(small_config(repetitions=1))
    assert set(rows[0]) == set(RUNTIME_HEADER)
    methods = {r["method"] for r in rows}
    assert any(m.startswith("idca_iter_") for m in methods)
    assert "mc_2" in methods and "mc_4" in methods
    for row in rows:
        assert float(row["wall_time_s"]) >= 0.0


def test_bench_runtime_fills_every_mc_error_on_separable_data():
    """Objects of three samples weigh 1/3 each, a mass whose sums round.
    Every query separates fully within the depth cap, so every run pins its
    PDF exactly (uncertainty 0) and every MC row gets its error."""
    rows = bench_runtime(small_config(samples_per_object=3, repetitions=4, max_depth=12))
    errors = [r["uncertainty_or_error"] for r in rows if r["method"].startswith("mc_")]
    assert len(errors) == 8
    assert all(float(e) >= 0.0 for e in errors)


def test_bench_runtime_nontiming_columns_deterministic():
    def project(rows):
        return [
            (r["method"], r["query"], r["uncertainty_or_error"], r["decided_iteration"])
            for r in rows
        ]

    a = bench_runtime(small_config(repetitions=1))
    b = bench_runtime(small_config(repetitions=1))
    assert project(a) == project(b)


def test_bench_runtime_predicate_mode():
    rows = bench_runtime(small_config(repetitions=2, mode="predicate", k=3, tau=0.9))
    assert len(rows) == 2
    for row in rows:
        assert row["method"].startswith("idca_predicate")
        if row["decided_iteration"]:
            assert int(row["decided_iteration"]) <= 5


def test_bench_cli_end_to_end(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench", "pruning", "--n", "40", "--samples", "3", "--queries", "2",
        "--max-depth", "4", "--seed", "3", "--max-extent", "0.05", "--out", str(out),
    ])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == set(PRUNING_HEADER)


def test_bench_config_integer_fields():
    """Counts are integers: a float depth cap or draw count is rejected before
    any dataset work, and NumPy integers pass."""
    for bad in (
        dict(max_depth=float("nan")),
        dict(max_depth=float("inf")),
        dict(max_depth=2.5),
        dict(mc_samples=(4, 2.5)),
        dict(repetitions=1.5),
        dict(target_rank=2.0),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            BenchConfig(**bad)
    config = BenchConfig(max_depth=np.int64(3), mc_samples=(np.int32(4),), repetitions=np.int64(2))
    assert config.max_depth == 3


def test_bench_config_validation(tmp_path, capsys, monkeypatch):
    bad_configs = [
        dict(repetitions=0),
        dict(mode="fastest"),
        dict(target_rank=0),
        dict(max_depth=0),
        dict(mc_samples=(4, 0)),
        dict(mode="predicate", k=0),
        dict(mode="predicate", k=2.5),
        dict(mode="predicate", tau=1.5),
        dict(p=0.5),
        dict(p=float("nan")),
        dict(p=True),
        dict(p=np.True_),
        dict(mode="predicate", tau=True),
        dict(mode="predicate", tau=np.True_),
    ]
    for bad in bad_configs:
        with pytest.raises(ValueError):
            BenchConfig(**bad)

    out = tmp_path / "p.csv"
    common = ["--samples", "4", "--queries", "1", "--out", str(out)]
    # A one-object database leaves no target beside the reference.
    assert main(["bench", "pruning", "--n", "1", *common]) == 1
    assert capsys.readouterr().err.startswith("udom: ")
    assert not out.exists()

    # Bad settings fail before any dataset is generated or loaded.
    loads = []
    monkeypatch.setattr(BenchConfig, "load_db", lambda self: loads.append(self) or [])
    for argv in (
        ["pruning", "--target-rank", "0"],
        ["pruning", "--max-depth", "0"],
        ["runtime", "--mc-samples", "0"],
        ["runtime", "--mode", "predicate", "--k", "0"],
    ):
        assert main(["bench", *argv, "--n", "30", *common]) == 1, argv
        assert capsys.readouterr().err.startswith("udom: ")
        assert loads == [] and not out.exists()
