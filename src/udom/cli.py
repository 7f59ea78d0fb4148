"""Command-line surface: ``udom generate|query|oracle|bench``.

A ``--config`` file of ``key = value`` lines (keys match the long flag names
with dashes or underscores) supplies defaults; explicit flags always win.
Each config value becomes the default of the flag it names, so argparse parses
and checks it exactly as it would the flag's own value.
Exit status is 0 on success, 2 on a bad flag or config value, and 1 on any
other error, with the message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from . import bench as bench_mod
from .idca import DEFAULT_MAX_DEPTH
from .model import (
    UncertainObject,
    build_object,
    generate_synthetic,
    load_dataset,
    save_dataset_jsonl,
)
from .oracle import enumerate_exact, mc_baseline
from .queries import expected_rank, inverse_ranking, pknn_query, prknn_query

__all__ = ["main"]

_ROLES = {"q": "query", "b": "target", "r": "reference"}


def load_config(path) -> dict:
    """Parse a flat key = value file into raw strings; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, raw = line.split("=", 1)
            out[key.strip().replace("-", "_")] = raw.strip().strip('"').strip("'")
    return out


# No leading underscore: argparse names the type in "invalid comma_ints value".
def comma_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(","))


def _leaf(subparsers, name, out_required=False, **kwargs):
    """A runnable subcommand; every one takes --seed and --out."""
    leaf = subparsers.add_parser(name, **kwargs)
    leaf.add_argument("--seed", type=int, default=0)
    leaf.add_argument("--out", required=out_required)
    return leaf


def _add_dataset_flags(parser, objects="", required=True):
    """The database (file, L_p norm) and the objects named against it."""
    parser.add_argument(
        "--dataset", required=required, help="a .csv name is read as gaussian-csv, any other as jsonl"
    )
    parser.add_argument("--p", type=float, default=2.0, help="L_p norm order")
    for name in objects:
        parser.add_argument(
            f"--{name}", required=True,
            help=f"{_ROLES[name]} object: a dataset id, or an external comma-separated point "
                 "('x,' in one dimension) or one-object jsonl file (external even when its "
                 "id matches a dataset id)",
        )


def _add_synthetic_flags(parser, n):
    parser.add_argument("--n", type=int, default=n)
    parser.add_argument("--dims", type=int, default=2)
    parser.add_argument("--max-extent", type=float, default=0.004)
    parser.add_argument("--samples", type=int, default=100)


def _add_engine_flags(parser):
    parser.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)


def _add_predicate_flags(parser, k):
    parser.add_argument("--k", type=int, default=k)
    parser.add_argument("--tau", type=float, default=0.5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udom",
        description="Probabilistic domination-count queries over uncertain objects",
    )
    parser.add_argument("--config", help="key = value file providing flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    g = _leaf(sub, "generate", out_required=True, help="write a synthetic jsonl dataset")
    _add_synthetic_flags(g, n=10_000)

    q = sub.add_parser("query", help="run a similarity query")
    qsub = q.add_subparsers(dest="query_kind", required=True)
    for kind, objects in (("knn", "q"), ("rknn", "q"), ("irank", "br"), ("erank", "q")):
        qq = _leaf(qsub, kind)
        _add_dataset_flags(qq, objects)
        _add_engine_flags(qq)
        qq.add_argument("--epsilon", type=float)
        qq.add_argument("--criterion", choices=("optimal", "minmax"), default="optimal")
        if kind in ("knn", "rknn"):
            _add_predicate_flags(qq, k=1)

    o = sub.add_parser("oracle", help="ground-truth engines")
    osub = o.add_subparsers(dest="oracle_kind", required=True)
    for kind, objects in (("exact", "br"), ("mc", "bq")):
        oo = _leaf(osub, kind)
        _add_dataset_flags(oo, objects)
        if kind == "mc":
            oo.add_argument("--sample-budget", type=int, default=1000)

    bn = sub.add_parser("bench", help="benchmark harness, emits CSV")
    bsub = bn.add_subparsers(dest="bench_kind", required=True)
    for kind in ("pruning", "runtime"):
        bb = _leaf(bsub, kind, out_required=True)
        _add_dataset_flags(bb, required=False)
        _add_synthetic_flags(bb, n=2000)
        _add_engine_flags(bb)
        bb.add_argument("--queries", type=int, default=20)
        bb.add_argument("--target-rank", type=int, default=10)
        if kind == "runtime":
            _add_predicate_flags(bb, k=10)
            bb.add_argument("--mc-samples", type=comma_ints, default="4,16,64")
            bb.add_argument("--mode", choices=("full", "predicate"), default="full")
    return parser


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _parsers(child)


def _apply_config(parser, cfg: dict) -> None:
    """Make each config value the default of every flag named by its key.

    argparse converts a string default with the flag's ``type`` only when the
    flag is not given, so a config value fails exactly as the flag would.
    """
    unknown = set(cfg)
    for each in _parsers(parser):
        for action in each._actions:
            # Neither --help nor a subcommand selector is a flag a value can stand in for.
            if not action.option_strings or action.default is argparse.SUPPRESS:
                continue
            if action.dest in cfg:
                value = cfg[action.dest]
                if action.choices is not None and value not in action.choices:
                    choices = ", ".join(action.choices)
                    parser.error(f"config {action.dest} = {value!r}: choose from {choices}")
                action.default, action.required = value, False
                unknown.discard(action.dest)
    if unknown:
        parser.error(f"config key(s) naming no flag: {', '.join(sorted(unknown))}")


def _resolve_object(spec, db: list[UncertainObject], label: str) -> UncertainObject:
    """Interpret an object spec as a point, a jsonl file, or a dataset id.

    A comma marks a point, so one trailing comma is dropped: ``0.5,`` is the
    one-dimensional point x = 0.5, while a bare ``0.5`` names an id.
    """
    if "," in spec:
        try:
            coords = [float(tok) for tok in spec.removesuffix(",").split(",")]
        except ValueError:
            coords = None
        if coords is not None:
            return build_object(f"<{label}>", [(coords, 1.0)])
    if os.path.exists(spec) and spec.endswith((".jsonl", ".json")):
        objs = load_dataset(spec)
        if len(objs) != 1:
            raise ValueError(f"--{label}: {spec} holds {len(objs)} objects, not one")
        return objs[0]
    for obj in db:
        if str(obj.id) == spec:
            return obj
    raise ValueError(f"--{label}: no object with id {spec!r} in the dataset")


def _engine_kwargs(args):
    return {
        "p": args.p,
        "max_depth": args.max_depth,
        "epsilon": args.epsilon,
        "criterion": args.criterion,
    }


def _emit(payload: dict, out: Optional[str]):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_generate(args) -> int:
    db = generate_synthetic(args.n, args.dims, args.max_extent, args.samples, args.seed)
    save_dataset_jsonl(db, args.out)
    print(f"wrote {len(db)} objects to {args.out}", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    db = load_dataset(args.dataset, seed=args.seed)
    kwargs = _engine_kwargs(args)
    if args.query_kind in ("knn", "rknn"):
        q = _resolve_object(args.q, db, "q")
        run = pknn_query if args.query_kind == "knn" else prknn_query
        answer = run(db, q, args.k, args.tau, **kwargs)
        payload = {
            "query": args.query_kind,
            "k": args.k,
            "tau": args.tau,
            "results": [str(i) for i in answer.result_ids],
            "undecided": [str(i) for i in answer.undecided_ids],
            "decisions": [
                {
                    "id": str(d.object_id),
                    "decision": d.decision,
                    "lb": d.lb,
                    "ub": d.ub,
                    "iterations": d.iterations,
                    "stop_reason": d.stop_reason,
                }
                for d in answer.decisions
            ],
        }
    elif args.query_kind == "irank":
        b = _resolve_object(args.b, db, "b")
        r = _resolve_object(args.r, db, "r")
        rank = inverse_ranking(db, b, r, **kwargs)
        payload = {
            "query": "irank",
            "b": str(b.id),
            "r": str(r.id),
            "ranks": [
                {"rank": int(i), "lb": float(l), "ub": float(u)}
                for i, l, u in zip(rank.ranks, rank.lb, rank.ub)
            ],
            "iterations": rank.result.iterations_run,
            "uncertainty_trace": rank.result.uncertainty_trace,
            "stop_reason": rank.result.stop_reason,
        }
    else:  # erank
        q = _resolve_object(args.q, db, "q")
        ranks = expected_rank(db, q, **kwargs)
        payload = {
            "query": "erank",
            "results": [{"id": str(i), "lb": lo, "ub": hi} for i, lo, hi in ranks],
        }
    _emit(payload, args.out)
    return 0


def _cmd_oracle(args) -> int:
    db = load_dataset(args.dataset, seed=args.seed)
    b = _resolve_object(args.b, db, "b")
    if args.oracle_kind == "exact":
        r = _resolve_object(args.r, db, "r")
        res = enumerate_exact(db, b, r, p=args.p)
    else:
        q = _resolve_object(args.q, db, "q")
        res = mc_baseline(db, b, q, samples=args.sample_budget, p=args.p, seed=args.seed)
    _emit({"pdf": [float(v) for v in res.pdf], "worlds": res.worlds, "note": res.note}, args.out)
    return 0


def _cmd_bench(args) -> int:
    # Flags whose BenchConfig field has another name; the rest match by name.
    renamed = {"samples": "samples_per_object", "dataset": "dataset_path",
               "queries": "repetitions"}
    values = {renamed.get(key, key): value for key, value in vars(args).items()}
    fields = {field.name for field in dataclasses.fields(bench_mod.BenchConfig)}
    config = bench_mod.BenchConfig(**{key: values[key] for key in fields & values.keys()})
    if args.bench_kind == "pruning":
        rows = bench_mod.bench_pruning(config)
        bench_mod.write_csv(rows, bench_mod.PRUNING_HEADER, args.out)
    else:
        rows = bench_mod.bench_runtime(config)
        bench_mod.write_csv(rows, bench_mod.RUNTIME_HEADER, args.out)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        cfg = load_config(known.config) if known.config else {}
    except (OSError, ValueError) as exc:
        print(f"udom: cannot read config: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    _apply_config(parser, cfg)
    args = parser.parse_args(argv)
    commands = {"generate": _cmd_generate, "query": _cmd_query,
                "oracle": _cmd_oracle, "bench": _cmd_bench}
    try:
        return commands[args.command](args)
    # MemoryError: a sample count or dataset too large to allocate.
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"udom: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
