"""Command-line surface: ``udom generate|query|oracle|bench``.

A ``--config`` file of ``key = value`` lines (keys match the long flag names
with dashes or underscores) supplies defaults; explicit flags always win.
Exit status is 0 on success and 1 on any error, with the message on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import bench as bench_mod
from .idca import DEFAULT_MAX_DEPTH, DEFAULT_PAIR_BUDGET
from .model import (
    UncertainObject,
    build_object,
    generate_synthetic,
    load_dataset,
    save_dataset_jsonl,
)
from .oracle import DEFAULT_WORLD_BUDGET, enumerate_exact, mc_baseline
from .queries import expected_rank, inverse_ranking, pknn_query, prknn_query

__all__ = ["main"]


def _parse_config_value(raw: str):
    raw = raw.strip().strip('"').strip("'")
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def load_config(path) -> dict:
    """Parse a flat key = value file; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, raw = line.split("=", 1)
            out[key.strip().replace("-", "_")] = _parse_config_value(raw)
    return out


def _add_engine_flags(parser, cfg):
    parser.add_argument("--max-depth", type=int, default=cfg.get("max_depth", DEFAULT_MAX_DEPTH))
    parser.add_argument("--epsilon", type=float, default=cfg.get("epsilon"))
    parser.add_argument("--pair-budget", type=int, default=cfg.get("pair_budget", DEFAULT_PAIR_BUDGET))
    parser.add_argument(
        "--criterion", choices=("optimal", "minmax"), default=cfg.get("criterion", "optimal")
    )
    parser.add_argument("--p", type=float, default=cfg.get("p", 2.0), help="L_p norm order")


def _add_dataset_flags(parser, cfg):
    parser.add_argument("--dataset", required="dataset" not in cfg, default=cfg.get("dataset"))
    parser.add_argument(
        "--format", choices=("jsonl", "gaussian-csv"), default=cfg.get("format")
    )
    parser.add_argument("--seed", type=int, default=cfg.get("seed", 0))


def build_parser(cfg: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udom",
        description="Probabilistic domination-count queries over uncertain objects",
    )
    parser.add_argument("--config", help="key = value file providing flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic jsonl dataset")
    g.add_argument("--n", type=int, default=cfg.get("n", 10_000))
    g.add_argument("--dims", type=int, default=cfg.get("dims", 2))
    g.add_argument("--max-extent", type=float, default=cfg.get("max_extent", 0.004))
    g.add_argument("--samples", type=int, default=cfg.get("samples", 100))
    g.add_argument("--seed", type=int, default=cfg.get("seed", 0))
    g.add_argument("--out", required="out" not in cfg, default=cfg.get("out"))

    q = sub.add_parser("query", help="run a similarity query")
    qsub = q.add_subparsers(dest="query_kind", required=True)
    for kind in ("knn", "rknn"):
        qq = qsub.add_parser(kind)
        _add_dataset_flags(qq, cfg)
        _add_engine_flags(qq, cfg)
        qq.add_argument("--k", type=int, default=cfg.get("k", 1))
        qq.add_argument("--tau", type=float, default=cfg.get("tau", 0.5))
        qq.add_argument("--q", required="q" not in cfg, default=cfg.get("q"),
                        help="query object: a dataset id, or an external comma-separated point "
                             "or jsonl file (external even when its id matches a dataset id)")
        qq.add_argument("--out")
    qi = qsub.add_parser("irank")
    _add_dataset_flags(qi, cfg)
    _add_engine_flags(qi, cfg)
    qi.add_argument("--b", required="b" not in cfg, default=cfg.get("b"), help="target object id")
    qi.add_argument("--r", required="r" not in cfg, default=cfg.get("r"),
                    help="reference object: id or comma-separated point")
    qi.add_argument("--out")
    qe = qsub.add_parser("erank")
    _add_dataset_flags(qe, cfg)
    _add_engine_flags(qe, cfg)
    qe.add_argument("--q", required="q" not in cfg, default=cfg.get("q"))
    qe.add_argument("--out")

    o = sub.add_parser("oracle", help="ground-truth engines")
    osub = o.add_subparsers(dest="oracle_kind", required=True)
    oe = osub.add_parser("exact")
    _add_dataset_flags(oe, cfg)
    oe.add_argument("--b", required="b" not in cfg, default=cfg.get("b"))
    oe.add_argument("--r", required="r" not in cfg, default=cfg.get("r"))
    oe.add_argument("--p", type=float, default=cfg.get("p", 2.0))
    oe.add_argument("--world-budget", type=int, default=cfg.get("world_budget", DEFAULT_WORLD_BUDGET))
    oe.add_argument("--out")
    om = osub.add_parser("mc")
    _add_dataset_flags(om, cfg)
    om.add_argument("--b", required="b" not in cfg, default=cfg.get("b"))
    om.add_argument("--q", required="q" not in cfg, default=cfg.get("q"))
    om.add_argument("--p", type=float, default=cfg.get("p", 2.0))
    om.add_argument("--sample-budget", type=int, default=cfg.get("sample_budget", 1000))
    om.add_argument("--out")

    bn = sub.add_parser("bench", help="benchmark harness, emits CSV")
    bsub = bn.add_subparsers(dest="bench_kind", required=True)
    for kind in ("pruning", "runtime"):
        bb = bsub.add_parser(kind)
        bb.add_argument("--dataset", default=cfg.get("dataset"))
        bb.add_argument("--format", choices=("jsonl", "gaussian-csv"), default=cfg.get("format"))
        bb.add_argument("--n", type=int, default=cfg.get("n", 2000))
        bb.add_argument("--dims", type=int, default=cfg.get("dims", 2))
        bb.add_argument("--max-extent", type=float, default=cfg.get("max_extent", 0.004))
        bb.add_argument("--samples", type=int, default=cfg.get("samples", 100))
        bb.add_argument("--seed", type=int, default=cfg.get("seed", 0))
        bb.add_argument("--queries", type=int, default=cfg.get("queries", 20))
        bb.add_argument("--target-rank", type=int, default=cfg.get("target_rank", 10))
        bb.add_argument("--max-depth", type=int, default=cfg.get("max_depth", DEFAULT_MAX_DEPTH))
        bb.add_argument("--pair-budget", type=int, default=cfg.get("pair_budget", DEFAULT_PAIR_BUDGET))
        bb.add_argument("--p", type=float, default=cfg.get("p", 2.0))
        bb.add_argument("--out", required="out" not in cfg, default=cfg.get("out"))
        if kind == "runtime":
            bb.add_argument("--mc-samples", default=cfg.get("mc_samples", "4,16,64"))
            bb.add_argument("--mode", choices=("full", "predicate"), default=cfg.get("mode", "full"))
            bb.add_argument("--k", type=int, default=cfg.get("k", 10))
            bb.add_argument("--tau", type=float, default=cfg.get("tau", 0.5))
    return parser


def _resolve_object(spec, db: list[UncertainObject], label: str) -> UncertainObject:
    """Interpret an object spec as a point, a jsonl file, or a dataset id."""
    spec = str(spec)
    if "," in spec:
        try:
            coords = [float(tok) for tok in spec.split(",")]
        except ValueError:
            coords = None
        if coords is not None:
            return build_object(f"<{label}>", [(coords, 1.0)])
    if os.path.exists(spec) and spec.endswith((".jsonl", ".json")):
        return load_dataset(spec, "jsonl")[0]
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
        "pair_budget": args.pair_budget,
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
    db = load_dataset(args.dataset, args.format, seed=args.seed)
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
    db = load_dataset(args.dataset, args.format, seed=args.seed)
    b = _resolve_object(args.b, db, "b")
    if args.oracle_kind == "exact":
        r = _resolve_object(args.r, db, "r")
        res = enumerate_exact(db, b, r, p=args.p, world_budget=args.world_budget)
    else:
        q = _resolve_object(args.q, db, "q")
        res = mc_baseline(db, b, q, samples=args.sample_budget, p=args.p, seed=args.seed)
    _emit({"pdf": [float(v) for v in res.pdf], "worlds": res.worlds, "note": res.note}, args.out)
    return 0


def _cmd_bench(args) -> int:
    config = bench_mod.BenchConfig(
        n=args.n,
        dims=args.dims,
        max_extent=args.max_extent,
        samples_per_object=args.samples,
        seed=args.seed,
        dataset_path=args.dataset,
        dataset_format=args.format,
        repetitions=args.queries,
        target_rank=args.target_rank,
        p=args.p,
        max_depth=args.max_depth,
        pair_budget=args.pair_budget,
        mc_samples=tuple(
            int(tok) for tok in str(getattr(args, "mc_samples", "4,16,64")).split(",")
        ),
        mode=getattr(args, "mode", "full"),
        k=getattr(args, "k", 10),
        tau=getattr(args, "tau", 0.5),
    )
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
    except OSError as exc:
        print(f"udom: cannot read config: {exc}", file=sys.stderr)
        return 1
    parser = build_parser(cfg)
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "bench":
            return _cmd_bench(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"udom: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
