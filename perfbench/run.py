#!/usr/bin/env python3
"""Query benchmark for udom.

    python3 perfbench/run.py --workload irank_narrow --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a checkout; the engine is imported from ``src/``.  One
workload runs in this process; ``all`` runs each workload in a process of its
own.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A full report with
provenance goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*workloads, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args, workloads) -> int:
    """Each workload in its own process, so peak RSS and warm-up are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0


def _line(name, value, unit):
    return f"  {name:<44} {value:>14.6g} {unit}"


def main(argv=None) -> int:
    if not (SRC / "udom" / "__init__.py").is_file():
        print(f"perfbench: no udom package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # OpenBLAS reads its thread count when numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(SRC), str(HERE)]
    import runner

    args = parse_args(argv, runner.WORKLOADS)
    if args.workload == "all":
        return run_all(args, runner.WORKLOADS)
    trace = bool(args.trace)
    res = runner.run_workload(args.workload, args.seed, args.seconds, trace)
    path = runner.write_result(res)
    prov, params = res["provenance"], res["params"]
    print(f"perfbench {args.workload} ({params['roadmap']}) seed={args.seed} trace={args.trace} "
          f"queries/list={prov['queries_per_list']} passes={params['passes']:.2f} "
          f"attempted={res['attempted']} failed={res['failed']} correct={str(res['correct']).lower()}")
    print(f"  nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} blas={prov['blas']} "
          f"openblas_threads={prov['openblas_threads']} git={prov['git_sha']} src={prov['src_sha256']}")
    if trace:
        metrics = {k: {"value": v, "unit": runner.PER_LAYER_UNITS[k]} for k, v in res["per_layer"].items()}
        if res["absent_layers"]:
            print(f"  absent layers (reported as 0): {', '.join(res['absent_layers'])}")
        if res["counter_errors"]:
            print(f"  counters that failed: {', '.join(res['counter_errors'])}")
        shares = ", ".join(f"{k} {v:.0%}" for k, v in res["self_time_shares"].items())
        print(f"  share of traced query time: {shares}")
    else:
        metrics = {k: {"value": v, "unit": runner.END_TO_END_UNITS[k]} for k, v in res["end_to_end"].items()}
    for name, m in metrics.items():
        print(_line(name, m["value"], m["unit"]))
    for name, (value, unit) in res["extra"].items():
        print(_line(name, value, unit))
    for ex in res["queries"]:
        for err in ex["errors"][:3]:
            print(f"  query {ex['index']} failed: {err.strip().splitlines()[-1]}")
    print(f"  report: {path}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
