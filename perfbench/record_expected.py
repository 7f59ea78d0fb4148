#!/usr/bin/env python3
"""Record the expected per-query outputs of the default seed.

    python3 perfbench/record_expected.py [workload ...]

Writes ``perfbench/expected/<workload>.json``.  Re-record only when the
workload definitions change; a change to the engine must reproduce these
outputs (decisions exactly, bounds within 1e-9), which the benchmark checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
from runner import call_query  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_db, make_queries  # noqa: E402


def record_workload(name: str) -> dict:
    wl = WORKLOADS[name]
    db = make_db(wl, DEFAULT_SEED)
    queries = make_queries(wl, db, DEFAULT_SEED)
    records = []
    for query in queries:
        answer, rec, _, errors = call_query(wl, query, db)
        if answer is None or errors:
            raise SystemExit(f"{name}: query {query} fails its checks: {errors}")
        records.append(rec)
    return {
        "workload": name,
        "seed": DEFAULT_SEED,
        "inputs": [q.describe() for q in queries],
        "queries": records,
    }


def main(names) -> int:
    check.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        path = check.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(record_workload(name), separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
