"""Freeze record.json: every pool item's outcome at the current commit.

Usage, from the repository root: ``python3 benchmark/freeze.py``.

Each item runs once, in this process, with the interpreter's int->str cap
lifted, so that an item whose only defect is that cap (see
``workloads.KNOWN_DEFECTS``) records the outcome it has once fixed.  The
script refuses to write a record that the benchmark's own check would
reject, or a value that the closed-form oracle does not cover.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
import worker  # noqa: E402

RECORD = os.path.join(HERE, "record.json")


def _record(workload, outcome):
    if workloads.CALL_KIND[workload] == workloads.LIBRARY:
        kind, _, steps, peak = outcome
        return {"kind": kind, "stats": [steps, peak]}
    code, out, err = outcome
    kind = err.split(":", 1)[0] if code else ""
    return {"exit": code, "kind": kind, "stats": workloads.stats_in(out or err)}


def main() -> int:
    sys.set_int_max_str_digits(10**6)
    records = {}
    for workload, pool in workloads.POOLS.items():
        calls = worker._calls(workload)
        records[workload] = {}
        for index, item in enumerate(pool):
            outcome = calls[index]()
            if outcome[0] == "value":
                outcome[1] = format(outcome[1], "x")
            record = _record(workload, outcome)
            reason = workloads.check(workload, item, outcome, record)
            if reason is not None:
                raise SystemExit(f"{workload} {workloads.item_id(item)}: {reason}")
            records[workload][workloads.item_id(item)] = record
    lines = []
    for workload in sorted(records):
        entries = records[workload]
        body = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(entries[key])}" for key in sorted(entries)
        )
        lines.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
    with open(RECORD, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
