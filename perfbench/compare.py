"""Compare two run records pair by pair.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Records are the `.bench_out/<workload>-seed<n>-trace<t>.json` files a run
writes. Both must come from the same workload, seed and --seconds, so that
they hold the same pairs; pairs are matched by id. The comparison fails
(exit 1) when AFTER solves fewer of the shared pairs, turns a solved pair
unsolved, is unsound anywhere, or prints different bytes for a CLI
invocation; it lists every pair whose outcome changed.
"""

from __future__ import annotations

import json
import sys
from collections import Counter


def _by_id(record) -> dict:
    return {p["id"]: p for p in record["pairs"]}


def compare(before: dict, after: dict) -> list[str]:
    """Problems found, one line each; empty when AFTER is no worse."""
    keys = ("workload", "seed", "seconds")
    if [before[k] for k in keys] != [after[k] for k in keys]:
        return ["records are from different workloads, seeds or run lengths"]
    problems = []
    old, new = _by_id(before), _by_id(after)
    shared = sorted(old.keys() & new.keys())
    if shared != sorted(old.keys() | new.keys()):
        problems.append("records hold different pairs")
    for pid in shared:
        a, b = old[pid], new[pid]
        if a["solved"] and not b["solved"]:
            problems.append(f"{pid}: solved before, not after ({_outcome(a)} -> {_outcome(b)})")
        if b["unsound"]:
            problems.append(f"{pid}: unsound verdict {_outcome(b)}")
        if "stdout_sha256" in a and a.get("stdout_sha256") != b.get("stdout_sha256"):
            problems.append(f"{pid}: stdout bytes differ")
    if sum(new[i]["solved"] for i in shared) < sum(old[i]["solved"] for i in shared):
        problems.append("fewer pairs solved")
    return problems


def _outcome(p) -> str:
    return str(p.get("outcome", p.get("exit_code")))


def outcome_counts(record) -> Counter:
    return Counter(_outcome(p) for p in record["pairs"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    with open(argv[0], encoding="utf-8") as fh:
        before = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        after = json.load(fh)
    print("before", dict(outcome_counts(before)))
    print("after ", dict(outcome_counts(after)))
    problems = compare(before, after)
    for line in problems:
        print(line)
    print("no worse" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
