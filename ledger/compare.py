#!/usr/bin/env python3
"""Compare two revisions' rows of the e2ebench results ledger.

    python3 ledger/compare.py OLD NEW

OLD and NEW are git revisions (any unambiguous prefix of the rev a row
records). For every workload both revisions have a row for, and every
end-to-end metric BENCHMARK.json declares, it prints both medians, the
relative change, the metric's bound, and whether the change passes: a
metric passes when it is not worse than OLD's median by more than its
bound, in the direction BENCHMARK.json calls better. When a revision has
several rows for a workload, the last one counts. Exits 1 when any
metric fails, 2 on bad input.

Each line of ledger/e2ebench.jsonl is one (rev, workload) row, appended
and never edited:

    {"rev": <git rev>, "workload": <name>,
     "host": {"nproc": <int>, "cpu": <model name>, "rustc": <rustc -V>},
     "seeds": [<int>, ...], "run_seconds": <int>, "runs": <int>,
     "metrics": {<metric>: {"median": <float>, "iqr": <float>}, ...}}

A row summarizes `runs` untraced runs of `python3 e2ebench/run.py
--workload <name> --seed <s> --seconds <run_seconds> --trace 0` over
the listed seeds: each metric's median over the runs and the distance
between their quartiles. `rev` is the commit measured; a working tree
measured before it was committed is named as `git describe --always
--dirty` names it, `<parent>-dirty`.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def die(msg):
    print("compare: " + msg, file=sys.stderr)
    sys.exit(2)


def load_rows():
    rows = []
    with open(os.path.join(HERE, "e2ebench.jsonl")) as f:
        for n, line in enumerate(f, 1):
            if line.strip():
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as e:
                    die("ledger line %d: %s" % (n, e))
    return rows


def last_rows(rows, rev):
    """The last row per workload among rows whose rev starts with `rev`.
    A dirty tree's rows match only a `rev` that names it dirty, so the
    commit `abc1234` and the tree `abc1234-dirty` stay apart."""
    dirty = rev.endswith("-dirty")
    revs = {r["rev"] for r in rows
            if r["rev"].startswith(rev) and r["rev"].endswith("-dirty") == dirty}
    if len(revs) != 1:
        die("rev %r matches %d ledger revs: %s" % (rev, len(revs), sorted(revs)))
    return {r["workload"]: r for r in rows if r["rev"] in revs}


def change(old, new):
    if old == new:
        return 0.0
    if old == 0:
        return float("inf") if new > old else float("-inf")
    return (new - old) / abs(old)


def main():
    if len(sys.argv) != 3:
        die("usage: python3 ledger/compare.py OLD NEW")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        e2e = json.load(f)["end_to_end"]
    rows = load_rows()
    old, new = last_rows(rows, sys.argv[1]), last_rows(rows, sys.argv[2])
    failed = 0
    print("%-13s %-16s %14s %14s %9s %6s  %s"
          % ("workload", "metric", "old", "new", "change", "bound", "verdict"))
    for workload in [w for w in old if w in new]:
        a, b = old[workload]["metrics"], new[workload]["metrics"]
        for m in e2e:
            name = m["name"]
            if name not in a or name not in b:
                continue
            x, y = a[name]["median"], b[name]["median"]
            rel = change(x, y)
            worse = rel if m["better"] == "lower" else -rel
            ok = worse <= m["bound"]
            failed += not ok
            print("%-13s %-16s %14.6g %14.6g %+8.1f%% %6.2f  %s"
                  % (workload, name, x, y, 100 * rel, m["bound"],
                     "pass" if ok else "FAIL"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
