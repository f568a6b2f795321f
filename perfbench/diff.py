#!/usr/bin/env python3
"""Compares two result sets of the benchmark.

    python3 perfbench/diff.py BASE HEAD

BASE and HEAD are each a log file, or a directory of log files, holding the
output of `perfbench/run.py` runs (its `perfbench-record:` lines). For each
workload it prints:

* every end-to-end metric of the untraced runs: each side's median and
  quartiles, the change of the median, and a verdict against the metric's
  bound in BENCHMARK.json (`worse` past the bound; `unresolved` when the
  base's own quartile spread is wider than the bound);
* every deterministic per-layer count of the traced runs that differs
  between the sides on the same seed, and any change of the
  simulated-results digest.

Counts are gated exactly: the exit code is 1 when any count changed or
any end-to-end median got worse by more than its bound, else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "perfbench-record: "


def load(path):
    files = sorted(Path(path).glob("*")) if Path(path).is_dir() else [Path(path)]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.startswith(PREFIX):
                records.append(json.loads(line[len(PREFIX):]))
    if not records:
        sys.exit(f"diff.py: no {PREFIX.strip()} lines in {path}")
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def e2e_rows(workload, base, head, bounds):
    """Prints the end-to-end comparison; returns True when one got worse."""
    worse = False
    side = {}
    for name, recs in (("base", base), ("head", head)):
        side[name] = defaultdict(list)
        for r in recs:
            if r["workload"] == workload and not r["trace"]:
                for metric, m in r["metrics"].items():
                    side[name][metric].append(m["value"])
    for metric in sorted(set(side["base"]) & set(side["head"])):
        b, h = side["base"][metric], side["head"][metric]
        bq1, bmed, bq3 = quartiles(b)
        hq1, hmed, hq3 = quartiles(h)
        change = hmed / bmed - 1 if bmed else float("nan")
        spec = bounds.get(metric)
        if spec:
            sign = 1 if spec["better"] == "lower" else -1
            if (bq3 - bq1) / bmed > spec["bound"]:
                verdict = "unresolved (base spread > bound)"
            elif sign * change > spec["bound"]:
                verdict, worse = f"WORSE (bound {spec['bound']:.0%})", True
            else:
                verdict = f"ok (bound {spec['bound']:.0%})"
        else:
            verdict = "not gated"
        print(f"  {metric:16} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}] n={len(b)}"
              f"  head {hmed:.6g} [{hq1:.6g}, {hq3:.6g}] n={len(h)}"
              f"  {change:+.1%}  {verdict}")
    return worse


def count_rows(workload, base, head):
    """Prints every changed deterministic count; returns True if any."""
    def by_seed(recs):
        out = {}
        for r in recs:
            if r["workload"] == workload and r["trace"] and r["correct"]:
                out.setdefault(r["seed"], r)
        return out

    b, h = by_seed(base), by_seed(head)
    changed = False
    for seed in sorted(set(b) & set(h)):
        for name, m in b[seed]["metrics"].items():
            other = h[seed]["metrics"].get(name)
            if m["deterministic"] and (other is None or other["value"] != m["value"]):
                got = "missing" if other is None else other["value"]
                print(f"  COUNT CHANGED seed {seed}: {name} {m['value']} -> {got}")
                changed = True
        if b[seed]["digest"] != h[seed]["digest"]:
            print(f"  simulated results changed on seed {seed}: digest "
                  f"{b[seed]['digest']} -> {h[seed]['digest']}")
    if not set(b) & set(h):
        print("  no traced runs on a common seed: counts not compared")
    return changed


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = load(sys.argv[1]), load(sys.argv[2])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    bad = False
    for w in bench["workloads"]:
        print(w["name"])
        bad |= e2e_rows(w["name"], base, head, bounds)
        bad |= count_rows(w["name"], base, head)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
