#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness (`perfbench/Cargo.toml`,
release profile, into `$CARGO_TARGET_DIR`, default `.bench_build`), runs
it with the thread budget pinned to serial, checks its record against
`BENCHMARK.json`, and prints:

* a human-readable summary: every metric with its unit and sample count,
  the simulated results with their digest, and any failed output check;
* one `perfbench-record: {...}` line, the full record `diff.py` reads;
* as the last line, the result:
  `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`,
  with every end-to-end metric (`--trace 0`) or every per-layer metric
  (`--trace 1`) of `BENCHMARK.json`.

Exits non-zero without a result when the build or the harness fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
RECORD_PREFIX = "perfbench-record: "


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die(f"build failed with exit code {done.returncode}")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def run_harness(binary, args, env):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"harness failed: {e}")
    if done.returncode != 0:
        die(f"harness exited with code {done.returncode}")
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError as e:
        die(f"harness printed no record: {e}")


def result_metrics(record, spec):
    """The gated metrics of the record, checked against BENCHMARK.json."""
    metrics = {}
    for m in spec:
        got = record["metrics"].get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']} but BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def summary(record, metrics):
    mode = "traced" if record["trace"] else "untraced"
    print(f"{record['workload']} seed {record['seed']} ({mode}, "
          f"{record['threads']} thread): {record['attempted']} operations, "
          f"{record['failed']} failed")
    samples = record["samples"]
    for name, m in record["metrics"].items():
        gated = "" if name in metrics else "  (not gated)"
        n = f"  [n={len(samples[name])}]" if name in samples else ""
        print(f"  {name:32} {m['value']:.6g} {m['unit']}{n}{gated}")
    if record["attempted"]:
        print(f"  {'failed_frac':32} {record['failed'] / record['attempted']:.6g} 1  (not gated)")
    for name, v in record["simulated"].items():
        print(f"  {name:32} {v:.6g}  (simulated)")
    print(f"  simulated-results digest {record['digest']}")
    for f in record["failures"]:
        print(f"  FAILED: {f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(f"unknown workload {args.workload}")

    env = dict(os.environ)
    env.pop("C4_THREADS", None)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    env["CARGO_TARGET_DIR"] = str((ROOT / env["CARGO_TARGET_DIR"]).resolve())
    record = run_harness(build(env), args, env)

    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = result_metrics(record, spec)
    correct = record["correct"]
    if correct and len(metrics) != len(spec):
        missing = sorted({m["name"] for m in spec} - set(metrics))
        record["failures"].append(f"record lacks metrics {missing}")
        correct = False
    summary(record, metrics)
    print(RECORD_PREFIX + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
