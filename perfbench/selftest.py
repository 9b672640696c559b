#!/usr/bin/env python3
"""Self-test of the benchmark: a reduced-size run of every workload.

Usage, from the repository root:

    python3 perfbench/selftest.py

For each workload it runs run.py with --smoke untraced and traced, and
asserts that every metric BENCHMARK.json names is printed with its unit and
a finite value, that no op failed, that the traced run's span file parses,
and that within every op the spans' self times sum to no more than the op's
wall time. It also asserts that metric_map.json covers exactly the
per-layer metrics. Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SLACK_NS = 1000  # clock granularity between a root and its children


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(r.returncode == 0, f"{workload} trace={trace}: exit {r.returncode}")
    return json.loads(r.stdout.strip().split("\n")[-1])


def self_times(spans):
    """Per-op (root wall ns, summed self ns) from a list of span dicts."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    ops = {}
    for s in spans:
        root = s
        while root["parent"] >= 0:
            root = by_id[root["parent"]]
        cover, reach = 0, s["start_ns"]
        for lo, hi in sorted((max(s["start_ns"], c["start_ns"]),
                              min(s["end_ns"], c["end_ns"]))
                             for c in children.get(s["id"], [])):
            lo = max(lo, reach)
            if hi > lo:
                cover += hi - lo
                reach = hi
        wall, total = ops.get(root["id"], (root["end_ns"] - root["start_ns"], 0))
        ops[root["id"]] = (wall, total + (s["end_ns"] - s["start_ns"]) - cover)
    return ops


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        mapping = json.load(f)
    names = {m["name"] for m in spec["per_layer"]}
    check(set(mapping) == names,
          f"metric_map.json differs from per_layer: "
          f"{sorted(set(mapping) ^ names)}")

    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = bdir if os.path.isabs(bdir) else os.path.join(ROOT, bdir)
    # serve-spec is runnable by hand though BENCHMARK.json does not list
    # it (its figures spread too widely on shared hosts); keep it working.
    for name in [w["name"] for w in spec["workloads"]] + ["serve-spec"]:
        for trace, want in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = run(name, trace)
            check(res["correct"] is True, f"{name}: output check failed")
            check(res["attempted"] >= 1 and res["failed"] == 0,
                  f"{name}: {res['failed']} of {res['attempted']} ops failed")
            for m in want:
                v = res["metrics"].get(m["name"])
                check(v is not None, f"{name}: {m['name']} missing")
                check(v["unit"] == m["unit"], f"{name}: {m['name']} unit")
                check(isinstance(v["value"], (int, float)) and
                      math.isfinite(v["value"]),
                      f"{name}: {m['name']} is not finite")
            if trace:
                check(res["metrics"]["ops_failed_ratio"]["value"] == 0,
                      f"{name}: ops_failed_ratio is not 0")
                path = os.path.join(bdir, "spans", f"{name}-7.jsonl")
                with open(path) as f:
                    spans = [json.loads(line) for line in f]
                check(spans, f"{name}: empty span file")
                for op, (wall, total) in self_times(spans).items():
                    check(total <= wall + SLACK_NS,
                          f"{name}: span {op}: self times {total} ns exceed "
                          f"wall {wall} ns")
            print(f"selftest: {name} trace={trace} ok")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
