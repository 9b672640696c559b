#!/usr/bin/env python3
"""Builds and runs the specpar benchmark (perfbench/specbench.cpp).

Usage, from the repository root:

    python3 perfbench/run.py --workload apps-direct --seed 1 --seconds 10 --trace 0

The harness is built from source with CMake into .bench_build/ (or
$CARGO_TARGET_DIR when set) at the repository root. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the spans of a traced run are written to
<build dir>/spans/<workload>-<seed>.jsonl. Exits non-zero, printing no
result, when the sources are missing, the build fails, the harness fails
or its output does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("apps-direct", "serve-apps", "serve-spec")
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("specpar sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "specbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "specbench")
    if not os.path.isfile(exe):
        fail("build produced no specbench binary")
    return exe


def check_result(line, spec, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("harness printed no JSON result")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    want = spec["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    names = [m["name"] for m in want]
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")
    for m in want:
        v = got[m["name"]]
        if v.get("unit") != m["unit"]:
            fail(f"{m['name']}: unit {v.get('unit')} != {m['unit']}")
        if not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            fail(f"{m['name']}: value is not a finite number")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced input sizes and repeats (self-test only)")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)

    bdir = build_dir()
    exe = build(bdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if r.returncode != 0:
        fail(f"harness exited with code {r.returncode}: {lines[-1]}")
    res = check_result(lines[-1], spec, args.trace)
    if not res["correct"]:
        fail("harness reported incorrect output")
    print(json.dumps(res))


if __name__ == "__main__":
    main()
