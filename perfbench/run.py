#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: serve_poisson, decode_2k, overload_faults, accel_zoo (see
BENCHMARK.json for why each exists). The first run configures and builds
perfbench/ (a CMake package that compiles src/ in Release) into
.bench_build/perfbench; later runs only re-check the build. The last line of
standard output is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it records the host fingerprint and the workload
parameters. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones and writes the span file to .bench_build/traces/.

A result is refused (exit 3) when it could not serve as a baseline: a
non-Release build or a kernel ISA forced through TOPICK_FORCE_ISA (run
.bench_build/perfbench/perfbench directly to see such numbers). --tiny
shrinks every workload to a smoke size for the benchmark's own test.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "serve_engine.h")):
        fail("no src/ tree next to perfbench/; run from a repository checkout")
    os.makedirs(BUILD, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def validate(result, trace):
    section = load_spec()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail(f"metric {name} has unit {m.get('unit')}, "
                 f"BENCHMARK.json says {want[name]}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} has no finite value")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    workloads = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {workloads}")
    build()
    os.makedirs(TRACES, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACES]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail(f"perfbench exited {proc.returncode} without a result")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    validate(result, args.trace)

    host = info["host"]
    baseline_ok = host["build_type"] == "Release" and not host["isa_forced"]
    if not baseline_ok:
        fail(f"refusing to record a {host['build_type']} build with ISA "
             f"{host['isa']} (forced={host['isa_forced']}) as a baseline", 3)
    print(json.dumps(info))
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
