#!/usr/bin/env python3
"""Run one workload of the wivliw benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wivliw checkout. Builds the perfbench binary and
the wivliw_serve daemon from the checkout's sources (under
$CARGO_TARGET_DIR, default .bench_build), runs it, checks that
its result line names every metric BENCHMARK.json lists, and relays its
output. The last stdout line is the result JSON; build logs go to
stderr. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-grid", "synth-gap", "serve-mixed")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, cwd=ROOT)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src/api/session.hh", "tools/wivliw_serve.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no wivliw sources next to perfbench/ (missing %s)" % need)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 1)

    # Relative paths keep the daemon's unix socket path short.
    out_dir = os.path.relpath(os.path.join(build_dir, "out"), ROOT)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "wivliw", "wivliw_serve"),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{") else lines) + "\n")
        fail("perfbench exited with %d" % proc.returncode, proc.returncode)

    result = json.loads(lines[-1])
    want = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in want if m["name"] not in result["metrics"]]
    if missing:
        fail("result lacks metrics %s" % ", ".join(missing), 1)
    for m in want:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail("unit of %s differs from BENCHMARK.json" % m["name"], 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
