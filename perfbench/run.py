#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build), and so do the run's scratch page files and traces.
One workload prints the benchmark's report; its last line is the JSON
result. `all` runs every workload, each in its own process, and prints a
table of the end-to-end metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_buffered", "paper_streaming", "disk_motion"]


def build(target_dir):
    build_dir = os.path.join(target_dir, "cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--parallel",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run_all(binary, args, out_dir):
    rows = []
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [binary, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0",
             "--out", out_dir],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    if rows:
        metrics = list(rows[0][1]["metrics"])
        print()
        print(f"{'metric':<20}{'unit':<8}" +
              "".join(f"{name:>18}" for name, _ in rows))
        for metric in metrics:
            unit = rows[0][1]["metrics"][metric]["unit"]
            print(f"{metric:<20}{unit:<8}" + "".join(
                f"{r['metrics'][metric]['value']:>18.6g}" for _, r in rows))
        print(f"{'failed/attempted':<28}" + "".join(
            f"{str(r['failed']) + '/' + str(r['attempted']):>18}"
            for _, r in rows))
        print(f"{'correct':<28}" + "".join(
            f"{str(r['correct']):>18}" for _, r in rows))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    out_dir = os.path.join(target_dir, "perfbench")
    if args.workload == "all":
        return run_all(binary, args, out_dir)
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out", out_dir]).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        sys.exit(1)
