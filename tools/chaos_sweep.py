#!/usr/bin/env python3
"""Deterministic chaos sweep for the multi-cell fleet topology.

Runs mars_sim fleets across a seed x outage-rate x fleet-size grid with
the ground plane tiled into four cells, killing cells at random (seeded)
times, and fails loudly if the fault-tolerance machinery violates any
invariant:

  * chaos counters — session desyncs, duplicate deliveries, stranded
    waiters, unresolved exchanges — must all be zero (the engine also
    MARS_CHECKs them, so a violation usually aborts the run first);
  * the `-- json --` block must be byte-identical between --workers 1
    and --workers 8: failover, cancellation, and re-issue are part of
    the deterministic two-phase tick, not a best-effort recovery path;
  * every run must exit 0 (a MARS_CHECK abort inside the engine is a
    sweep failure, not a skip).

The sweep is itself deterministic: the grid is fixed and every stochastic
stream inside the simulator derives from the run's --seed, so a failing
cell (seed, rate, fleet) reproduces standalone with the printed command.

Usage:
    tools/chaos_sweep.py                 # full sweep (20 seeds)
    tools/chaos_sweep.py --quick         # 3-seed CI smoke
    tools/chaos_sweep.py --seeds 50      # go deeper
"""

import argparse
import difflib
import glob
import json
import os
import subprocess
import sys
import tempfile

CHAOS_KEYS = (
    "session_desyncs",
    "duplicate_deliveries",
    "stranded_waiters",
    "unresolved_exchanges",
)

# Lines of the workers 1 vs 8 diff printed for a divergent run.
MAX_DIFF_LINES = 40


def run_sim(binary, seed, rate, clients, mb, frames, workers, coalesce,
            warm):
    cmd = [
        binary, "run",
        "--mb", str(mb),
        "--clients", str(clients),
        "--cells", "4",
        "--cell-outage-rate", str(rate),
        "--frames", str(frames),
        "--seed", str(seed),
        "--workers", str(workers),
        "--coalesce", "on" if coalesce else "off",
    ]
    pages = None
    if warm:
        # Speculative I/O in flight while cells die: the out-of-core
        # store with background warming must not perturb the fleet's
        # deterministic JSON either. Each run builds its page file from
        # scratch so workers 1 and 8 start from identical disk state.
        pages = os.path.join(tempfile.gettempdir(),
                             f"chaos_warm_{seed}_{workers}.pages")
        remove_page_files(pages)
        cmd += ["--store", "disk", "--pages", pages,
                "--evict", "motion", "--warm", "on"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if pages is not None:
        remove_page_files(pages)
    return cmd, proc


def remove_page_files(pages):
    for path in glob.glob(pages + "*"):
        os.remove(path)


def json_block(stdout):
    marker = "-- json --"
    pos = stdout.find(marker)
    return stdout[pos:] if pos >= 0 else None


def json_diff(one, eight):
    """Unified diff of two json blocks, capped at MAX_DIFF_LINES lines."""
    diff = list(difflib.unified_diff(
        one.splitlines(), eight.splitlines(),
        fromfile="workers 1", tofile="workers 8", lineterm=""))
    if len(diff) > MAX_DIFF_LINES:
        kept = MAX_DIFF_LINES - 1
        diff = diff[:kept] + [f"... {len(diff) - kept} more diff lines"]
    return "\n".join(diff)


def chaos_counters(stdout):
    for line in stdout.splitlines():
        if line.startswith('{"chaos":'):
            return json.loads(line)["chaos"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", default="build/tools/mars_sim",
                        help="mars_sim binary (default: %(default)s)")
    parser.add_argument("--seeds", type=int, default=20,
                        help="seeds per grid cell (default: %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="3-seed single-cell smoke for CI")
    args = parser.parse_args()

    # (outage rate / h, clients, scene MB, frames, coalesce, warm)
    if args.quick:
        seeds = range(1, 4)
        grid = [
            (300.0, 8, 10, 40, False, False),
            (300.0, 8, 10, 40, False, True),
        ]
    else:
        seeds = range(1, args.seeds + 1)
        grid = [
            (150.0, 8, 10, 50, False, False),
            (400.0, 8, 10, 50, True, False),
            (300.0, 12, 20, 60, False, False),
            (300.0, 12, 20, 60, True, False),
            (300.0, 8, 10, 50, False, True),
            (400.0, 12, 20, 60, True, True),
        ]

    failures = 0
    runs = 0
    for rate, clients, mb, frames, coalesce, warm in grid:
        for seed in seeds:
            outputs = {}
            bad = False
            for workers in (1, 8):
                cmd, proc = run_sim(args.binary, seed, rate, clients, mb,
                                    frames, workers, coalesce, warm)
                runs += 1
                label = " ".join(cmd)
                if proc.returncode != 0:
                    print(f"FATAL: exit {proc.returncode}: {label}")
                    sys.stderr.write(proc.stderr[-2000:])
                    failures += 1
                    bad = True
                    continue
                block = json_block(proc.stdout)
                if block is None:
                    print(f"FATAL: no json block: {label}")
                    failures += 1
                    bad = True
                    continue
                outputs[workers] = block
                chaos = chaos_counters(proc.stdout)
                if chaos is None:
                    print(f"FATAL: no chaos counters: {label}")
                    failures += 1
                    bad = True
                    continue
                for key in CHAOS_KEYS:
                    if chaos.get(key, -1) != 0:
                        print(f"FATAL: {key}={chaos.get(key)}: {label}")
                        failures += 1
                        bad = True
            if not bad and outputs.get(1) != outputs.get(8):
                print(f"FATAL: workers 1 vs 8 diverged: seed={seed} "
                      f"rate={rate} clients={clients} mb={mb} "
                      f"coalesce={coalesce} warm={warm}")
                print(json_diff(outputs[1], outputs[8]))
                failures += 1

    if failures:
        print(f"chaos sweep: {failures} violation(s) across {runs} runs")
        return 1
    print(f"chaos sweep: {runs} runs clean "
          f"(zero chaos counters, workers 1 == 8)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
