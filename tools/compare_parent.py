#!/usr/bin/env python3
"""Compares a change with a base revision: mars_sim outputs or perfbench runs.

Run from the root of a checkout:

    python3 tools/compare_parent.py --base HEAD~1           # working tree
    python3 tools/compare_parent.py --base 6a74d4c --head HEAD
    python3 tools/compare_parent.py --base HEAD~1 --pairs 10 --seed 1 \
        --seconds 20 [--control] [--append] [--digest-change WORKLOAD]

Both sides are exported into .compare/base and .compare/head (paths of
equal length, so paths echoed in the outputs match) and built there in
Release. The base is a revision; the change is a revision given with
--head, or else the working tree with its uncommitted and untracked (not
ignored) files. Each side runs the same fixed set of mars_sim
invocations in its own run directory. The script compares every
invocation's stdout, stderr and exit code, and then every file the runs
leave behind: scene files, page files, per-shard page files and
.shardmap sidecars. It prints one line per invocation and per file,
shows a unified diff of each output that differs, and exits 1 on any
difference.

Two page files that differ are compared page by page: the 64-byte
header's page size, root and reserved bytes, then each page's flags,
payload length, next link, payload and zero tail. The result is
`identical`, `same pages, checksums differ` (only the header's version
and checksum words and the page checksums differ, which is not counted
as a difference), or `DIFFERS` with the first differing pages and
fields; the header's root page is marked as the shard directory.

With --pairs N the script instead builds perfbench on each side (in
.compare/<side>/.bench_build) and runs every workload N times per side,
in pairs whose first side alternates. It fails unless every run is
correct with no failed operation and every digest is equal between the
sides, and prints each end-to-end metric's median, q1 and q3 per side
with the number of pairs the change won. --append adds the two rows
CONTRIBUTING.md describes to each BENCH_<workload>.json.

--digest-change WORKLOAD (repeatable) is for a change that alters that
workload's outputs on purpose: its digest may then differ between the
base and the change, but each side must still give one digest in all of
its runs (the control's equal to the base's), and both are printed.

--control adds an A/A control: a second export of the base in
.compare/ctrl (a path as long as the other two) that runs in every
round, the three sides' order rotating from round to round. Each
metric then also shows the control's median and quartiles, and whether
the change's median lies outside the control's IQR, which a speed-up
claim needs (CONTRIBUTING.md). The mark needs at least 10 pairs
(CONTROL_MIN_PAIRS): below that the control's IQR spans too few runs to
stand for the host's noise, and the column says so instead.

A side is exported with `git archive` (the working tree by copying its
files), not `git worktree add`, so a run registers nothing in the
repository's .git. Files are rewritten only when their bytes change, so
a second run rebuilds only what changed.
"""

import argparse
import difflib
import filecmp
import io
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".compare")
DIFF_LINES = 40

# A small scene keeps the whole set to about a minute per side.
SCENE = ["--mb", "10", "--seed", "7"]
FLEET = ["--clients", "12", "--frames", "40", "--workers", "1"]
DISK = ["--store", "disk", "--evict", "motion", "--warm", "on"]

# Fixed invocation set: memory and disk; one and four shards with both
# index kinds; rebalancing with motion eviction and warming; 12-client
# fleets with coalescing off and on; generate, info and run --db; and a
# disk restart pair. Runs execute in order in one directory, so the
# restart run finds the page files its predecessor wrote.
INVOCATIONS = [
    ("generate", ["generate", *SCENE, "--out", "city.mars"]),
    ("info", ["info", "--db", "city.mars"]),
    ("run-db", ["run", "--db", "city.mars", "--frames", "60"]),
    ("buffered", ["run", *SCENE, "--frames", "80"]),
    ("buffered-walk-kalman",
     ["run", *SCENE, "--frames", "60", "--tour", "walk", "--speed", "0.8",
      "--kalman"]),
    ("naive", ["run", *SCENE, "--frames", "60", "--client", "naive"]),
    ("lossy", ["run", *SCENE, "--frames", "60", "--loss", "0.05",
               "--outage-rate", "30", "--outage-secs", "5"]),
    ("streaming-shards1-point",
     ["run", *SCENE, "--frames", "60", "--client", "streaming",
      "--index", "naive-point"]),
    ("streaming-shards4",
     ["run", *SCENE, "--frames", "60", "--client", "streaming",
      "--shards", "4"]),
    ("streaming-shards4-point",
     ["run", *SCENE, "--frames", "60", "--client", "streaming",
      "--shards", "4", "--index", "naive-point"]),
    ("disk-build",
     ["run", *SCENE, "--frames", "60", "--client", "streaming", "--store",
      "disk", "--pages", "lru.pages", "--shards", "4"]),
    ("disk-restart",
     ["run", *SCENE, "--frames", "60", "--client", "streaming", "--store",
      "disk", "--pages", "lru.pages", "--shards", "4"]),
    ("disk-point",
     ["run", *SCENE, "--frames", "60", "--client", "streaming", "--store",
      "disk", "--pages", "point.pages", "--index", "naive-point"]),
    ("disk-rebalance",
     ["run", *SCENE, "--frames", "60", "--client", "streaming", *DISK,
      "--pages", "rebalance.pages", "--rebalance", "on", "--shards", "4"]),
    ("fleet", ["run", *SCENE, *FLEET]),
    ("fleet-coalesce", ["run", *SCENE, *FLEET, "--coalesce", "on"]),
    ("fleet-cells-outages",
     ["run", *SCENE, *FLEET, "--cells", "4", "--cell-outage-rate", "300",
      "--loss", "0.05"]),
    ("fleet-admission-abr",
     ["run", *SCENE, *FLEET, "--admission", "--abr", "on"]),
    ("fleet-equal-share", ["run", *SCENE, *FLEET, "--fairness", "equal"]),
    ("fleet-disk-rebalance",
     ["run", *SCENE, *FLEET, *DISK, "--pages", "fleet.pages",
      "--rebalance", "on", "--shards", "4"]),
]


def git(*args, capture=True):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=capture).stdout


def sync_file(data, dest):
    """Writes `data` to `dest` unless it already holds exactly that."""
    if os.path.exists(dest):
        with open(dest, "rb") as f:
            if f.read() == data:
                return
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    with open(dest, "wb") as f:
        f.write(data)


def export(revision, dest):
    """Makes `dest` hold the sources of `revision` (None: working tree)."""
    wanted = {}
    if revision is None:
        listed = git("ls-files", "-z", "--cached", "--others",
                     "--exclude-standard").decode().split("\0")
        for rel in filter(None, listed):
            path = os.path.join(ROOT, rel)
            if os.path.isfile(path):  # skips deleted, still-indexed files
                with open(path, "rb") as f:
                    wanted[rel] = f.read()
    else:
        archive = git("archive", "--format=tar", revision)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            for member in tar.getmembers():
                if member.isfile():
                    wanted[member.name] = tar.extractfile(member).read()
    for rel, data in wanted.items():
        sync_file(data, os.path.join(dest, rel))
    for folder, dirs, files in os.walk(dest):
        rel_folder = os.path.relpath(folder, dest)
        if rel_folder == ".":
            dirs[:] = [d for d in dirs
                       if d not in ("build", "run", ".bench_build")]
        for file in files:
            rel = os.path.normpath(os.path.join(rel_folder, file))
            if rel not in wanted:
                os.remove(os.path.join(folder, file))


def build(source, jobs):
    build_dir = os.path.join(source, "build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir, "--target", "mars_sim",
                    "--parallel", str(jobs)], check=True,
                   stdout=subprocess.DEVNULL)
    return os.path.join(build_dir, "tools", "mars_sim")


def run_all(binary, run_dir):
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    outputs = []
    for _, args in INVOCATIONS:
        done = subprocess.run([binary, *args], cwd=run_dir,
                              capture_output=True)
        outputs.append((done.returncode, done.stdout, done.stderr))
    return outputs


def show_diff(label, base, head):
    lines = list(difflib.unified_diff(
        base.decode(errors="replace").splitlines(),
        head.decode(errors="replace").splitlines(),
        f"base/{label}", f"head/{label}", lineterm="", n=0))
    for line in lines[:DIFF_LINES]:
        print(f"    {line}")
    if len(lines) > DIFF_LINES:
        print(f"    ... {len(lines) - DIFF_LINES} more diff lines")


def compare_outputs(base, head):
    same = True
    for (name, args), b, h in zip(INVOCATIONS, base, head):
        parts = []
        if b[0] != h[0]:
            parts.append(f"exit {b[0]} -> {h[0]}")
        if b[1] != h[1]:
            parts.append("stdout")
        if b[2] != h[2]:
            parts.append("stderr")
        status = "identical" if not parts else "DIFFERS: " + ", ".join(parts)
        print(f"{name:<26} {status}   mars_sim {' '.join(args)}")
        if b[1] != h[1]:
            show_diff(f"{name}.stdout", b[1], h[1])
        if b[2] != h[2]:
            show_diff(f"{name}.stderr", b[2], h[2])
        same = same and not parts
    return same


PAGE_MAGIC = b"DRSPAGE1"
HEADER_BYTES = 64
PAGE_FIELDS = (("flags", 8, 12), ("payload_len", 12, 16), ("next", 16, 24))
SHOWN_PAGES = 5


def page_fields(page):
    """Differences of a page split into named fields (checksum excluded)."""
    (payload_len,) = struct.unpack_from("<I", page, 12)
    end = min(24 + payload_len, len(page))
    return [(name, page[lo:hi]) for name, lo, hi in PAGE_FIELDS] + [
        ("payload", page[24:end]), ("tail", page[end:])]


def compare_page_files(b, h):
    """`identical`, `same pages, checksums differ` or `DIFFERS: ...`."""
    if b == h:
        return "identical"
    if len(b) < HEADER_BYTES or len(h) < HEADER_BYTES:
        return "DIFFERS: truncated header"
    page_size, root = struct.unpack_from("<Iq", b, 12)
    problems = []
    if b[12:24] != h[12:24]:
        problems.append("header page size or root")
    if b[24:56] != h[24:56]:
        problems.append("header reserved bytes")
    if len(b) != len(h):
        problems.append(f"length {len(b)} -> {len(h)}")
    if problems or page_size <= 0:
        return "DIFFERS: " + ", ".join(problems or ["page size"])
    pages = []
    for at in range(HEADER_BYTES, len(b), page_size):
        pb, ph = b[at:at + page_size], h[at:at + page_size]
        if pb[8:] == ph[8:]:
            continue
        page_id = (at - HEADER_BYTES) // page_size
        fields = [name for (name, vb), (_, vh)
                  in zip(page_fields(pb), page_fields(ph)) if vb != vh]
        if "payload" in fields and len(pb) == len(ph):
            first = next(i for i in range(24, len(pb)) if pb[i] != ph[i])
            last = max(i for i in range(24, len(pb)) if pb[i] != ph[i])
            fields[fields.index("payload")] = (
                f"payload bytes {first - 24}-{last - 24}")
        label = " (root: shard directory)" if page_id == root else ""
        pages.append(f"page {page_id}{label}: {', '.join(fields)}")
    if not pages:
        return "same pages, checksums differ"
    shown = "; ".join(pages[:SHOWN_PAGES])
    more = f"; {len(pages) - SHOWN_PAGES} more" if len(pages) > SHOWN_PAGES \
        else ""
    return f"DIFFERS: {shown}{more}"


def compare_files(base_dir, head_dir):
    names = set()
    for folder in (base_dir, head_dir):
        for dirpath, _, files in os.walk(folder):
            names.update(os.path.relpath(os.path.join(dirpath, f), folder)
                         for f in files)
    same = True
    for name in sorted(names):
        b = os.path.join(base_dir, name)
        h = os.path.join(head_dir, name)
        if not os.path.exists(b) or not os.path.exists(h):
            status = "only in " + ("head" if os.path.exists(h) else "base")
        elif filecmp.cmp(b, h, shallow=False):
            status = "identical"
        else:
            with open(b, "rb") as fb, open(h, "rb") as fh:
                bb, hb = fb.read(), fh.read()
            if bb.startswith(PAGE_MAGIC) and hb.startswith(PAGE_MAGIC):
                status = compare_page_files(bb, hb)
            else:
                status = "DIFFERS"
        print(f"file {name:<26} {status}")
        same = same and not status.startswith("DIFFERS") \
            and not status.startswith("only")
    return same


# --- perfbench pairs ------------------------------------------------------

WORKLOADS = ["paper_buffered", "paper_streaming", "disk_motion"]

# Pairs the control's inside/OUTSIDE mark needs: at 3 pairs its IQR spans
# three runs, and host noise alone read OUTSIDE.
CONTROL_MIN_PAIRS = 10


def end_to_end_metrics(source):
    with open(os.path.join(source, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_perfbench(source, workload, seed, seconds):
    """One run of perfbench/run.py on a side: (result, digest)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=source, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload}: perfbench exited {done.returncode} "
                         f"in {source}")
    digests = [line.split()[1] for line in lines
               if line.startswith("digest ")]
    return json.loads(lines[-1]), digests[-1] if digests else None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def bench_row(commit, args, host, metrics, runs):
    out = {}
    for metric in metrics:
        name = metric["name"]
        median, q1, q3 = quartiles([r["metrics"][name]["value"]
                                    for r in runs])
        out[name] = {"unit": metric["unit"], "median": round(median, 6),
                     "q1": round(q1, 6), "q3": round(q3, 6)}
    return {"commit": commit, "seed": args.seed, "pairs": args.pairs,
            "seconds": args.seconds, "host": host, "metrics": out}


def format_bench_file(data):
    """The layout of the checked-in files: one line per metric."""
    lines = ["{", f'  "workload": {json.dumps(data["workload"])},',
             '  "rows": [']
    for i, row in enumerate(data["rows"]):
        lines.append("    {")
        for key in ("commit", "seed", "pairs", "seconds", "host"):
            lines.append(f'      {json.dumps(key)}: {json.dumps(row[key])},')
        lines.append('      "metrics": {')
        names = list(row["metrics"])
        for j, name in enumerate(names):
            comma = "," if j + 1 < len(names) else ""
            lines.append(f"        {json.dumps(name)}: "
                         f"{json.dumps(row['metrics'][name])}{comma}")
        lines.append("      }")
        lines.append("    }" + ("," if i + 1 < len(data["rows"]) else ""))
    lines += ["  ]", "}"]
    return "\n".join(lines) + "\n"


def digests_agree(digests, changes):
    """Whether the sides' digest sets pass: one digest per side and all
    equal, or with `changes` the change's free to differ from the base's
    (which the control must still equal)."""
    if any(len(d) != 1 for d in digests.values()):
        return False
    unique = {side: next(iter(d)) for side, d in digests.items()}
    if not changes:
        return len(set(unique.values())) == 1
    return all(d == unique["base"] for side, d in unique.items()
               if side != "head")


def run_pairs(args, sources):
    metrics = end_to_end_metrics(sources["head"])
    base_commit = git("rev-parse", "--short", args.base).decode().strip()
    host = args.host or f"{os.cpu_count()}-core {platform.machine()}"
    names = list(sources)  # base, head and, with --control, ctrl
    ok = True
    for workload in args.workload or WORKLOADS:
        runs = {side: [] for side in names}
        digests = {side: set() for side in names}
        correct = True
        for pair in range(args.pairs):
            shift = pair % len(names)
            for side in names[shift:] + names[:shift]:
                result, digest = run_perfbench(sources[side], workload,
                                               args.seed, args.seconds)
                runs[side].append(result)
                digests[side].add(digest)
                if not result["correct"] or result["failed"] != 0:
                    print(f"{workload}: {side} run {pair} incorrect or "
                          f"failed {result['failed']}/{result['attempted']}")
                    correct = False
            print(f"{workload}: pair {pair + 1}/{args.pairs} done",
                  flush=True)
        changes = workload in (args.digest_change or [])
        if not digests_agree(digests, changes):
            print(f"{workload}: digests differ: " + ", ".join(
                f"{side} {' '.join(sorted(map(str, d)))}"
                for side, d in digests.items()))
            correct = False
        ok = ok and correct
        shown = " ".join(sorted({str(d) for ds in digests.values()
                                 for d in ds}))
        if changes:
            shown = f"base {' '.join(map(str, digests['base']))}, " \
                f"head {' '.join(map(str, digests['head']))} (a change)"
        print(f"\n{workload} (seed {args.seed}, {args.seconds} s, "
              f"{args.pairs} pairs; digest {shown})")
        print(f"{'metric':<20}" +
              "".join(f"{side + ' median [q1-q3]':>34}" for side in names) +
              f"{'head/base':>11}{'wins':>7}" +
              (f"{'head vs ctrl IQR':>18}" if "ctrl" in names else ""))
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                      for side in runs}
            stats = {side: quartiles(values[side]) for side in runs}
            higher = metric["better"] == "higher"
            wins = sum((h > b) if higher else (h < b)
                       for b, h in zip(values["base"], values["head"]))
            ratio = stats["head"][0] / stats["base"][0] \
                if stats["base"][0] else float("nan")
            cells = "".join(f"{f'{m:.6g} [{q1:.6g}-{q3:.6g}]':>34}"
                            for m, q1, q3 in stats.values())
            mark = ""
            if "ctrl" in stats and args.pairs < CONTROL_MIN_PAIRS:
                mark = f"{'too few pairs':>18}"
            elif "ctrl" in stats:
                _, q1, q3 = stats["ctrl"]
                inside = q1 <= stats["head"][0] <= q3
                mark = f"{'inside' if inside else 'OUTSIDE':>18}"
            print(f"{name:<20}{cells}{ratio:>11.4f}"
                  f"{wins:>4}/{args.pairs}{mark}")
        if args.append and correct:
            path = os.path.join(ROOT, f"BENCH_{workload}.json")
            with open(path) as f:
                data = json.load(f)
            data["rows"].append(bench_row(base_commit, args, host, metrics,
                                          runs["base"]))
            data["rows"].append(bench_row(f"{base_commit}+1", args, host,
                                          metrics, runs["head"]))
            with open(path, "w") as f:
                f.write(format_bench_file(data))
            print(f"appended two rows to {os.path.relpath(path, ROOT)}")
    if "ctrl" in names and args.pairs < CONTROL_MIN_PAIRS:
        print(f"control: {args.pairs} pairs are too few for the IQR mark "
              f"(it needs {CONTROL_MIN_PAIRS})")
    print("all runs correct, digests as required" if ok else "pairs failed")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", help="change revision (default: the "
                        "working tree)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel build jobs per side")
    parser.add_argument("--pairs", type=int, default=0,
                        help="run perfbench in N alternating pairs instead")
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench --seed (with --pairs)")
    parser.add_argument("--seconds", type=int, default=20,
                        help="perfbench --seconds (with --pairs)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="with --pairs, run only this workload "
                        "(repeatable; default: all)")
    parser.add_argument("--control", action="store_true",
                        help="with --pairs, also run a second copy of the "
                        "base as an A/A control")
    parser.add_argument("--append", action="store_true",
                        help="append both rows to BENCH_<workload>.json")
    parser.add_argument("--host", help="the rows' host (default: the core "
                        "count and machine)")
    parser.add_argument("--digest-change", action="append", choices=WORKLOADS,
                        metavar="WORKLOAD",
                        help="with --pairs, let this workload's digest "
                        "differ between the base and the change (repeatable)")
    args = parser.parse_args()
    if args.append and args.pairs < 1:
        parser.error("--append needs --pairs")
    if args.control and args.pairs < 1:
        parser.error("--control needs --pairs")
    if args.digest_change and args.pairs < 1:
        parser.error("--digest-change needs --pairs")

    sides = {}
    control = (("ctrl", args.base),) if args.control else ()
    for side, revision in (("base", args.base), ("head", args.head),
                           *control):
        source = os.path.join(WORK, side)
        label = revision if revision is not None else "working tree"
        print(f"{side}: {label}, building in {os.path.relpath(source, ROOT)}",
              flush=True)
        export(revision, source)
        sides[side] = source if args.pairs else build(source, args.jobs)
    if args.pairs:
        return run_pairs(args, sides)
    results = {}
    for side, binary in sides.items():
        results[side] = run_all(binary, os.path.join(WORK, side, "run"))

    same = compare_outputs(results["base"], results["head"])
    same = compare_files(os.path.join(WORK, "base", "run"),
                         os.path.join(WORK, "head", "run")) and same
    print("all identical" if same else "differences found")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
