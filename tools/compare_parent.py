#!/usr/bin/env python3
"""Compares mars_sim's outputs at a base revision with a change's.

Run from the root of a checkout:

    python3 tools/compare_parent.py --base HEAD~1           # working tree
    python3 tools/compare_parent.py --base 6a74d4c --head HEAD

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

A side is exported with `git archive` (the working tree by copying its
files), not `git worktree add`, so a run registers nothing in the
repository's .git. Files are rewritten only when their bytes change, so
a second run rebuilds only what changed.
"""

import argparse
import difflib
import filecmp
import io
import os
import shutil
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
            dirs[:] = [d for d in dirs if d not in ("build", "run")]
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
            status = "DIFFERS"
        print(f"file {name:<26} {status}")
        same = same and status == "identical"
    return same


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", help="change revision (default: the "
                        "working tree)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel build jobs per side")
    args = parser.parse_args()

    sides = {}
    for side, revision in (("base", args.base), ("head", args.head)):
        source = os.path.join(WORK, side)
        label = revision if revision is not None else "working tree"
        print(f"{side}: {label}, building in {os.path.relpath(source, ROOT)}",
              flush=True)
        export(revision, source)
        sides[side] = build(source, args.jobs)
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
