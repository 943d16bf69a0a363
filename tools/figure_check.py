#!/usr/bin/env python3
"""Checks the shapes of the paper figures the benches reproduce.

Run from the root of a checkout, after building the figure benches:

    python3 tools/figure_check.py                  # smoke scale, build/
    python3 tools/figure_check.py --build build-rel --out bench-out --full
    python3 tools/figure_check.py --no-run --out bench-out

For each figure in bench/figure_specs.json the script runs
<build>/bench/bench_<figure> with MARS_BENCH_SMOKE=1 (unless --full) and
MARS_BENCH_JSON=<out>/<figure>.json, then evaluates the figure's
predicates on that table; --no-run evaluates the JSON already in <out>.
It prints one line per predicate instance and exits 1 if any fails or
names a metric the table does not have.

A predicate is one of
  {"at_least": A, "than": B}    A >= B
  {"at_least": A, "than": B,
   "slack": s}                  A >= B - s
  {"more_than": A, "than": B}   A > B
  {"at_least": A, "value": x}   A >= x
  {"non_decreasing": A}         A's values in ascending order of its `*`
where A and B are metric names. "{name}" in a name is filled from each
combination of the predicate's "over" lists; a `*` matches any run of
characters, and B's `*` takes A's match, so one predicate covers every
buffer size or speed the table has. The specs live apart from
bench/baselines/, whose files tools/run_bench_smoke.sh turns into value
gates: these are shape checks, not values.
"""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def matches(pattern, metrics):
    """(star, name) for each metric the pattern matches."""
    regex = re.compile(
        "^" + re.escape(pattern).replace(r"\*", "(.+)") + "$")
    found = []
    for name in metrics:
        m = regex.match(name)
        if m:
            found.append((m.group(1) if m.groups() else "", name))
    return found


def star_key(star):
    try:
        return (0, float(star), star)
    except ValueError:
        return (1, 0.0, star)


def check(predicate, metrics):
    """(ok, line) for each instance of one predicate."""
    over = predicate.get("over", {})
    keys = sorted(over)
    results = []
    for combo in itertools.product(*(over[k] for k in keys)):
        fill = dict(zip(keys, combo))
        kind = next(k for k in ("at_least", "more_than", "non_decreasing")
                    if k in predicate)
        left = predicate[kind].format(**fill)
        found = sorted(matches(left, metrics), key=lambda f: star_key(f[0]))
        if not found:
            results.append((False, f"{left}: no such metric"))
            continue
        if kind == "non_decreasing":
            values = [metrics[name] for _, name in found]
            ok = all(a <= b for a, b in zip(values, values[1:]))
            shown = " -> ".join(f"{v:.4g}" for v in values)
            results.append((ok, f"{left} non-decreasing: {shown}"))
            continue
        for star, name in found:
            if "value" in predicate:
                other, value = "", predicate["value"]
            else:
                other = predicate["than"].format(**fill).replace("*", star)
                if other not in metrics:
                    results.append((False, f"{other}: no such metric"))
                    continue
                value = metrics[other]
            slack = predicate.get("slack", 0.0)
            ok = metrics[name] >= value - slack if kind == "at_least" \
                else metrics[name] > value
            sign = ">=" if kind == "at_least" else ">"
            shown = f" - {slack:g}" if slack else ""
            results.append(
                (ok, f"{name} {metrics[name]:.4g} {sign} {other} {value:.4g}"
                     f"{shown}".replace("  ", " ")))
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build",
                        help="build tree holding bench/bench_<figure>")
    parser.add_argument("--out", default="bench-out",
                        help="directory for the figures' JSON tables")
    parser.add_argument("--full", action="store_true",
                        help="run the benches at full scale, not smoke")
    parser.add_argument("--no-run", action="store_true",
                        help="check the JSON already in --out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "bench", "figure_specs.json")) as f:
        specs = json.load(f)
    os.makedirs(args.out, exist_ok=True)
    failed = 0
    for figure, spec in specs.items():
        table = os.path.join(args.out, f"{figure}.json")
        if not args.no_run:
            env = dict(os.environ, MARS_BENCH_JSON=table)
            env.pop("MARS_BENCH_SMOKE", None)
            if not args.full:
                env["MARS_BENCH_SMOKE"] = "1"
            binary = os.path.join(args.build, "bench", f"bench_{figure}")
            done = subprocess.run([binary], env=env, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print(f"{figure}: {binary} exited {done.returncode}")
                failed += 1
                continue
        with open(table) as f:
            metrics = {name: m["value"]
                       for name, m in json.load(f)["metrics"].items()}
        print(f"== {figure}: {spec['claim']}")
        for predicate in spec["predicates"]:
            for ok, line in check(predicate, metrics):
                print(f"  {'ok  ' if ok else 'FAIL'} {line}")
                failed += not ok
    print("figure shapes hold" if failed == 0 else
          f"{failed} figure predicate(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
