#!/usr/bin/env python3
"""A/B comparison of gg_bench runs, by the rules of README.md "A/B recipe".

Collect alternating runs of two checkouts (each builds its own gg_bench):

    python3 bench/e2e/compare.py run --base <checkout> --change <checkout> \
        --out <dir> [--first-seed 1]

It runs 10 pairs of untraced runs. Pair i runs seed first_seed+i on both
sides, the base first when i is even and the change first when i is odd,
on every workload of the base's BENCHMARK.json, and stores each result
line as <dir>/<side>/<workload>/seed-<n>.json.

Compare them:

    python3 bench/e2e/compare.py report <dir>/base <dir>/change
    python3 bench/e2e/compare.py report --self <runs-1> <runs-2>

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of seed-matched pairs the change wins, and a verdict:

  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the base's interquartile range;
  unresolved  the base's own spread (IQR / median) is wider than the
              metric's bound in BENCHMARK.json and not every change run
              beats every base run;
  worse       the change's median is worse than the base's by more than
              the bound;
  unchanged   otherwise.

`report` exits 1 when any metric is worse; with --self (two run sets of one
commit) also when any is unresolved.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_runs(side_dir):
    """{workload: {seed: metrics}} from <side_dir>/<workload>/seed-<n>.json."""
    runs = {}
    for workload in sorted(os.listdir(side_dir)):
        folder = os.path.join(side_dir, workload)
        for name in os.listdir(folder):
            if not (name.startswith("seed-") and name.endswith(".json")):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as f:
                result = json.load(f)
            runs.setdefault(workload, {})[int(name[5:-5])] = result["metrics"]
    return runs


def summary(values):
    """'median [q1, q3]'."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(base, change, better, bound):
    """Returns (verdict, win fraction) for seed-paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    win_frac = wins / len(base)
    base_median = statistics.median(base)
    q1, _, q3 = statistics.quantiles(base, n=4)
    delta = sign * (statistics.median(change) - base_median)
    if win_frac >= 0.9 and delta > q3 - q1:
        return "improved", win_frac
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if base_median != 0 and (q3 - q1) / abs(base_median) > bound \
            and not all_better:
        return "unresolved", win_frac
    if delta < -bound * abs(base_median):
        return "worse", win_frac
    return "unchanged", win_frac


# choosing-metrics §8: at least ten pairs, alternating which side runs first.
PAIRS = 10
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "..", "BENCHMARK.json")


def report(args):
    with open(BENCHMARK, encoding="utf-8") as f:
        benchmark = json.load(f)
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)
    failing = {"worse", "unresolved"} if args.self else {"worse"}
    failed = False
    print(f"{'workload':14s} {'metric':34s} {'base median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'wins':>5s}  verdict")
    for workload in sorted(set(base_runs) & set(change_runs)):
        seeds = sorted(set(base_runs[workload]) & set(change_runs[workload]))
        if len(seeds) < 2:
            print(f"{workload}: fewer than two seed-matched pairs",
                  file=sys.stderr)
            failed = True
            continue
        for name, spec in specs.items():
            if name not in base_runs[workload][seeds[0]]:
                continue
            base = [base_runs[workload][s][name]["value"] for s in seeds]
            change = [change_runs[workload][s][name]["value"] for s in seeds]
            result, win_frac = verdict(base, change, spec["better"],
                                       spec["bound"])
            failed = failed or result in failing
            print(f"{workload:14s} {name:34s} {summary(base):>30s} "
                  f"{summary(change):>30s} {win_frac:5.2f}  {result}")
    return 1 if failed else 0


def run(args):
    with open(os.path.join(args.base, "BENCHMARK.json"),
              encoding="utf-8") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    for i in range(PAIRS):
        seed = args.first_seed + i
        sides = [("base", args.base), ("change", args.change)]
        if i % 2 == 1:
            sides.reverse()
        for workload in names:
            for side, checkout in sides:
                done = subprocess.run(
                    ["python3", "bench/e2e/run.py", "--workload", workload,
                     "--seed", str(seed), "--trace", "0"],
                    cwd=checkout, stdout=subprocess.PIPE, text=True,
                    check=False)
                if done.returncode != 0:
                    print(f"{side} {workload} seed {seed}: exit "
                          f"{done.returncode}", file=sys.stderr)
                    return 1
                folder = os.path.join(args.out, side, workload)
                os.makedirs(folder, exist_ok=True)
                with open(os.path.join(folder, f"seed-{seed}.json"), "w",
                          encoding="utf-8") as f:
                    f.write(done.stdout.strip().splitlines()[-1] + "\n")
                print(f"pair {i}: {side} {workload} seed {seed} done",
                      flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="collect alternating A/B runs")
    p_run.add_argument("--base", required=True)
    p_run.add_argument("--change", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--first-seed", type=int, default=1)
    p_report = sub.add_parser("report", help="compare two run sets")
    p_report.add_argument("base")
    p_report.add_argument("change")
    p_report.add_argument("--self", action="store_true",
                          help="both sets come from one commit")
    args = parser.parse_args()
    return run(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
