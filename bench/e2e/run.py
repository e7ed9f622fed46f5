#!/usr/bin/env python3
"""Builds and runs gg_bench, the end-to-end benchmark of the gogreen daemon.

Run from the repository root:

    python3 bench/e2e/run.py --workload <name|all> --seed <n> --trace <0|1> \
        [--seconds <run_seconds>]

It builds the daemon and the load generator from source into build-e2e
(bench/e2e/CMakeLists.txt), runs the workload, and prints gg_bench's
`name value unit` lines followed by one JSON object as the last line:

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}

--trace 0 reports the end-to-end metrics BENCHMARK.json lists, --trace 1
its per-layer metrics; anything else, or a wrong answer, exits non-zero.
Every run measures for BENCHMARK.json's run_seconds, so that the two sides
of an A/B comparison run equally long. --seconds is accepted for callers
that pass the run length explicitly, and must repeat that value.

    python3 bench/e2e/run.py --quick [--gg-bench <binary>]

runs every workload for about two seconds both ways and checks each
result against BENCHMARK.json (the ctest smoke test).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = "build-e2e"
# Each run must end within 180 s; the first one also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds gg_bench and the daemon."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tools/gogreen_cli.cc"):
        if not os.path.isfile(needed):
            raise RuntimeError(f"{needed} is missing: run from the root of a "
                               "gogreen checkout")
    steps = [["cmake", "--build", BUILD_DIR, "--target", "gg_bench",
              "--", f"-j{min(4, os.cpu_count() or 1)}"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", "bench/e2e", "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(step)} failed")
    return os.path.join(BUILD_DIR, "gg_bench")


def expected_metrics(benchmark, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def run_one(gg_bench, benchmark, workload, seed, seconds, trace, quick):
    """Runs one workload; returns its result after checking its metrics."""
    workdir = os.path.join(BUILD_DIR, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    out = os.path.join(workdir, "result.json")
    command = [gg_bench, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--workdir", workdir, "--out", out]
    if trace:
        command.append("--traced")
    if quick:
        command.append("--quick")
    try:
        # Its own process group, so that a timeout also stops the daemon
        # gg_bench started.
        child = subprocess.Popen(command, stdout=sys.stdout,
                                 stderr=sys.stderr, start_new_session=True)
        try:
            returncode = child.wait(timeout=RUN_TIMEOUT_S)
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        if returncode not in (0, 1) or not os.path.isfile(out):
            raise RuntimeError(f"gg_bench failed on {workload} "
                               f"(exit {returncode})")
        with open(out, encoding="utf-8") as f:
            result = json.load(f)
        if trace:
            for name in ("replay.trace.json", "daemon.trace.json"):
                shutil.copyfile(os.path.join(workdir, name),
                                os.path.join(BUILD_DIR, f"{workload}.{name}"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    want = expected_metrics(benchmark, trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise RuntimeError(
            f"{workload}: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, unexpected "
            f"{sorted(set(got) - set(want))}, units "
            f"{sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--gg-bench", help="a built gg_bench; skips the build")
    args = parser.parse_args()
    if not args.quick and not args.workload:
        parser.error("--workload is required")

    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            benchmark = json.load(f)
        workloads = [w["name"] for w in benchmark["workloads"]]
        seconds = benchmark["run_seconds"]
        if args.seconds is not None and args.seconds != seconds:
            raise RuntimeError(f"--seconds must be run_seconds ({seconds}) "
                               "from BENCHMARK.json")
        if not args.quick and args.workload not in workloads + ["all"]:
            raise RuntimeError(f"unknown workload {args.workload}")
        gg_bench = args.gg_bench or build()
        if args.quick:
            for workload in workloads:
                for trace in (0, 1):
                    result = run_one(gg_bench, benchmark, workload, args.seed,
                                     2, trace, True)
                    if not result["correct"] or result["failed"] != 0:
                        raise RuntimeError(f"{workload}: failed requests")
                    log(f"{workload} --trace {trace}: ok")
            return 0
        chosen = workloads if args.workload == "all" else [args.workload]
        correct = True
        for workload in chosen:
            result = run_one(gg_bench, benchmark, workload, args.seed,
                             seconds, args.trace, False)
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
        return 0 if correct else 1
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(str(error))
        return 2


if __name__ == "__main__":
    sys.exit(main())
