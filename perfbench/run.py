#!/usr/bin/env python3
"""Builds and runs the repo benchmark driver (perfbench/driver.cc).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selfcheck

The first form builds the library and the driver from the checkout's sources
into .bench_build/perfbench (incremental after the first run), runs one
workload, and passes the driver's output through: the last stdout line is
the JSON result. It exits non-zero, without a result line, when the build or
a correctness gate fails.

--selfcheck runs every workload at its smallest size and checks that the
simulated metrics are identical across two runs and at the pinned thread
count versus four, and that another seed changes the inputs.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perf_driver")
WORKLOADS = ("publish_1k", "query_paper", "serve_manet")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("no library sources next to perfbench/; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(
            [
                "cmake",
                "-S",
                os.path.join(ROOT, "perfbench"),
                "-B",
                BUILD_DIR,
                "-DCMAKE_BUILD_TYPE=Release",
            ]
        )
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perf_driver", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(
                cmd,
                cwd=ROOT,
                stdout=sys.stderr,
                stderr=sys.stderr,
                timeout=BUILD_TIMEOUT_S,
                check=False,
            )
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build step failed: %s" % err)
            return False
        if done.returncode != 0:
            log("build step failed: %s" % " ".join(cmd))
            return False
    return os.path.isfile(DRIVER)


def run_driver(args):
    """Runs the driver; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(
            [DRIVER] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            timeout=RUN_TIMEOUT_S,
            check=False,
            text=True,
        )
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def sim_metrics(lines):
    for line in lines:
        if line.startswith("SIM "):
            return {k: v["value"] for k, v in json.loads(line[4:]).items()}
    return None


def selfcheck():
    ok = True
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seconds", "1", "--trace", "0", "--size", "tiny"]
        runs = {
            "seed 1": base + ["--seed", "1"],
            "seed 1 again": base + ["--seed", "1"],
            "seed 1, 4 threads": base + ["--seed", "1", "--threads", "4"],
            "seed 2": base + ["--seed", "2"],
        }
        sims = {}
        for name, args in runs.items():
            code, lines = run_driver(args)
            sims[name] = sim_metrics(lines)
            if code != 0 or sims[name] is None:
                log("%s (%s): driver failed" % (workload, name))
                ok = False
        if not ok:
            continue
        reference = sims["seed 1"]
        for name in ("seed 1 again", "seed 1, 4 threads"):
            diff = sorted(k for k in reference if reference[k] != sims[name].get(k))
            if diff:
                log("%s: %s differs from seed 1 in %s" % (workload, name, ", ".join(diff)))
                ok = False
        if sims["seed 2"]["inputs_digest"] == reference["inputs_digest"]:
            log("%s: seed 2 produced the same inputs as seed 1" % workload)
            ok = False
        print(
            "%s: %d simulated metrics identical across runs and thread counts; "
            "seed changes inputs: %s"
            % (workload, len(reference), sims["seed 2"]["inputs_digest"] != reference["inputs_digest"])
        )
    print("selfcheck: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not build():
        return 2
    if args.selfcheck:
        return selfcheck()
    code, lines = run_driver(
        [
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
    )
    if code != 0:
        # Keep the driver's diagnostics, but never let a failed run end with
        # something that reads as a result.
        for line in lines:
            if not line.startswith("{"):
                print(line)
        log("driver exited with %d" % code)
        return code
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
