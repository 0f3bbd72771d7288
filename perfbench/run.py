#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <append-mem|mixed-mem|mixed-wal|sim-paper|all>
                             --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --smoke      # self-test, then every workload once, 1 s
    python3 perfbench/run.py --selftest   # generator, percentile and simulator checks

--workload all runs the workloads BENCHMARK.json lists (append-mem and
sim-paper). mixed-mem (50% lease reads) and mixed-wal (the same on WALs on the
host disk) run only by name or in --smoke: mixed-wal's figures follow the
disk's fdatasync latency, which on a shared host moves by more than any bound,
and mixed-mem is left out so that the tracked runs can be long enough to be
steady within the time the benchmark is given.

The benchmark binary is built from source (perfbench/CMakeLists.txt compiles
the repository's libraries from src/) into .bench_build/ at the repository
root. Each run gets a fresh working tree under .bench_run/ (WAL directories
for mixed-wal), removed when the run ends; a traced run leaves its spans in
.bench_out/<workload>.spans.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only if the build succeeded and every
correctness and validity check passed. With --workload all, one row per
workload is printed and the last line aggregates them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["append-mem", "mixed-mem", "mixed-wal", "sim-paper"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if proc.returncode != 0:
            log(proc.stdout.decode(errors="replace")[-4000:])
            log(f"perfbench: build failed: {' '.join(cmd)}")
            return False
    # Write back what the build (or an earlier run's WAL trees) left dirty, so
    # the kernel's flush does not land inside the measurement: on ext4 it
    # stalls every fdatasync of mixed-wal for tens of seconds.
    os.sync()
    return True


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, []
    return proc.returncode, proc.stdout.decode(errors="replace").splitlines()


def run_workload(workload, seed, seconds, trace):
    """One measurement; prints its output and returns (exit code, result dict)."""
    work = os.path.join(RUN_DIR, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)  # parents included: the servers do not create them
    args = [f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
            f"--trace={trace}", f"--wal-root={work}"]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        args.append(f"--spans-out={os.path.join(OUT_DIR, workload + '.spans.jsonl')}")
    try:
        code, lines = run_binary(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass  # another run's tree is still there
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"perfbench: {workload} printed no result")
        return (code or 1), None
    declared = declared_metrics(trace)
    if declared is not None and list(result["metrics"]) != declared:
        log(f"perfbench: {workload} reported {sorted(result['metrics'])}, "
            f"BENCHMARK.json declares {sorted(declared)}")
        return (code or 1), None
    return code, result


def load_spec():
    """BENCHMARK.json, or None when it is missing or unreadable."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, in order."""
    spec = load_spec()
    if spec is None:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def tracked_workloads():
    """The workloads BENCHMARK.json lists, in its order."""
    spec = load_spec()
    if spec is None:
        return None
    return [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    workloads = tracked_workloads()
    if args.selftest or args.smoke:
        code, lines = run_binary(["--selftest"])
        print("\n".join(lines))
        if code != 0 or args.selftest:
            return code
        args.workload, args.seconds, workloads = "all", 1, WORKLOADS
    if args.workload == "all" and workloads is None:
        log("perfbench: --workload all needs a readable BENCHMARK.json")
        return 1

    if args.workload != "all":
        code, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code
        print(json.dumps(result))
        return code

    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, result = run_workload(workload, args.seed, args.seconds, args.trace)
        worst = worst or code
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return worst or (0 if summary["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
