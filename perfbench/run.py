#!/usr/bin/env python3
"""GOSH benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench/ (and the library it
compiles from src/) into .bench_build/perfbench, runs one workload, and
passes its output through. The last stdout line is the result JSON; the
exit code is nonzero when the build fails, a run fails, an output check
fails, or the metrics printed do not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "run"
RUN_TIMEOUT_S = 170
# BENCHMARK.json gates serve-exact and serve-trained; the other three stay
# runnable by hand (perfbench/README.md says why), and the self-test keeps
# all five working.
ALL_WORKLOADS = ("train-resident", "train-largegraph", "serve-exact",
                 "serve-trained", "serve-dist")


def build():
    """Configures once, then builds incrementally. Build chatter -> stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", str(BUILD), "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns an error string, or None when `line` is a well-formed result
    carrying exactly the declared metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    want = declared_metrics(trace)
    have = {name: m.get("unit") for name, m in result["metrics"].items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            missing, extra)
    return None


def run_workload(args):
    command = [str(BUILD / "gosh_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(SCRATCH)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        sys.stdout.write(timeout.stdout or "")
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    error = check_result(lines[-1], args.trace) if lines else "no output"
    if error is not None:
        print("error: %s" % error, file=sys.stderr)
        return 1
    return proc.returncode


def self_test():
    """Unit checks of the benchmark's math, then every workload at tiny
    scale, untraced and traced, through the same result check."""
    selftest = subprocess.run([str(BUILD / "gosh_perfbench_selftest")],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    failures = 0 if selftest.returncode == 0 else 1
    for workload in ALL_WORKLOADS:
        for trace in (0, 1):
            command = [str(BUILD / "gosh_perfbench"), "--workload", workload,
                       "--seed", "7", "--seconds", "1", "--trace", str(trace),
                       "--scratch", str(SCRATCH), "--tiny"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            error = check_result(lines[-1], trace) if lines else "no output"
            if error is None and proc.returncode != 0:
                error = "exit code %d" % proc.returncode
            status = "ok" if error is None else "FAILED: " + error
            print("tiny %-18s trace %d  %s" % (workload, trace, status))
            failures += error is not None
    print("self-test: %s" % ("passed" if failures == 0 else
                             "%d failure(s)" % failures))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not (ROOT / "src").is_dir():
        print("error: no library sources at %s; run from a full checkout"
              % (ROOT / "src"), file=sys.stderr)
        return 1
    if not build():
        print("error: build failed", file=sys.stderr)
        return 1
    return self_test() if args.self_test else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
