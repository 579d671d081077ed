#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds land in .bench_build/. Each run gets a
fresh private TMPDIR, which must be empty when the benchmark exits (spool and
store files may not leak). The last line of standard output is the result
as one JSON object; see perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "nalq_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    steps = [["cmake", "-S", HERE, "-B", os.path.join(BUILD, "perfbench"),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", os.path.join(BUILD, "perfbench"),
              "--target", "nalq_perfbench", "-j", "4"]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def clean_env(tmpdir):
    # Engine knobs from the caller's environment would change what is
    # measured; the benchmark sets the ones it needs itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NALQ_")}
    env["TMPDIR"] = tmpdir
    return env


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    selftest = subprocess.run([BINARY, "--selftest"], stdout=sys.stderr,
                              stderr=subprocess.DEVNULL)
    if selftest.returncode:
        fail("self-test failed")

    tmpdir = os.path.join(BUILD, "tmp", "run-%d" % os.getpid())
    traces = os.path.join(BUILD, "traces")
    shutil.rmtree(tmpdir, ignore_errors=True)
    os.makedirs(tmpdir)
    os.makedirs(traces, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", traces]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=clean_env(tmpdir), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(tmpdir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    leaked = sorted(os.listdir(tmpdir))
    shutil.rmtree(tmpdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        fail("no result (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s" %
             (sorted(want - set(result["metrics"])),
              sorted(set(result["metrics"]) - want)))
    if leaked:
        print("perfbench: leaked temp entries: %s" % leaked, file=sys.stderr)
        result["failed"] += len(leaked)
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
