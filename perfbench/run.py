#!/usr/bin/env python3
"""HARP benchmark entry point.

Builds harpd and the benchmark binary from this checkout's sources (first
use only), runs one workload, and prints its result as the last line of
standard output:

    python3 perfbench/run.py --workload daemon_roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. Build output goes to .bench_build/, per-run
scratch (harpd's socket and log) to .bench_run/<pid>/ which is removed on
exit, and traced runs write their spans to .bench_out/.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("daemon_roundtrip", "rm_catalog_walk", "sim_learning")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure and build once; later calls are no-op incremental builds."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("HARP sources (src/) not found next to perfbench/; nothing to benchmark")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_bench(argv):
    """Run the benchmark binary in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"harp_perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def valid_result(result):
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["correct"], bool)
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every output check fires on corrupted input")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    if not build():
        return 1
    bench = os.path.join(BUILD, "harp_perfbench")
    if args.self_test:
        return subprocess.run([bench, "--self-test"]).returncode

    run_dir = os.path.join(".bench_run", str(os.getpid()))
    os.makedirs(run_dir)
    argv = [bench, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--run-dir", run_dir, "--harpd", os.path.join(BUILD, "harpd")]
    if args.trace:
        os.makedirs(".bench_out", exist_ok=True)
        argv += ["--trace-out",
                 os.path.join(".bench_out", f"{args.workload}-seed{args.seed}.spans.jsonl")]
    try:
        code, out = run_bench(argv)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_run")
        except OSError:
            pass
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"harp_perfbench failed (exit {code})")
        return code or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harp_perfbench printed no result line")
        return 1
    if not valid_result(result):
        log("malformed result line")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
