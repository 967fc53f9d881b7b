#!/usr/bin/env python3
"""The mrpa serving-stack benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload remote_point --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds perfbench_gen and perfbench_run from
source into .bench_build/ (or $CARGO_TARGET_DIR when set), writes the seed's
inputs with perfbench_gen in a process of its own, runs perfbench_run on
them, and prints the run's JSON result as the last line of standard output:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. Build
output and the run's report go to standard error. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("remote_point", "remote_summary", "live_ingest")
PROGRAMS = ("perfbench_gen", "perfbench_run")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Names the benchmark's own sources must never mention: a metrics registry
# attached to the stack recalibrates density thresholds and turns on
# deadline-based admission rejects, and a compaction scheduler folds on a
# timer. Either would measure a different program than the one deployed.
FORBIDDEN = ("ObsRegistry", "CompactionScheduler")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_tree():
    for path in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, path)):
            fail(f"no {path} at {ROOT}: run from a full source checkout")
    for source in glob.glob(os.path.join(HERE, "*.cc")) + glob.glob(
            os.path.join(HERE, "*.h")):
        with open(source, encoding="utf-8") as f:
            text = f.read()
        for name in FORBIDDEN:
            if name in text:
                fail(f"{os.path.basename(source)} mentions {name}")


def build_dir():
    default = os.path.join(ROOT, ".bench_build")
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or default)


def build():
    """Configures once, then builds incrementally; returns the binary dir."""
    out = os.path.join(build_dir(), "perfbench")
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", out, "-j", jobs, "--target", *PROGRAMS]
    if subprocess.run(command, stdout=log, stderr=log).returncode != 0:
        fail("build failed", 1)
    return out


def pin_to_one_cpu():
    """Confines the calling process to the first CPU it may run on.

    On a shared VM an idle vCPU is descheduled by the host, and waking it
    costs a delay that follows the host's load. With the whole stack on one
    CPU, the closed loop always has a runnable thread, so the vCPU never idles
    and the numbers follow the program instead of the neighbours.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase; BENCHMARK.json "
                        "gives the benchmark's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts", action="store_true",
                        help="print the deterministic counts only")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    check_tree()
    binaries = build()
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--dir", work]
        generate = [os.path.join(binaries, "perfbench_gen"), *common]
        if subprocess.run(generate, timeout=120).returncode != 0:
            fail("input generation failed", 1)
        run = [os.path.join(binaries, "perfbench_run"), *common,
               "--trace", str(args.trace)]
        if args.counts:
            run.append("--counts")
        elif args.trace:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            run += ["--trace-out", os.path.join(traces, args.workload + ".tsv")]
        done = subprocess.run(run, stdout=subprocess.PIPE, text=True,
                              timeout=150, preexec_fn=pin_to_one_cpu)
        if done.returncode != 0:
            fail(f"perfbench_run exited with {done.returncode}", 1)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if not args.counts and (not isinstance(result, dict)
                                or set(result) != RESULT_KEYS):
            fail("perfbench_run printed no result", 1)
        print(json.dumps(result), flush=True)
    except subprocess.TimeoutExpired as e:
        fail(f"{os.path.basename(e.cmd[0])} timed out", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
