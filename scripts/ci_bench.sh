#!/usr/bin/env bash
# Benchmark job for the recorded perf experiments.
#
# Builds Release and runs the experiments whose regressions we gate on —
# E15 (governance guard overhead), E16 (parallel fold speedup), E17 (path
# arena vs materialized fold), E19 (snapshot storage: cold load vs TSV
# parse, traversal over mmap vs in-memory), E20 (serving substrate:
# open-loop latency-vs-offered-QPS with and without admission control),
# E21 (query compiler: pass-pipeline compile cost and optimized-vs-not
# run time on redundant and chain workloads), E22 (dense-frontier fast
# path: sparse/dense crossover, §IV-C projection throughput, kernel-tier
# ratio), E23 (live-graph delta pipeline: overlay read overhead at
# 0/1/10% delta fill, view build + compaction throughput, hot-swap
# latency), and E24 (network front door: open-loop latency-vs-offered-QPS
# through real sockets with admission on/off, plus the wire-codec
# round-trip floor), and E25 (computed answer modes: count by
# enumerate-then-reduce vs the count fold on anchored chains of depth
# 2–6) — writing one machine-readable BENCH_<n>.json
# per experiment via the --json flag (see MRPA_BENCH_MAIN in
# bench/bench_common.h), plus a TRACE_<n>.json span/counter breakdown via
# --trace (the ObsRegistry export; schema locked by tests/obs_json_test.cc).
# Numbers land in EXPERIMENTS.md by hand.
#
# Regression gate: after the runs, every BENCH_<n>.json with a committed
# baseline in bench/baselines/ is compared per-benchmark, in two halves
# with separate verdicts:
#   * wall clock — real_time; a regression beyond the tolerance fails. It
#     only means something on the machine the baselines were recorded on.
#   * counters — every user counter of each baselined row except rates
#     (*_per_second, *_per_sec) must equal the baseline exactly: paths,
#     arcs, levels, merged edges, image and frame bytes are the same on
#     every host, so a difference is a change in the work done, named as
#     (experiment, row, counter).
# Baselines are opt-in (experiments without one are trend-only —
# shared-runner wall clock is too noisy to gate every experiment) and
# refreshed by re-running with MRPA_BENCH_UPDATE_BASELINE=1 on the
# reference machine and committing the result.
#
# Usage: scripts/ci_bench.sh [build-dir] [out-dir]
#        (defaults: build-bench, bench-results)
# Env:   MRPA_BENCH_MIN_TIME        — per-benchmark min time (default 0.5).
#        MRPA_BENCH_TOLERANCE       — allowed real_time regression vs the
#                                     baseline, percent (default 10).
#        MRPA_BENCH_UPDATE_BASELINE — 1: copy this run's BENCH_<n>.json over
#                                     bench/baselines/ instead of gating.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
OUT_DIR="${2:-bench-results}"
# Plain seconds, no unit suffix: the google-benchmark builds we run against
# parse --benchmark_min_time as a bare double and reject "0.5s".
MIN_TIME="${MRPA_BENCH_MIN_TIME:-0.5}"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target bench_guard_overhead bench_parallel_traversal bench_path_arena \
           bench_snapshot bench_service bench_compiler bench_frontier \
           bench_delta bench_net bench_answer_modes

mkdir -p "${OUT_DIR}"

run_bench() {  # run_bench <experiment-number> <binary>
  local n="$1" bin="$2"
  echo "=== E${n}: ${bin} ==="
  # Timing pass first, registry detached — BENCH_<n>.json numbers are the
  # disabled-mode figures the E18 overhead claim gates on.
  "${BUILD_DIR}/bench/${bin}" \
    --benchmark_min_time="${MIN_TIME}" \
    --json="${OUT_DIR}/BENCH_${n}.json"
  # Then a short instrumented pass for the span/counter breakdown.
  "${BUILD_DIR}/bench/${bin}" \
    --benchmark_min_time=0.1 \
    --trace="${OUT_DIR}/TRACE_${n}.json" >/dev/null
}

run_bench 15 bench_guard_overhead
run_bench 16 bench_parallel_traversal
run_bench 17 bench_path_arena
run_bench 19 bench_snapshot
run_bench 20 bench_service
run_bench 21 bench_compiler
run_bench 22 bench_frontier
run_bench 23 bench_delta
run_bench 24 bench_net
# Trend-only (no committed baseline): wall-clock baselines recorded on one
# machine do not gate another, and E25's claim is a ratio between its own
# rows, which a single run on any host shows.
run_bench 25 bench_answer_modes

echo "Wrote $(ls "${OUT_DIR}"/BENCH_*.json | wc -l) result files to ${OUT_DIR}/"

BASELINE_DIR="bench/baselines"
if [[ "${MRPA_BENCH_UPDATE_BASELINE:-0}" == "1" ]]; then
  mkdir -p "${BASELINE_DIR}"
  cp "${OUT_DIR}"/BENCH_*.json "${BASELINE_DIR}/"
  echo "Updated baselines in ${BASELINE_DIR}/ — review and commit."
  exit 0
fi

python3 - "${BASELINE_DIR}" "${OUT_DIR}" "${MRPA_BENCH_TOLERANCE:-10}" <<'PY'
import glob
import json
import os
import sys

baseline_dir, out_dir, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])

# Row fields google-benchmark writes itself; every other numeric field is a
# user counter.
STANDARD_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "aggregate_unit",
    "label", "error_occurred", "error_message",
}

def by_name(path):
    """name -> row for one google-benchmark JSON export."""
    with open(path) as f:
        doc = json.load(f)
    table = {}
    for b in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev of --benchmark_repetitions)
        # would double-count; gate on the plain iteration rows only.
        if b.get("run_type") == "aggregate":
            continue
        table[b["name"]] = b
    return table

def counters(row):
    """The row's deterministic user counters: rates depend on the clock."""
    return {key: value for key, value in row.items()
            if key not in STANDARD_FIELDS
            and isinstance(value, (int, float))
            and not key.endswith(("_per_second", "_per_sec"))}

time_failures = []
timed = 0
counter_failures = []
counted = 0
for baseline_path in sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json"))):
    name = os.path.basename(baseline_path)
    current_path = os.path.join(out_dir, name)
    if not os.path.exists(current_path):
        print(f"note: {name} has a baseline but no result this run; skipped")
        continue
    baseline, current = by_name(baseline_path), by_name(current_path)
    for bench, base_row in sorted(baseline.items()):
        row = current.get(bench)
        for counter, expected in sorted(counters(base_row).items()):
            counted += 1
            actual = None if row is None else row.get(counter)
            if actual != expected:
                counter_failures.append(
                    f"{name} {bench} {counter}: {expected} -> {actual}")
        base_time = float(base_row["real_time"])
        if row is None or base_time <= 0:
            continue
        timed += 1
        delta = 100.0 * (float(row["real_time"]) - base_time) / base_time
        marker = " <-- REGRESSION" if delta > tolerance else ""
        print(f"{name} {bench}: {base_time:.3g} -> {float(row['real_time']):.3g} "
              f"({delta:+.1f}%){marker}")
        if delta > tolerance:
            time_failures.append(f"{name} {bench} regressed {delta:+.1f}% "
                                 f"(tolerance {tolerance:.0f}%)")

for failure in counter_failures:
    print(f"COUNTER DIFFERS: {failure}")

if not timed and not counted:
    print("No committed baselines to gate on "
          "(re-run with MRPA_BENCH_UPDATE_BASELINE=1 to record some).")
    sys.exit(0)
if time_failures:
    print("wall clock: FAIL: " + "; ".join(time_failures))
else:
    print(f"wall clock: PASS: {timed} benchmarks within {tolerance:.0f}% "
          "of baseline")
if counter_failures:
    print(f"counters: FAIL: {len(counter_failures)} of {counted} differ")
else:
    print(f"counters: PASS: {counted} of {counted} equal")
if time_failures or counter_failures:
    sys.exit(1)
PY
