#!/usr/bin/env bash
# ThreadSanitizer job for the parallel traversal engine.
#
# Builds the tree in a dedicated build directory with
# -DMRPA_SANITIZE=thread (see the root CMakeLists.txt) and runs the
# `parallel`-, `arena`-, `obs`-, `storage`-, and `service`-labeled ctest
# suites — thread_pool_test, parallel_differential_test,
# arena_differential_test, the obs_* suites, the snapshot_* suites, and the
# service_* suites — under TSAN. These are
# the suites that actually exercise cross-thread shard expansion
# (including the per-shard PathArenas), the work-stealing pool, the replay
# merge, the per-shard observability slabs (worker threads write
# speculation counters into ObsRegistry at pool width 8), parallel
# traversal over mmap'ed SnapshotUniverse backings at pool width 8, and
# the serving substrate (epoch-reclaimed snapshot hot-swap, concurrent
# admission, and the short default chaos soak; scripts/ci_chaos.sh runs
# the long soak), plus the `compiler`-labeled suites — the pass-pipeline
# differential harness runs the speculate+replay executor against the
# shared deadline/cancel machinery, which is the compiler's only
# thread-visible surface, plus the `frontier`-labeled suites — the
# dense-frontier differential harness drives the per-shard density decision
# (each shard builds its own level caches and writes the frontier.* strategy
# counters into its ObsRegistry slot) at pool widths 1/2/8, plus the
# `delta`-labeled suites — the live-graph step-wise differential harness
# runs overlay merge views through the parallel engine at pool widths
# 1/2/8, a background Compactor races a live overlay writer, and
# dynamic_graph_test's concurrent-const-reads regression (the lazy-cache
# rebuild race) only means something under TSAN, plus the `net`-labeled
# suites — the epoll server splits every request across three threads
# (event loop, dispatch worker, back through the loop via the completion
# queue), and the socket chaos soak runs all of it against hot-swaps at
# once; the rest of the
# test matrix is single-threaded and covered by the regular tier1 job.
#
# The race-sensitive labels then run a SECOND leg with MRPA_FORCE_SCALAR=1:
# the env override pins the frontier kernel dispatch to the scalar fallback
# (see src/frontier/kernels.h), proving the parallel suites race-free on
# hardware without the SIMD tiers — dispatch itself is process-wide state,
# so the forced path needs its own TSAN pass, not just a unit test.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default: build-tsan)
# Env:   MRPA_FUZZ_ITERS — differential trials per (seed, regime, subject)
#        in the compiler pipeline harness (default 10; nightly jobs pass
#        more via scripts/ci_fuzz.sh). Inherited by ctest from here.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMRPA_SANITIZE=thread
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error makes a single race fail the job instead of scrolling by;
# second_deadlock_stack gives usable reports for lock-order findings.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

ctest --test-dir "${BUILD_DIR}" -L "parallel|arena|obs|storage|service|compiler|frontier|delta|net" --output-on-failure -j 2

echo "=== forced-scalar leg (MRPA_FORCE_SCALAR=1) ==="
MRPA_FORCE_SCALAR=1 ctest --test-dir "${BUILD_DIR}" \
  -L "parallel|arena|frontier" --output-on-failure -j 2
