#!/usr/bin/env bash
# Serving-stack benchmark smoke job.
#
# Tier-1 does not build perfbench/, so a library change that breaks its
# build, or that makes a served answer's counters disagree with the
# in-process answer perfbench checks every response against, would
# otherwise show up only when the benchmark runs. This job runs each of the
# three workloads for a few seconds through perfbench/run.py (which builds
# perfbench_gen and perfbench_run from this checkout, into .bench_build/ or
# $CARGO_TARGET_DIR) and fails unless every result has "correct": true and
# "failed": 0. It gates correctness only; the numbers of a 3-second run are
# not compared with anything (BENCHMARK.json's bounds do that).
#
# Usage: scripts/ci_perfbench.sh

set -euo pipefail

cd "$(dirname "$0")/.."

status=0
for workload in remote_point remote_summary live_ingest; do
  echo "=== perfbench ${workload} ==="
  result="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
    --seconds 3 --trace 0 | tail -n 1)"
  echo "${result}"
  if ! python3 - "${result}" <<'PY'
import json
import sys

result = json.loads(sys.argv[1])
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0
         else 1)
PY
  then
    echo "FAIL: ${workload} is not correct or has failed operations" >&2
    status=1
  fi
done
exit "${status}"
