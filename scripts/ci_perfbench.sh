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
# Counter gate: the deterministic counts (`run.py --counts --seed 1`) of
# each workload must equal bench/baselines/perfbench_counts_seed1.json key
# for key. A change that moves a count on purpose (bytes per query, frame
# bytes, ...) updates that file and says why in CHANGES.md.
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

echo "=== perfbench counter gate ==="
baseline=bench/baselines/perfbench_counts_seed1.json
for workload in remote_point remote_summary live_ingest; do
  counts="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
    --seconds 1 --counts | tail -n 1)"
  if ! python3 - "${baseline}" "${workload}" "${counts}" <<'PY'
import json
import sys

path, workload, fresh = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
committed = json.load(open(path))[workload]
differ = sorted(k for k in committed.keys() | fresh.keys()
                if committed.get(k) != fresh.get(k))
for key in differ:
    print(f"FAIL: {workload} count {key}: committed {committed.get(key)}, "
          f"now {fresh.get(key)}", file=sys.stderr)
sys.exit(1 if differ else 0)
PY
  then
    status=1
  else
    echo "${workload}: counts equal ${baseline}"
  fi
done
exit "${status}"
