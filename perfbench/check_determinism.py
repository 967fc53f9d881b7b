#!/usr/bin/env python3
"""Checks that the benchmark's counts are a function of the seed.

    python3 perfbench/check_determinism.py [--seed N] [--workload W ...]

For each workload it runs `run.py --counts` twice on one seed and once on
the next. The counts must repeat exactly for the seed, and the request and
answer digests must change with it. Exits non-zero on a mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("remote_point", "remote_summary", "live_ingest")
DIGESTS = ("request_digest", "answer_digest")


def counts(workload, seed):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--counts"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first = counts(workload, args.seed)
        again = counts(workload, args.seed)
        other = counts(workload, args.seed + 1)
        repeated = first == again
        changed = [k for k in first if first[k] != other[k]]
        digests_changed = all(k in changed for k in DIGESTS)
        print(f"{workload}: repeats for seed {args.seed}: {repeated}; "
              f"seed {args.seed + 1} changes {len(changed)}/{len(first)} "
              f"counts ({', '.join(changed)})")
        if not repeated:
            for k in first:
                if first[k] != again[k]:
                    print(f"  {k}: {first[k]} then {again[k]}")
        ok = ok and repeated and digests_changed
    print("determinism check " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
