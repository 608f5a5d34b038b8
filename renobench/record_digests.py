#!/usr/bin/env python3
"""Record in renobench/digests.json the digest of simulated results that
each full-size workload prints at each of seeds 0-31.  run.py counts a
run whose digest differs from the recorded one as failed.

    python3 renobench/record_digests.py        (from the repository root)

Re-record only for a change that is meant to alter simulated output,
and say so in its description.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = range(32)


def main():
    run.build()
    digests = {}
    for w in run.WORKLOADS:
        digests[w] = {}
        for seed in SEEDS:
            run.deadline = time.monotonic() + run.DEADLINE_S
            r = run.child(["world", "--workload", w, "--seed", str(seed)])
            if r is None or not r["ok"]:
                run.log(f"record_digests: {w} seed {seed} did not finish cleanly")
                sys.exit(1)
            digests[w][str(seed)] = r["digest"]
            run.log(f"  {w} seed {seed}: {r['digest']}")
    with open(run.DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
