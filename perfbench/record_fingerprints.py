#!/usr/bin/env python3
"""Records the expected stream_fingerprint per workload inputs and seed.

    python3 perfbench/record_fingerprints.py FIRST_SEED LAST_SEED

Runs each distinct workload input once per seed at its default horizon and
merges the fingerprints into perfbench/fingerprints.json, which run.py's
output check compares against. Rerun after changing a workload's spec or
horizon; a fingerprint that changes for an unchanged spec is a bug.
"""

import json
import sys

import run


def main():
    first, last = int(sys.argv[1]), int(sys.argv[2])
    run.build()
    try:
        with open(run.FINGERPRINTS) as f:
            table = json.load(f)
    except FileNotFoundError:
        table = {}
    # One workload per distinct input set: equal inputs emit equal streams.
    for workload in ("rotor128", "opera64"):
        for seed in range(first, last + 1):
            rep = run.run_rep(workload, seed, False, 0)
            if rep is None:
                sys.exit("record_fingerprints: %s seed %d failed"
                         % (workload, seed))
            (table.setdefault(rep["inputs"], {})
             .setdefault(str(rep["horizon_us"]), {})[str(seed)]) = \
                rep["fingerprint"]
            print(workload, seed, rep["fingerprint"], flush=True)
    with open(run.FINGERPRINTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
