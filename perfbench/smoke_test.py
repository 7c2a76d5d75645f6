#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json on a short simulated horizon, untraced
and traced, and fails unless each run passes its output check and emits
every metric BENCHMARK.json names, with the declared unit. Takes about a
minute after the build.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HORIZON_US = 500


def check_run(cmd, declared, bench, trace):
    """Problems found in one benchmark run; empty when it passed."""
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        return ["exit code %d" % r.returncode]
    lines = r.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(res))
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        problems.append("output check failed (%d of %d)"
                        % (res["failed"], res["attempted"]))
    for m in declared:
        got = res["metrics"].get(m["name"])
        if got is None:
            problems.append("missing " + m["name"])
        elif got["unit"] != m["unit"] or \
                not isinstance(got["value"], (int, float)):
            problems.append("%s is %r" % (m["name"], got))
    if trace:
        text = "\n".join(lines[:-1])
        problems += ["%s not printed" % m["name"]
                     for m in bench["end_to_end"] + bench["per_layer"]
                     if m["name"] not in text]
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed_runs = 0
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            cmd = bench["command"] + [
                "--workload", w["name"], "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--horizon-us", str(HORIZON_US)]
            where = "%s --trace %d" % (w["name"], trace)
            found = check_run(cmd, declared, bench, trace)
            failed_runs += bool(found)
            print(("FAIL " if found else "ok   ") + where, flush=True)
            for p in found:
                print("     " + p)
    sys.exit(1 if failed_runs else 0)


if __name__ == "__main__":
    main()
