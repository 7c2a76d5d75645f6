#!/usr/bin/env python3
"""Simulator benchmark: set-up time, run speed and peak memory per workload.

    python3 perfbench/run.py --workload rotor128 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (and the simulator sources it
compiles) into .bench_build/, then starts the oo_perfbench binary once per
repetition, each in a fresh process, so a repetition's peak RSS is its own.

--trace 0  one traced repetition that only feeds the output check, then
           untraced ones for --seconds; reports the end-to-end metrics.
--trace 1  a traced repetition, then untraced/traced pairs for --seconds;
           reports the per-layer metrics (and prints the end-to-end ones).

Every repetition is checked: its stream_fingerprint must equal the value
recorded in fingerprints.json for the workload's inputs, horizon and seed
(or, for an unrecorded seed, the first repetition's), and its deterministic
counts must equal the first repetition's, traced or not. A repetition that
crashes or fails a check counts as failed. The last stdout line is the JSON
result; the lines before it name every metric with its unit, and the host.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "oo_perfbench")
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")
WORKLOADS = ("rotor128", "opera64", "rotor128_sharded")
# Workloads whose repetitions are confined to one CPU. The sharded engine's
# two threads meet at a barrier thousands of times per repetition; on a
# shared VM, waking a thread on another vCPU costs from microseconds to a
# host time slice, and the run time swung twofold with it. On one CPU each
# hand-off is a local context switch.
ONE_CPU = ("rotor128_sharded",)
REP_TIMEOUT_S = 120
MIN_UNTRACED_REPS = 3

# Equal between every repetition of one seed, traced or not.
CHECKED_COUNTS = ("events", "flows_emitted", "flows_completed", "delivered",
                  "injected", "congestion_drops", "fabric_drops",
                  "no_route_drops", "tft_entries", "windows",
                  "cross_delivered")

# Profiler tag -> per-layer metric prefix.
TAG_LAYERS = (("traffic.wave", "traffic.wave"), ("tcp.rto", "transport.rto"),
              ("fluid.wake", "transport.fluid_wake"), ("link", "net.link"),
              ("fabric.deliver", "optics.fabric_deliver"),
              ("tor.drain", "core.tor_drain"), ("rotation", "core.rotation"),
              ("host.stack", "core.host_stack"))


def build():
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "oo_perfbench",
              "-j", "4"]]
    if os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps = steps[1:]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_rep(workload, seed, traced, horizon_us):
    """One repetition in its own process; returns its JSON plus rss_mb, or
    None when it crashed, timed out or printed no result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--horizon-us", str(horizon_us)]
    if traced:
        cmd.append("--traced")
    pin = None
    if workload in ONE_CPU:
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=pin)
    deadline = time.monotonic() + REP_TIMEOUT_S
    try:
        while True:
            # wait4 rather than wait(): it returns this child's own rusage.
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.returncode != 0:
        sys.stderr.write("perfbench: %s exited with %d\n"
                         % (" ".join(cmd), proc.returncode))
        return None
    try:
        rep = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        sys.stderr.write("perfbench: no result from %s\n" % " ".join(cmd))
        return None
    rep["rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return rep


def recorded_fingerprint(rep):
    try:
        with open(FINGERPRINTS) as f:
            table = json.load(f)
    except FileNotFoundError:
        return None
    return (table.get(rep["inputs"], {}).get(str(rep["horizon_us"]), {})
            .get(str(rep["seed"])))


def check(reps):
    """Returns the failed-repetition count. None entries crashed."""
    ok = [r for r in reps if r is not None]
    failed = len(reps) - len(ok)
    if not ok:
        return failed
    ref = ok[0]
    want_fp = recorded_fingerprint(ref) or ref["fingerprint"]
    for r in ok:
        why = []
        if r["fingerprint"] != want_fp:
            why.append("fingerprint %s != %s" % (r["fingerprint"], want_fp))
        why += ["%s %d != %d" % (k, r[k], ref[k])
                for k in CHECKED_COUNTS if r[k] != ref[k]]
        if r["flows_completed"] <= 0 or r["delivered"] <= 0:
            why.append("no flow completed or packet delivered")
        if why:
            failed += 1
            sys.stderr.write("perfbench: check failed (seed %d, traced=%s): "
                             "%s\n" % (r["seed"], r["traced"], "; ".join(why)))
    return failed


def end_to_end(untraced):
    """(value, unit) per end-to-end metric: medians over the untraced
    repetitions."""
    med = lambda f: statistics.median(f(r) for r in untraced)  # noqa: E731
    return {
        "setup_s": (med(lambda r: r["setup_s"]), "s"),
        "run_ms_per_sim_ms": (
            med(lambda r: r["run_s"] * 1e3 / (r["horizon_us"] / 1e3)), "ms"),
        "peak_rss_mb": (med(lambda r: r["rss_mb"]), "MiB"),
    }


def per_layer(untraced, traced):
    """(value, unit) per per-layer metric: exact counts from the first
    traced repetition, timings as medians over the traced ones, and
    wall-clock rates over the untraced ones, which tracing would distort."""
    ref = traced[0]
    med = lambda f: statistics.median(f(r) for r in traced)  # noqa: E731
    run_s = statistics.median(r["run_s"] for r in untraced)
    traced_run_s = med(lambda r: r["run_s"])
    events = ref["events"]

    def tag_ns(r, tag):
        n, ns = r["profile"].get(tag, (0, 0))
        return ns / n if n else 0.0

    m = {
        "eventsim.events": (events, "count"),
        "eventsim.events_per_s": (events / run_s, "1/s"),
        "eventsim.queue_peak": (ref["queue_peak"], "count"),
        "eventsim.queue_end": (ref["events_pending"], "count"),
        "eventsim.compactions": (ref["compactions"], "count"),
        "eventsim.loop_ns_per_event": (
            med(lambda r: (r["run_s"] * 1e9 - r["profile_wall_ns"]) / events),
            "ns"),
        "traffic.start_s": (med(lambda r: r["traffic_start_s"]), "s"),
        "traffic.flows_emitted": (ref["flows_emitted"], "count"),
        "traffic.flows_completed": (ref["flows_completed"], "count"),
        "traffic.completed_per_emitted": (
            ref["flows_completed"] / max(ref["flows_emitted"], 1), "ratio"),
        "transport.rto_fired": (ref["profile"].get("tcp.rto", (0, 0))[0],
                                "count"),
        "core.congestion_drops": (ref["congestion_drops"], "count"),
        "core.delivered_per_injected": (
            ref["delivered"] / max(ref["injected"], 1), "ratio"),
        "core.tft_entries": (ref["tft_entries"], "count"),
        "core.tft_lookup_ns": (med(lambda r: r["tft_lookup_ns"]), "ns"),
        "routing.compile_s": (med(lambda r: r["routing_compile_s"]), "s"),
        "routing.paths": (ref["routing_paths"], "count"),
        "arch.build_s": (med(lambda r: r["arch_build_s"]), "s"),
        "parallel.windows": (ref["windows"], "count"),
        "parallel.cross_delivered": (ref["cross_delivered"], "count"),
        "parallel.us_per_window": (
            run_s * 1e6 / ref["windows"] if ref["windows"] else 0.0, "us"),
        "telemetry.trace_overhead_pct": (
            (traced_run_s / run_s - 1.0) * 100.0, "%"),
    }
    for tag, layer in TAG_LAYERS:
        m[layer + ".ns_per_event"] = (med(lambda r: tag_ns(r, tag)), "ns")
    for tag, layer in (("traffic.wave", "traffic.wave"), ("link", "net.link"),
                       ("fabric.deliver", "optics.fabric_deliver")):
        m[layer + ".events"] = (ref["profile"].get(tag, (0, 0))[0], "count")
    return m


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--horizon-us", type=int, default=0,
                    help="override the workload's simulated horizon")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))

    build()
    untraced, traced, reps = [], [], []

    def rep(is_traced):
        r = run_rep(args.workload, args.seed, is_traced, args.horizon_us)
        reps.append(r)
        if r is not None:
            (traced if is_traced else untraced).append(r)

    # The traced repetition goes first: it also warms the host up, and the
    # first process after an idle spell runs measurably slower.
    rep(True)
    t0 = time.monotonic()
    tries = 0
    while time.monotonic() - t0 < args.seconds or tries < MIN_UNTRACED_REPS:
        rep(False)
        tries += 1
        if args.trace:
            rep(True)

    failed = check(reps)
    if not untraced or not traced:
        sys.exit("perfbench: every repetition failed")
    first = untraced[0]
    host = {"cores": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "compiler": first["compiler"],
            "build_type": first["build_type"], "git_commit": git_commit(),
            "source_sha256": source_digest()}
    print("host " + json.dumps(host, sort_keys=True))
    print("workload %s seed %d horizon_us %d: %d repetitions (%d untraced, "
          "%d traced), %d failed" % (args.workload, args.seed,
                                     first["horizon_us"], len(reps),
                                     len(untraced), len(traced), failed))

    metrics = end_to_end(untraced)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print("  %-34s %16.6g %s" % (name, value, unit))
        metrics = per_layer(untraced, traced)
    for name, (value, unit) in metrics.items():
        print("  %-34s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
