#!/usr/bin/env python3
"""The renofs benchmark: host time, memory and per-layer cost of the
simulator on three workloads.

    python3 renobench/run.py --workload fleet-1000c --seed 7 --seconds 40 --trace 0

Run from the root of a renofs checkout.  The script builds
renobench/renobench.exe with dune, then runs one world per child process
(so the GC's peak heap describes that run alone) until --seconds are
spent, at least MIN_REPS times.  Every run must print the digest of
simulated results that renobench/digests.json records for its workload
and seed; for a seed not recorded there, all runs must print the same
digest.  A run that raised, stuck, breached an integrity invariant or
digested differently fails all the operations it attempted.

The host is shared and its speed drifts.  After every world the script
times a fixed reference loop (renobench/reference.ml), and scales the
end-to-end host times by the loop's nominal time over its median
measured time in this invocation.

--trace 0 prints the end-to-end metrics, medians over the runs.
--trace 1 runs the world untraced a few times, then once with the
self-profiler attached, then the event-queue replay (sized by the
traced run's sampled pending population) and the codec replay, and
prints the per-layer metrics.  The last line of stdout is the result
object; progress goes to stderr.  README.md lists the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "renobench", "renobench.exe")
DIGESTS = os.path.join("renobench", "digests.json")
WORKLOADS = ("fleet-1000c", "graph5-wan", "lan-write")
MIN_REPS = 3
MIN_REPS_TRACED = 2
# Every child must end within this many seconds of the build, so that
# an invocation ends within 180 s even if a child hangs.
DEADLINE_S = 170
deadline = None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    for need in ("dune-project", "lib", os.path.join("renobench", "dune")):
        if not os.path.exists(need):
            log(f"renobench: {need} not found; run from the root of a renofs checkout")
            sys.exit(2)
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "./renobench/renobench.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("renobench: build failed")
        sys.exit(1)


def child(args):
    """One child process; its last stdout line parsed, with its stderr
    under "stderr", or None if it crashed, timed out or printed no
    result."""
    try:
        r = subprocess.run([EXE] + args, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"renobench: {' '.join(args)}: timed out")
        return None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"renobench: {' '.join(args)}: exit {r.returncode}: {r.stderr.strip()[-500:]}")
        return None
    try:
        out = json.loads(lines[-1])
    except ValueError:
        log(f"renobench: {' '.join(args)}: unparseable output")
        return None
    out["stderr"] = r.stderr
    return out


def world(args, profile):
    cmd = ["world", "--workload", args.workload, "--seed", str(args.seed)]
    if profile:
        cmd.append("--profile")
    if args.mini:
        cmd.append("--mini")
    t0 = time.monotonic()
    r = child(cmd)
    if r is not None:
        r["proc_s"] = time.monotonic() - t0
        log(f"  {args.workload} seed {args.seed}{' profiled' if profile else ''}: "
            f"setup {r['setup_s']:.3f}s wall {r['wall_s']:.3f}s "
            f"events {r['events']} ops {r['attempted']} failed {r['failed']} "
            f"digest {r['digest'][:12]}{'' if r['ok'] else ' ERROR ' + str(r['error']) + ' ' + r['breaches']}")
    return r


def reference(samples):
    """Time the host-speed reference loop into [samples]; returns the
    loop's nominal seconds."""
    r = child(["reference"])
    if r is None:
        log("renobench: the host-speed reference failed")
        sys.exit(1)
    samples.extend(r["samples_s"])
    return r["nominal_s"]


def repeat(args, min_reps, reserve_s, refs):
    """Untraced runs, each followed by a timing of the reference, until
    the time budget (less [reserve_s]) is spent."""
    t0 = time.monotonic()
    runs = []
    while True:
        runs.append(world(args, profile=False))
        reference(refs)
        done = [r["proc_s"] for r in runs if r is not None]
        per_run = statistics.mean(done) if done else 0.0
        elapsed = time.monotonic() - t0
        if len(runs) >= min_reps and elapsed + per_run + reserve_s > args.seconds:
            return runs


def recorded_digest(args):
    """The digest digests.json records for this workload and seed at
    full size, or None."""
    if args.mini:
        return None
    with open(DIGESTS) as f:
        return json.load(f).get(args.workload, {}).get(str(args.seed))


def account(runs, recorded):
    """(attempted, failed, correct) over all runs.  The expected digest
    is [recorded], or else the one most runs agree on; a run that
    digests differently, did not finish, or reported an error fails
    every operation it attempted."""
    good = [r for r in runs if r is not None and r["ok"]]
    digests = [r["digest"] for r in good]
    expected = recorded or (max(set(digests), key=digests.count) if digests else None)
    typical = int(statistics.median([r["attempted"] for r in good])) if good else 1
    attempted = failed = 0
    for r in runs:
        if r is None:
            attempted += max(1, typical)
            failed += max(1, typical)
            continue
        attempted += r["attempted"]
        if r["ok"] and r["digest"] == expected:
            failed += r["failed"]
        else:
            failed += max(1, r["attempted"])
            if r["ok"]:
                log(f"renobench: digest {r['digest']} is not the expected {expected}; "
                    f"the run's simulated results:\n{r['stderr']}")
    return attempted, failed, failed == 0 and expected is not None


def med(runs, key):
    return statistics.median([r[key] for r in runs])


def end_to_end(runs, scale):
    log("runs (wall_s, setup_s): "
        + json.dumps([[r["wall_s"], r["setup_s"]] for r in runs]) + f" scale {scale}")
    return {
        "wall_s": (med(runs, "wall_s") * scale, "s"),
        "events_per_s": (statistics.median([r["events"] / r["wall_s"] for r in runs]) / scale, "1/s"),
        "setup_s": (med(runs, "setup_s") * scale, "s"),
        "peak_heap_mb": (med(runs, "peak_heap_mb"), "MiB"),
        "minor_words_per_event": (med(runs, "minor_words_per_event"), "words"),
    }


def per_layer(args, runs, traced):
    queue = child(["queue", "--seed", str(args.seed), "--pending", str(traced["pending_p50"])]
                  + (["--events", "50000"] if args.mini else []))
    codec = child(["codec", "--seed", str(args.seed)] + (["--trips", "200"] if args.mini else []))
    if queue is None or codec is None:
        return None
    m = {
        "engine.queue_ns_per_event": (queue["queue_ns_per_event"], "ns"),
        "engine.pending_p50": (traced["pending_p50"], "count"),
        "engine.pending_max": (traced["pending_max"], "count"),
        "engine.events": (traced["events"], "count"),
        "engine.scheduler_self_s": (traced["scheduler.self_s"], "s"),
        "gc.minor_words_per_event": (med(runs, "minor_words_per_event"), "words"),
        "gc.promoted_words_per_event": (med(runs, "promoted_words_per_event"), "words"),
        "gc.major_collections": (med(runs, "major_collections"), "count"),
        "mem.heap_kb_per_client": (med(runs, "peak_heap_mb") * 1024 / traced["clients"], "KiB"),
        "harness.self_s": (traced["harness.self_s"], "s"),
        "cpu.self_s": (traced["cpu.self_s"], "s"),
        "cpu.fires": (traced["cpu.fires"], "count"),
        "link.self_s": (traced["link.self_s"], "s"),
        "link.fires": (traced["link.fires"], "count"),
        "transport.self_s": (traced["transport.self_s"], "s"),
        "transport.retransmits": (traced["retransmits"], "count"),
        "server.self_s": (traced["server.self_s"], "s"),
        "server.rpcs": (traced["rpcs"], "count"),
        "vfs.self_s": (traced["vfs.self_s"], "s"),
        "vfs.enters": (traced["vfs.enters"], "count"),
        "setup.build_s": (med(runs, "build_s"), "s"),
        "setup.provision_s": (med(runs, "provision_s"), "s"),
        "setup.mount_s": (med(runs, "mount_s"), "s"),
        "observer.self_s": (traced["observer.self_s"], "s"),
        "trace.records": (traced["trace_records"], "count"),
        "trace.dropped": (traced["trace_dropped"], "count"),
        "verdict.eval_s": (med(runs, "verdict_s"), "s"),
        "tracing.overhead_pct": ((traced["wall_s"] / med(runs, "wall_s") - 1.0) * 100.0, "%"),
    }
    for name in ("codec.write8k_ns", "codec.read8k_ns", "codec.lookup_ns"):
        m[name] = (codec[name], "ns")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mini", action="store_true",
                    help="a few clients for a few simulated seconds (self-test)")
    args = ap.parse_args()
    build()
    global deadline
    deadline = time.monotonic() + DEADLINE_S
    refs = []
    nominal = reference(refs)
    if args.trace == 0:
        runs = repeat(args, MIN_REPS, 0.0, refs)
    else:
        # Leave room for the profiled run (about one and a half
        # untraced runs) and the two replays.
        runs = repeat(args, MIN_REPS_TRACED, args.seconds / 3, refs)
        runs.append(world(args, profile=True))
    attempted, failed, correct = account(runs, recorded_digest(args))
    ok = [r for r in runs if r is not None and r["ok"]]
    untraced = [r for r in ok if "profile_wall_s" not in r]
    traced = [r for r in ok if "profile_wall_s" in r]
    metrics = None
    if untraced and args.trace == 0:
        metrics = end_to_end(untraced, nominal / statistics.median(refs))
    elif untraced and traced:
        metrics = per_layer(args, untraced, traced[0])
    if metrics is None:
        log("renobench: no run finished; no metrics to report")
        sys.exit(1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
