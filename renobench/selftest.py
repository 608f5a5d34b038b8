#!/usr/bin/env python3
"""The benchmark's own test: a miniature of every workload (a few
clients, a few simulated seconds) must print, in both modes, exactly
the metrics BENCHMARK.json declares, by name and unit, with correct
outputs and no failed operation; a run whose digest is not the recorded
one must fail; and run.py must refuse, without printing a result, to
run outside a renofs checkout.

    python3 renobench/selftest.py        (from the repository root)
"""

import json
import numbers
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd="."):
    return subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(stdout, declared):
    """Problems with one result line against the declared metrics."""
    problems = []
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"attempted {result.get('attempted')} failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {declared[name]}")
        value = m.get("value")
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            problems.append(f"{name}: value {value!r} is not a number")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for w in bench["workloads"]:
        for trace, declared in modes.items():
            label = f"{w['name']} --trace {trace}"
            r = run(["renobench/run.py", "--workload", w["name"], "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--mini"])
            problems = ([f"exit {r.returncode}: {r.stderr[-800:]}"] if r.returncode != 0
                        else check_result(r.stdout, declared))
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {label}" + "".join(f"\n     {p}" for p in problems))
    one = {"ok": True, "digest": "a", "attempted": 5, "failed": 0, "stderr": ""}
    accounting = [bench.account([one, one], "a"), bench.account([one, one], "b"),
                  bench.account([one, one, dict(one, digest="b")], None)]
    accounting_ok = accounting == [(10, 0, True), (10, 10, False), (15, 5, False)]
    failures += not accounting_ok
    print(f"{'ok  ' if accounting_ok else 'FAIL'} a digest other than the expected one fails"
          + ("" if accounting_ok else f"\n     {accounting}"))
    bare = run(["run.py", "--workload", "lan-write", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=os.path.join(os.getcwd(), "renobench"))
    bare_ok = bare.returncode != 0 and bare.stdout.strip() == ""
    failures += not bare_ok
    print(f"{'ok  ' if bare_ok else 'FAIL'} refuses to run outside a checkout")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
