# Convenience wrapper around dune.  `make check` is the tier-1 gate:
# everything must build, every test must pass, the dune files must be
# formatted (ocamlformat is not vendored, so @fmt covers dune files
# only — see dune-project), and the nfsbench CLI must survive a smoke
# run: list the registry, run one experiment across 2 domains with
# JSON output, validate that output against the renofs-bench/1
# schema, exercise the fault layer (builtin listing, a schedule
# file on a normal experiment), and check that a flag a subcommand
# does not honour is refused (perf --jobs, slo --seed, chaos
# --faults; each inverted with `!`).
# `make chaos-smoke` runs the quick chaos matrix — every fault
# schedule crossed with the three transports plus the v3
# UNSTABLE+COMMIT profile — failing on any invariant violation, and
# byte-compares a 2-domain run against a 1-domain run: the recovery
# verdicts must be deterministic at any --jobs.
# `make fuzz-smoke` runs the seeded wire-corruption fuzzer at fixed
# seeds: the checksums-on pass must come back clean (exit 0), and the
# checksums-off pass under bit corruption must detect at least one
# data-integrity violation (non-zero exit, inverted with `!`) — that
# asymmetry is the whole point of the UDP checksum.
# `make bench-gate` reruns the quick suite and diffs it against the
# committed BENCH_quick.json baseline, failing on any >15% regression
# in latency (ms/s) or throughput (per_s) cells; refresh the baseline
# with `make bench-baseline` after an intentional performance change.
# `make fleet-smoke` runs the sharded multi-server family across 2
# domains, validates the JSON, and byte-compares it against a 1-domain
# run (minus the "jobs" header line, the one legitimate difference) —
# the determinism contract for fleet-scale worlds.
# `make slo-smoke` exercises the scenario layer both ways: the five
# builtin day-in-the-life scenarios must meet their SLOs (exit 0,
# byte-identical between a 2-domain and a 1-domain run), the busy
# example (about 348,000 trace records, more than any private ring
# held) must meet its SLOs judged over the whole stream, and the
# crash-without-reboot example must breach (non-zero exit, inverted
# with `!`) while naming the violated SLOs.
# `make perf-gate` measures wall-clock engine throughput (events/s,
# RPCs/s over the fixed graph5 full cell set) and fails if either rate
# drops more than 30% below the committed BENCH_perf.json — wide
# because container clocks are noisy, but tight enough to catch a real
# hot-path regression — or if any cell's event, RPC or minor-word count
# differs from the baseline's at all: those are exact for a build.
# Refresh with `make perf-baseline` after an intentional engine or
# allocation change (run it on a quiet machine).
# `make profile-smoke` exercises the observability additions: a
# profiled + Perfetto-exported run whose renofs-profile/1 file must
# validate (validation includes the self-time-sums-to-wall accounting
# check), and the crash-without-reboot scenario under --flight, which
# must still breach (inverted with `!`) while leaving a complete
# post-mortem bundle.
# `make golden GOLDEN=DIR` writes every determinism-gated output into
# DIR: `all` (table and JSON) at jobs 1 and 2, `slo`, `chaos --scale
# quick`, `fuzz --seeds 15`, the checksums-off fuzz run (it must fail
# its verdict), graph1 under examples/crash.json (the schedule is
# installed after warmup), table5 with its trace, whose write
# records carry data digests, table2 (the Reno, Reno-TCP, Reno-nopush,
# Reno-v3 and Ultrix2.2 mounts) with its trace and metrics and leases
# (the Reno, Leases and noconsist mounts) with its trace, so that every
# named mount's consistency rule is traced, graph8 (the reno, reno-nonc
# and ultrix servers) with its trace, so that every server profile is
# traced, scaling (the N-client star) with its trace and metrics
# under the crash schedule, the chaos and fuzz runs
# again with their traces (the golden traces carry 22 of the 25 event kinds; the
# round-trip test in test/test_trace.ml covers the other three), graph1
# with its metrics as JSONL and as CSV, the crash-without-reboot
# scenario under --flight (it must breach; the bundle's profile.json
# carries host time and is removed), and the five examples (quickstart
# prints the per-procedure RPC counts and the mean RTT).
# Those runs happen inside DIR, so every path they print or store is
# the same for any DIR.  A change that must leave simulated output
# alone passes when `diff -r` of the parent's and the change's
# directories is empty.
# `make loc` prints the line count of lib/ and bin/ (.ml, .mli and dune
# files), the figure every change reports.

.PHONY: all build test fmt smoke chaos-smoke fuzz-smoke fleet-smoke slo-smoke bench-gate bench-baseline perf-gate perf-baseline profile-smoke golden loc check clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

smoke: build
	dune exec bin/nfsbench.exe -- list
	dune exec bin/nfsbench.exe -- run graph1 --jobs 2 --json /tmp/renofs-smoke.json
	dune exec bin/nfsbench.exe -- validate-json /tmp/renofs-smoke.json
	dune exec bin/nfsbench.exe -- faults
	dune exec bin/nfsbench.exe -- run graph1 --jobs 2 --faults examples/crash.json
	! dune exec bin/nfsbench.exe -- perf --jobs 2
	! dune exec bin/nfsbench.exe -- slo --seed 3
	! dune exec bin/nfsbench.exe -- chaos --faults crash

chaos-smoke: build
	dune exec bin/nfsbench.exe -- chaos --scale quick --jobs 2 > /tmp/renofs-chaos-smoke2.txt
	dune exec bin/nfsbench.exe -- chaos --scale quick --jobs 1 > /tmp/renofs-chaos-smoke1.txt
	cmp /tmp/renofs-chaos-smoke1.txt /tmp/renofs-chaos-smoke2.txt

fuzz-smoke: build
	dune exec bin/nfsbench.exe -- fuzz --seeds 15 --jobs 2
	! dune exec bin/nfsbench.exe -- fuzz --seeds 5 --jobs 2 --no-checksum

fleet-smoke: build
	dune exec bin/nfsbench.exe -- run fleet-quick --jobs 2 --json /tmp/renofs-fleet-smoke2.json
	dune exec bin/nfsbench.exe -- validate-json /tmp/renofs-fleet-smoke2.json
	dune exec bin/nfsbench.exe -- run fleet-quick --jobs 1 --json /tmp/renofs-fleet-smoke1.json > /dev/null
	grep -v '"jobs"' /tmp/renofs-fleet-smoke1.json > /tmp/renofs-fleet-smoke1.stripped
	grep -v '"jobs"' /tmp/renofs-fleet-smoke2.json > /tmp/renofs-fleet-smoke2.stripped
	cmp /tmp/renofs-fleet-smoke1.stripped /tmp/renofs-fleet-smoke2.stripped

slo-smoke: build
	dune exec bin/nfsbench.exe -- slo --jobs 2 > /tmp/renofs-slo-smoke2.txt
	dune exec bin/nfsbench.exe -- slo --jobs 1 > /tmp/renofs-slo-smoke1.txt
	cmp /tmp/renofs-slo-smoke1.txt /tmp/renofs-slo-smoke2.txt
	dune exec bin/nfsbench.exe -- validate-json examples/busy.scenario.json
	dune exec bin/nfsbench.exe -- slo examples/busy.scenario.json > /dev/null
	dune exec bin/nfsbench.exe -- validate-json examples/crash_noreboot.scenario.json
	! dune exec bin/nfsbench.exe -- slo examples/crash_noreboot.scenario.json > /dev/null

bench-gate: build
	dune exec bin/nfsbench.exe -- all --json /tmp/renofs-bench-gate.json > /dev/null
	dune exec bin/nfsbench.exe -- diff BENCH_quick.json /tmp/renofs-bench-gate.json --tolerance 15

bench-baseline: build
	dune exec bin/nfsbench.exe -- all --json BENCH_quick.json > /dev/null

perf-gate: build
	dune exec bin/nfsbench.exe -- perf --baseline BENCH_perf.json --tolerance 30

perf-baseline: build
	dune exec bin/nfsbench.exe -- perf --json BENCH_perf.json

profile-smoke: build
	dune exec bin/nfsbench.exe -- run graph1 --jobs 2 --profile /tmp/renofs-profile.json --perfetto /tmp/renofs-perfetto.json > /dev/null
	dune exec bin/nfsbench.exe -- validate-json /tmp/renofs-profile.json
	rm -rf /tmp/renofs-flight
	! dune exec bin/nfsbench.exe -- slo examples/crash_noreboot.scenario.json --flight /tmp/renofs-flight > /dev/null
	test -s /tmp/renofs-flight/*/MANIFEST.json
	test -s /tmp/renofs-flight/*/reason.txt
	test -s /tmp/renofs-flight/*/trace_tail.jsonl
	test -s /tmp/renofs-flight/*/profile.json

golden: build
	@test -n "$(GOLDEN)" || { echo "usage: make golden GOLDEN=DIR" >&2; exit 2; }
	mkdir -p $(GOLDEN)
	dune exec bin/nfsbench.exe -- all --jobs 1 --json $(GOLDEN)/all-jobs1.json > $(GOLDEN)/all-jobs1.txt
	dune exec bin/nfsbench.exe -- all --jobs 2 --json $(GOLDEN)/all-jobs2.json > $(GOLDEN)/all-jobs2.txt
	dune exec bin/nfsbench.exe -- slo --jobs 2 > $(GOLDEN)/slo.txt
	dune exec bin/nfsbench.exe -- chaos --scale quick --jobs 2 > $(GOLDEN)/chaos-quick.txt
	dune exec bin/nfsbench.exe -- fuzz --seeds 15 --jobs 2 > $(GOLDEN)/fuzz-15.txt
	! dune exec bin/nfsbench.exe -- fuzz --seeds 5 --jobs 2 --no-checksum > $(GOLDEN)/fuzz-5-nochecksum.txt
	dune exec bin/nfsbench.exe -- run graph1 --jobs 2 --faults examples/crash.json > $(GOLDEN)/graph1-faults.txt
	cd $(GOLDEN) && dune exec --root $(CURDIR) bin/nfsbench.exe -- run table5 --jobs 2 --trace table5-trace.jsonl > table5.txt
	cd $(GOLDEN) && dune exec --root $(CURDIR) bin/nfsbench.exe -- run table2 --jobs 2 --trace table2-trace.jsonl --metrics table2-metrics.jsonl > table2.txt
	cd $(GOLDEN) && dune exec --root $(CURDIR) bin/nfsbench.exe -- run leases --jobs 2 --trace leases-trace.jsonl > leases.txt
	cd $(GOLDEN) && dune exec --root $(CURDIR) bin/nfsbench.exe -- run graph8 --jobs 2 --trace graph8-trace.jsonl > graph8.txt
	cd $(GOLDEN) && dune exec --root $(CURDIR) bin/nfsbench.exe -- run scaling --jobs 2 --trace scaling-trace.jsonl --metrics scaling-metrics.jsonl --faults crash > scaling.txt
	cd $(GOLDEN) && dune exec --root $(CURDIR) bin/nfsbench.exe -- chaos --scale quick --jobs 2 --trace chaos-trace.jsonl > chaos-trace.txt
	cd $(GOLDEN) && dune exec --root $(CURDIR) bin/nfsbench.exe -- fuzz --seeds 15 --jobs 2 --trace fuzz-trace.jsonl > fuzz-trace.txt
	cd $(GOLDEN) && dune exec --root $(CURDIR) bin/nfsbench.exe -- run graph1 --jobs 2 --metrics metrics.jsonl > graph1-metrics.txt
	cd $(GOLDEN) && dune exec --root $(CURDIR) bin/nfsbench.exe -- run graph1 --jobs 2 --metrics metrics.csv > graph1-metrics-csv.txt
	mkdir -p $(GOLDEN)/examples
	cp examples/crash_noreboot.scenario.json $(GOLDEN)/examples/
	rm -rf $(GOLDEN)/flight
	cd $(GOLDEN) && ! dune exec --root $(CURDIR) bin/nfsbench.exe -- slo examples/crash_noreboot.scenario.json --jobs 2 --flight flight > slo-flight.txt
	test -s $(GOLDEN)/flight/*/MANIFEST.json
	rm -f $(GOLDEN)/flight/*/profile.json
	dune exec examples/quickstart.exe > $(GOLDEN)/example-quickstart.txt
	dune exec examples/transport_shootout.exe > $(GOLDEN)/example-transport_shootout.txt
	dune exec examples/cache_policies.exe > $(GOLDEN)/example-cache_policies.txt
	dune exec examples/wan_tuning.exe > $(GOLDEN)/example-wan_tuning.txt
	dune exec examples/crash_recovery.exe > $(GOLDEN)/example-crash_recovery.txt

loc:
	@find lib bin \( -name '*.ml' -o -name '*.mli' -o -name dune \) -print0 | xargs -0 cat | wc -l

check: build test fmt smoke chaos-smoke fuzz-smoke fleet-smoke slo-smoke bench-gate perf-gate profile-smoke

clean:
	dune clean
