#!/bin/sh
# benchdiff.sh BASELINE.json CURRENT.json
#
# Compare two BENCH_attrspace.json files (as produced by bench2json.sh)
# and exit 1 when any benchmark's ns/op regressed by more than
# THRESHOLD percent (default 20) against the committed baseline.
# Benchmarks present on only one side are reported but never fail the
# run — adding a benchmark must not break CI.
#
# Benchmarks whose names match GATE_EXCLUDE (an awk ERE) are reported
# as warnings but never fail the run: the contention- and
# network-shaped scaling benchmarks swing well past 20% run to run on
# shared machines, so gating on them would make CI flaky. They stay in
# the tracked set so drift is still visible in the report.
#
# Benchmarks matching GATE_REQUIRE are hard-gated: GATE_EXCLUDE never
# applies to them, and a required baseline benchmark missing from the
# current run fails too — the wire codec suite sits under every
# transport path, so it can neither regress nor silently drop out of
# the tracked set. SameHostPut and SessionResync graduated from the
# excluded list once a few releases of history showed them steady
# within the threshold: the same-host transport ladder (tcp/unix/shm)
# and a session's snapshot resync are headline transport numbers, so
# they gate now too. MRNetFanIn graduated the same way — the telemetry
# fan-in tree is the monitoring hot path, and its per-sample cost
# proved steady enough to hard-gate once the batched uplink landed.
# The CASSSharded scaling curve stays excluded like the other
# latency-shaped benchmarks — its ns/op is set by an injected link
# delay, and only the shards=4 : shards=1 ratio is meaningful.
set -eu
baseline=${1:?usage: benchdiff.sh baseline.json current.json}
current=${2:?usage: benchdiff.sh baseline.json current.json}
: "${THRESHOLD:=20}"
: "${GATE_EXCLUDE:=ManyContexts|GlobalGetCached|ProxyRelay|MuxFanout|CASSSharded}"
: "${GATE_REQUIRE:=^BenchmarkWire|^BenchmarkSameHostPut|^BenchmarkSessionResync|^BenchmarkMRNetFanIn}"

awk -v thr="$THRESHOLD" -v excl="$GATE_EXCLUDE" -v req="$GATE_REQUIRE" '
FNR == 1 { file++ }
match($0, /"name": "[^"]+"/) {
	name = substr($0, RSTART + 9, RLENGTH - 10)
	if (match($0, /"ns_per_op": [0-9.eE+-]+/)) {
		ns = substr($0, RSTART + 13, RLENGTH - 13) + 0
		if (file == 1) base[name] = ns
		else { cur[name] = ns; order[m++] = name }
	}
}
END {
	bad = 0
	for (i = 0; i < m; i++) {
		name = order[i]
		if (!(name in base)) {
			printf "new        %-48s %14.1f ns/op\n", name, cur[name]
			continue
		}
		delta = (cur[name] - base[name]) / base[name] * 100
		flag = "ok"
		if (delta > thr) {
			if (excl != "" && name ~ excl && !(req != "" && name ~ req)) flag = "warn"
			else { flag = "REGRESSION"; bad = 1 }
		}
		printf "%-10s %-48s %12.1f -> %10.1f ns/op (%+6.1f%%)\n", \
			flag, name, base[name], cur[name], delta
	}
	for (name in base) if (!(name in cur)) {
		if (req != "" && name ~ req) {
			printf "MISSING    %-48s (required, gone from current run)\n", name
			bad = 1
		} else
			printf "missing    %-48s (in baseline only)\n", name
	}
	if (bad) printf "\nFAIL: ns/op regression beyond %s%% against baseline\n", thr
	exit bad
}' "$baseline" "$current"
