# Build and verification entry points. `make tier1` is the gate every
# change must pass: vet + build + full test suite under the race
# detector + the seeded chaos suite. `make chaos` runs the fault-
# injection tests (clients and the router's shard sessions through the
# netsim chaos transport and killed daemons) twice under the race
# detector with a pinned seed; vary the seed with `make chaos
# TDP_CHAOS_SEED=7` to explore other fault schedules. The seed drives
# the fault injector (netsim.Chaos) only: the sessions' reconnect jitter
# comes from internal/liveness and is not seeded — the tests assert
# outcomes, not a replayed timing.
# `make fuzz` is a short native-fuzzing smoke run over the
# parsers that face untrusted or operator-typed bytes (the wire
# decoder, by copy and by view, the mrnet uplink's TBATCH codec, the ClassAd expression
# parser, and the shard flag parsers); TestMakeFuzzTargetsExist fails on a
# line naming a target its package does not declare, which `go test
# -fuzz` itself would pass. `make bench` refreshes the committed
# hot-path baseline (BENCH_attrspace.json); `make benchdiff` re-runs
# the same suite and fails on a >20% ns/op regression against it (and
# leaves no bench.current.json behind either way). `make bench-samehost`
# re-runs just the same-host transport ladder (tcp / unix socket /
# shm ring) and folds the trio into BENCH_attrspace.json in place.
#
# `make loc` prints the size of the non-test Go source (raw and code
# lines) for the protocol core and for the root module, the raw line
# counts of README, DESIGN, EXPERIMENTS and ROADMAP, the op table's
# verbs, the exported methods of Client and tdp.Handle and the fields of
# tdp.Config and attrspace.CacheConfig (scripts/coreloc.sh): core LOC and
# API surface are tracked the way ns/op is. `make
# slowtests` prints the ten slowest tests and each package's wall time
# from one `go test -json ./...` run (scripts/slowtests.sh), so a test
# that sleeps for half a minute cannot hide in a green tier-1. `make
# allocs` prints where the heap objects and bytes of the hot ops (a
# local tryget that hits and one that misses, a global write and a
# global read that hits the caching LASS among them), of one connection
# set-up and of one launch are allocated, by site and layer
# (cmd/tdpbench -experiment allocs). Every set-up creates its context
# and waits for the LASS to destroy it before the next, so two runs
# agree on that row too.
#
# `make scenario-smoke` runs the pre-built pool scenarios at smoke
# scale under the race detector (part of tier1). `make scenario` is
# the full tier — 10k+ host planes, shard loss under load, churn and
# soak windows — and writes SCENARIO_<name>.json reports into the
# repo root; compare against the committed baselines with
# scripts/scenariodiff.sh (warn-only). Replay a failing run with
# `go test ./internal/scenario -run TestScenariosFull -args
# -scenario-seed=N` or TDP_SCENARIO_SEED=N.

GO ?= go

# The hot-path suite tracked in BENCH_attrspace.json: attribute space
# round trips, the wire codec micro-benchmarks, the scaling suite
# (sharded many-context fan-out, LASS global read cache, proxy relay),
# and the transport suite (same-host unix fast path, the bytes of a
# session's snapshot resync, event latency behind a chunked snapshot). The parallel contention benchmark (AttrSpaceClients)
# stays out of the tracked set: RunParallel numbers swing 20%+ run to
# run on shared machines, which would make the benchdiff gate flaky.
# The scaling benchmarks and the CASS shard-scaling curve are
# contention/network shaped too, so they are recorded but excluded
# from the regression gate (GATE_EXCLUDE in benchdiff.sh); the wire
# codec benchmarks plus the headline transport numbers (the
# SameHostPut tcp/unix/shm ladder, SessionResync, MRNetFanIn) are the
# opposite — hard-required by GATE_REQUIRE, so they can neither
# regress nor silently drop out of the tracked set.
BENCH_PATTERN ?= BenchmarkAttrSpacePut|BenchmarkAttrSpaceTryGet|BenchmarkAttrSpaceGetPresent|BenchmarkAttrSpaceAsync|BenchmarkWire|BenchmarkAttrSpaceManyContexts|BenchmarkGlobalGetCached|BenchmarkProxyRelay|BenchmarkMRNetFanIn|BenchmarkSameHostPut|BenchmarkSessionResync|BenchmarkMuxFanout|BenchmarkCASSSharded

# The chaos suite's fault-injection seed; pinned so CI runs are
# reproducible and a failure's schedule can be replayed exactly.
TDP_CHAOS_SEED ?= 1

# The scenario tiers' run seed; 0 lets each run resolve its own
# (flag > TDP_SCENARIO_SEED env > 1).
TDP_SCENARIO_SEED ?= 1

.PHONY: all tier1 vet build test race chaos fuzz bench benchdiff bench-samehost bench-smoke scenario scenario-smoke scenariodiff loc slowtests allocs

all: tier1

tier1: vet build race chaos scenario-smoke bench-smoke

# The repo's benchmark (BENCHMARK.json, bench/) is its own module, which
# the root `go build/test ./...` never see; this runs its 2 s smoke test
# so a change that breaks what the benchmark uses fails tier1. The
# global-write smoke beside it is the part of what `global_write`
# measures that a test can hold: 2,000 PutGlobal through an in-process
# pool push no event to the cache that wrote them and all ride the
# router's pooled connection — an echo or a second sender coming back
# fails here, not ten benchmark pairs later.
bench-smoke:
	cd bench && $(GO) test ./...
	$(GO) test ./internal/attrspace -run TestGlobalWriteSmoke -count=1

chaos:
	TDP_CHAOS_SEED=$(TDP_CHAOS_SEED) $(GO) test ./internal/attrspace -run 'Chaos' -race -count=2

scenario-smoke:
	TDP_SCENARIO_SEED=$(TDP_SCENARIO_SEED) $(GO) test ./internal/scenario -run TestScenariosSmoke -race -count=1

scenario:
	TDP_SCENARIO=full TDP_SCENARIO_SEED=$(TDP_SCENARIO_SEED) TDP_SCENARIO_DIR=$(CURDIR) \
		$(GO) test ./internal/scenario -run TestScenariosFull -race -v -timeout 20m -count=1

scenariodiff:
	scripts/scenariodiff.sh

loc:
	@scripts/coreloc.sh

slowtests:
	@GO=$(GO) scripts/slowtests.sh

# Heap objects and bytes per operation by allocation site and layer: the
# three local hot ops, a global write through the caching LASS (with the
# shards' events pushed / suppressed per op), one connection set-up and
# one launch (EXPERIMENTS E28–E30). Exact (MemProfileRate=1), about 15 s.
allocs:
	$(GO) run ./cmd/tdpbench -experiment allocs

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzDecode -fuzztime=10s
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzRecvView -fuzztime=10s
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzTBatch -fuzztime=10s
	$(GO) test ./internal/classad -run='^$$' -fuzz=FuzzParse -fuzztime=10s
	$(GO) test ./internal/attrspace -run='^$$' -fuzz=FuzzParseShardSpec -fuzztime=10s
	$(GO) test ./internal/attrspace -run='^$$' -fuzz=FuzzParseShardAddrs -fuzztime=10s

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=1 . | tee bench.out
	scripts/bench2json.sh < bench.out > BENCH_attrspace.json
	@rm -f bench.out
	@echo wrote BENCH_attrspace.json

benchdiff:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=1 . | scripts/bench2json.sh > bench.current.json
	scripts/benchdiff.sh BENCH_attrspace.json bench.current.json; \
		status=$$?; rm -f bench.current.json; exit $$status

bench-samehost:
	$(GO) test -run '^$$' -bench 'BenchmarkSameHostPut' -benchmem -count=1 . \
		| scripts/bench2json.sh > bench.samehost.json
	scripts/benchmerge.sh BENCH_attrspace.json bench.samehost.json '^BenchmarkSameHostPut' \
		> BENCH_attrspace.json.merged
	mv BENCH_attrspace.json.merged BENCH_attrspace.json
	@rm -f bench.samehost.json
	@echo folded SameHostPut tcp/unix/shm into BENCH_attrspace.json
