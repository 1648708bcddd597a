// Package scenario is the pool-scale simulation harness: declarative
// scenarios that compose the layers the repo already has — the condor
// pool, procsim/mpisim workloads, paradyn tool attach, mrnet reduction
// trees, sharded CASS routing, netsim chaos injection, and telemetry —
// into repeatable large-scale runs.
//
// A Scenario is a named sequence of phases (ramp hosts, submit jobs,
// attach tools, kill daemons or shards, drain, recover). Each phase
// has a body that drives the system and a set of checkpoints:
// invariants asserted when the phase completes (zero survivor
// failures, monotone lost counters, front-end message-rate bounds).
// While a phase runs, a metrics collector records latency and
// throughput distributions; Execute writes them per phase to a
// SCENARIO_<name>.json report in the same spirit as
// BENCH_attrspace.json, so scaling claims are measured artifacts
// rather than anecdotes.
//
// Every run is seeded. The seed feeds both the netsim chaos dialers
// and any randomized phase scheduling (which daemon to kill, which
// shard to lose), is printed in the report and in failure messages,
// and can be pinned with -scenario-seed (or TDP_SCENARIO_SEED) to
// replay a failing schedule exactly.
//
// The shape — Scenario → phases → checkpoints → metrics → JSON
// reporter — follows the codeNERD context harness (SNIPPETS.md §1–3)
// and GridSim's approach of modeling scale as a simulation toolkit.
package scenario

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"
)

// Scenario is one declarative pool-scale run.
type Scenario struct {
	// Name keys the report file: SCENARIO_<Name>.json.
	Name string
	// Description is one line for the report and -v logs.
	Description string
	// Hosts is the headline pool size, recorded in the report.
	Hosts int
	// Phases run in order; the first failing phase or checkpoint
	// aborts the scenario (cleanups still run, the report is still
	// written).
	Phases []Phase
}

// Phase is one stage of a scenario: a body that drives the system
// and the invariants that must hold once it completes.
type Phase struct {
	Name string
	// Run drives the phase. It may spawn goroutines but must join
	// them before returning; checkpoints run after it.
	Run func(r *Run) error
	// Checkpoints are asserted in order after Run returns.
	Checkpoints []Checkpoint
}

// Checkpoint is one mid-run invariant.
type Checkpoint struct {
	Name  string
	Check func(r *Run) error
}

// scenarioSeed is the -scenario-seed flag: it overrides the default
// seed (but not an explicit RunConfig.Seed) so a failing run can be
// replayed with the exact fault and scheduling sequence the failure
// printed. Registered here, in the package, so every test binary that
// links the harness accepts it.
var scenarioSeed = flag.Int64("scenario-seed", 0, "seed for scenario chaos + scheduling (0 = TDP_SCENARIO_SEED or 1)")

// resolveSeed picks the run seed: an explicit config seed wins, then
// -scenario-seed, then TDP_SCENARIO_SEED, then the pinned default 1
// (pinned, like TDP_CHAOS_SEED, so CI runs are reproducible).
func resolveSeed(explicit int64) int64 {
	if explicit != 0 {
		return explicit
	}
	if flag.Parsed() && *scenarioSeed != 0 {
		return *scenarioSeed
	}
	if v := os.Getenv("TDP_SCENARIO_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n != 0 {
			return n
		}
	}
	return 1
}

// Run is the live state of an executing scenario, passed to every
// phase body and checkpoint.
type Run struct {
	Scenario *Scenario
	// Seed is the resolved run seed. Phase bodies derive all their
	// randomness from it (via RNG or DeriveSeed) so a run replays
	// bit-for-bit under -scenario-seed.
	Seed int64
	// RNG is seeded from Seed. Phases run sequentially; use it only
	// from the phase body's own goroutine (derive per-worker seeds
	// with DeriveSeed for concurrent randomness).
	RNG *rand.Rand
	// Logf reports progress (testing.T.Logf under go test).
	Logf func(format string, args ...any)

	mu      sync.Mutex
	state   map[string]any
	cleanup []func()
	phase   *phaseMetrics // metrics sink for the currently running phase
}

// Put stashes cross-phase state (the netsim network, the tree, the
// fleet, ...) under a key.
func (r *Run) Put(key string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state[key] = v
}

// Get returns state stashed by an earlier phase, or nil.
func (r *Run) Get(key string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state[key]
}

// Defer registers a cleanup; cleanups run LIFO when the scenario
// finishes, pass or fail.
func (r *Run) Defer(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cleanup = append(r.cleanup, fn)
}

// DeriveSeed returns a sub-seed deterministically derived from the run
// seed and a label — one per chaos dialer or concurrent worker, so
// independent consumers of randomness don't perturb each other's
// sequences when a scenario is edited.
func (r *Run) DeriveSeed(label string) int64 {
	// FNV-1a over the label, folded into the seed.
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	s := int64(h ^ uint64(r.Seed)*0x9e3779b97f4a7c15)
	if s == 0 {
		s = 1
	}
	return s
}

// Observe records one latency observation into the current phase's
// named distribution. Safe for concurrent use by phase workers.
func (r *Run) Observe(name string, d time.Duration) {
	r.mu.Lock()
	pm := r.phase
	r.mu.Unlock()
	if pm != nil {
		pm.observe(name, d)
	}
}

// Count adds to the current phase's named throughput counter. Safe for
// concurrent use by phase workers.
func (r *Run) Count(name string, delta int64) {
	r.mu.Lock()
	pm := r.phase
	r.mu.Unlock()
	if pm != nil {
		pm.count(name, delta)
	}
}

// WaitFor polls cond until it holds or the timeout passes; the
// returned error names what was being waited for. It is the harness's
// standard convergence primitive (flush-driven rollups, reconnecting
// shard connections).
func (r *Run) WaitFor(timeout time.Duration, cond func() bool, what string) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
}

func (r *Run) runCleanups() {
	r.mu.Lock()
	fns := r.cleanup
	r.cleanup = nil
	r.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}
