package scenario

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"
)

// RunConfig parameterizes Execute.
type RunConfig struct {
	// Seed pins the run seed; 0 defers to -scenario-seed, then
	// TDP_SCENARIO_SEED, then 1.
	Seed int64
	// ReportDir is where SCENARIO_<name>.json lands; "" defers to
	// TDP_SCENARIO_DIR, and if that is empty too no report is written
	// (the smoke tier under plain `go test ./...` stays artifact-free).
	ReportDir string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Execute runs the scenario: phases in order, each phase's checkpoints
// after its body, aborting on the first failure. Cleanups registered
// with Run.Defer run LIFO afterwards, pass or fail, and the report is
// written either way. The returned error (if any) names the failing
// phase or checkpoint and the seed that replays the run.
func Execute(s *Scenario, cfg RunConfig) (*Report, error) {
	seed := resolveSeed(cfg.Seed)
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Run{
		Scenario: s,
		Seed:     seed,
		RNG:      rand.New(rand.NewSource(seed)),
		Logf:     logf,
		state:    make(map[string]any),
	}
	rep := &Report{
		Scenario:    s.Name,
		Description: s.Description,
		Seed:        seed,
		Hosts:       s.Hosts,
		Start:       time.Now(),
	}
	logf("scenario %s: %d phases, seed %d", s.Name, len(s.Phases), seed)

	var failure error
	defer r.runCleanups()
	for _, ph := range s.Phases {
		pm := newPhaseMetrics()
		r.mu.Lock()
		r.phase = pm
		r.mu.Unlock()

		phaseStart := time.Now()
		pr := PhaseReport{Name: ph.Name}
		err := ph.Run(r)
		if err != nil {
			failure = fmt.Errorf("phase %q: %w", ph.Name, err)
		}
		for _, cp := range ph.Checkpoints {
			if failure != nil {
				// Don't assert invariants on a half-run phase; record
				// the checkpoint as skipped (Passed stays false, no
				// detail) only if it never ran — omit it entirely.
				break
			}
			cpr := CheckpointReport{Name: cp.Name, Passed: true}
			if cerr := cp.Check(r); cerr != nil {
				cpr.Passed = false
				cpr.Detail = cerr.Error()
				failure = fmt.Errorf("phase %q checkpoint %q: %w", ph.Name, cp.Name, cerr)
			}
			pr.Checkpoints = append(pr.Checkpoints, cpr)
			if failure != nil {
				break
			}
		}
		elapsed := time.Since(phaseStart)
		pr.DurationMS = float64(elapsed.Microseconds()) / 1000
		pr.Counters, pr.Latencies = pm.summarize(elapsed)
		rep.Phases = append(rep.Phases, pr)
		logf("  phase %-24s %8.1fms  checkpoints %d/%d", ph.Name, pr.DurationMS,
			passedCount(pr.Checkpoints), len(ph.Checkpoints))
		if failure != nil {
			break
		}
	}
	r.mu.Lock()
	r.phase = nil
	r.mu.Unlock()

	rep.DurationMS = float64(time.Since(rep.Start).Microseconds()) / 1000
	rep.Passed = failure == nil
	if failure != nil {
		failure = fmt.Errorf("scenario %s: %w (replay with -scenario-seed=%d)", s.Name, failure, seed)
		rep.Failure = failure.Error()
	}

	dir := cfg.ReportDir
	if dir == "" {
		dir = os.Getenv("TDP_SCENARIO_DIR")
	}
	if dir != "" {
		if path, werr := rep.Write(dir); werr != nil {
			logf("scenario %s: report write failed: %v", s.Name, werr)
		} else {
			logf("scenario %s: wrote %s", s.Name, path)
		}
	}
	return rep, failure
}

func passedCount(cps []CheckpointReport) int {
	n := 0
	for _, c := range cps {
		if c.Passed {
			n++
		}
	}
	return n
}

// TB is the subset of *testing.T the harness needs; declared here so
// the package does not import testing into non-test binaries.
type TB interface {
	Helper()
	Logf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// RunTB executes the scenario under a test, failing it (with the
// replay seed in the message) on any phase or checkpoint error. A failed
// run first logs its Report as one JSON line — seed, per-phase counters
// and latencies, the failing checkpoint's detail — so the evidence
// stays in the test output (`go test -json` included) with no report
// directory configured.
func RunTB(tb TB, s *Scenario) *Report {
	tb.Helper()
	rep, err := Execute(s, RunConfig{Logf: tb.Logf})
	if err != nil {
		data, _ := json.Marshal(rep) // its numbers are all finite: it encodes
		tb.Logf("scenario report: %s", data)
		tb.Fatalf("%v", err)
	}
	return rep
}
