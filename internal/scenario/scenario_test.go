package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestScenariosSmoke is the tier-1 surface: every pre-built scenario
// shape at smoke scale, seconds each, under plain `go test ./...`.
func TestScenariosSmoke(t *testing.T) {
	for _, s := range Smoke() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			rep := RunTB(t, s)
			if !rep.Passed {
				t.Fatalf("report not marked passed: %+v", rep)
			}
		})
	}
}

// TestScenariosFull is the pool-scale tier behind `make scenario`
// (TDP_SCENARIO=full): 10k+ hosts, shard loss under sustained load,
// full churn and soak windows, each run writing SCENARIO_<name>.json
// when TDP_SCENARIO_DIR is set.
func TestScenariosFull(t *testing.T) {
	if os.Getenv("TDP_SCENARIO") != "full" {
		t.Skip("full scenario tier runs under `make scenario` (TDP_SCENARIO=full)")
	}
	for _, s := range Full() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			rep := RunTB(t, s)
			t.Logf("scenario %s: %d phases in %.1fms (seed %d)", rep.Scenario, len(rep.Phases), rep.DurationMS, rep.Seed)
		})
	}
}

// TestSeedResolution pins the replay contract: explicit > flag/env >
// default 1, and DeriveSeed is a pure function of (seed, label).
func TestSeedResolution(t *testing.T) {
	if got := resolveSeed(42); got != 42 {
		t.Errorf("explicit seed: got %d, want 42", got)
	}
	t.Setenv("TDP_SCENARIO_SEED", "7")
	if got := resolveSeed(0); got != 7 {
		t.Errorf("env seed: got %d, want 7", got)
	}
	t.Setenv("TDP_SCENARIO_SEED", "")
	if got := resolveSeed(0); got != 1 {
		t.Errorf("default seed: got %d, want 1", got)
	}
	r1 := &Run{Seed: 5}
	r2 := &Run{Seed: 5}
	if r1.DeriveSeed("chaos") != r2.DeriveSeed("chaos") {
		t.Error("DeriveSeed not deterministic")
	}
	if r1.DeriveSeed("chaos") == r1.DeriveSeed("churn") {
		t.Error("DeriveSeed does not separate labels")
	}
}

// TestExecuteFailureShape: a failing checkpoint aborts the run, the
// report records the failure with the replay seed, later phases don't
// run, and cleanups still do.
func TestExecuteFailureShape(t *testing.T) {
	cleaned := false
	ran2 := false
	s := &Scenario{
		Name: "failing",
		Phases: []Phase{
			{
				Name: "p1",
				Run: func(r *Run) error {
					r.Defer(func() { cleaned = true })
					r.Observe("op", 3*time.Millisecond)
					r.Count("ops", 2)
					return nil
				},
				Checkpoints: []Checkpoint{
					{Name: "always-fails", Check: func(r *Run) error {
						return os.ErrNotExist
					}},
				},
			},
			{Name: "p2", Run: func(r *Run) error { ran2 = true; return nil }},
		},
	}
	rep, err := Execute(s, RunConfig{Seed: 99})
	if err == nil {
		t.Fatal("Execute returned nil error for a failing checkpoint")
	}
	if ran2 {
		t.Error("phase after the failure still ran")
	}
	if !cleaned {
		t.Error("cleanups did not run on failure")
	}
	if rep.Passed {
		t.Error("report marked passed")
	}
	if rep.Seed != 99 {
		t.Errorf("report seed = %d, want 99", rep.Seed)
	}
	if len(rep.Phases) != 1 || len(rep.Phases[0].Checkpoints) != 1 || rep.Phases[0].Checkpoints[0].Passed {
		t.Errorf("phase report shape wrong: %+v", rep.Phases)
	}
	if got := rep.Phases[0].Counters["ops"]; got != 2 {
		t.Errorf("phase counters lost: ops = %d, want 2", got)
	}
	if lat, ok := rep.Phases[0].Latencies["op"]; !ok || lat.Count != 1 {
		t.Errorf("phase latencies lost: %+v", rep.Phases[0].Latencies)
	}
	for _, frag := range []string{"p1", "always-fails", "-scenario-seed=99"} {
		if !contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

// fakeTB records what RunTB tells a test.
type fakeTB struct {
	logs  []string
	fatal string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Logf(format string, args ...any) {
	f.logs = append(f.logs, fmt.Sprintf(format, args...))
}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.fatal = fmt.Sprintf(format, args...)
}

// TestRunTBLogsFailedReport: a failed run leaves its report in the test
// output as one JSON line before the test fails — the seed, the phase's
// counters and latencies, and the failing checkpoint's detail — so a
// failure seen once in `go test -json ./...` can be read afterwards.
func TestRunTBLogsFailedReport(t *testing.T) {
	s := &Scenario{
		Name: "fails-with-evidence",
		Phases: []Phase{{
			Name: "load",
			Run: func(r *Run) error {
				r.Count("ops", 7)
				r.Observe("op", time.Millisecond)
				return nil
			},
			Checkpoints: []Checkpoint{{Name: "converged", Check: func(*Run) error {
				return errors.New("2 of 9 mirrors diverged")
			}}},
		}},
	}
	tb := &fakeTB{}
	RunTB(tb, s)
	if !contains(tb.fatal, "converged") {
		t.Fatalf("Fatalf = %q, want the failing checkpoint", tb.fatal)
	}
	var line string
	for _, l := range tb.logs {
		if rest, ok := strings.CutPrefix(l, "scenario report: "); ok {
			line = rest
		}
	}
	var rep Report
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		t.Fatalf("no JSON report line in the log (%v): %q", err, tb.logs)
	}
	ph := rep.Phases[0]
	if rep.Seed != resolveSeed(0) || rep.Passed || ph.Counters["ops"] != 7 || ph.Latencies["op"].Count != 1 ||
		ph.Checkpoints[0].Detail != "2 of 9 mirrors diverged" {
		t.Errorf("logged report = %s", line)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReportWrite: Execute writes SCENARIO_<name>.json into the
// configured directory with the seed and per-phase metrics inside.
func TestReportWrite(t *testing.T) {
	dir := t.TempDir()
	s := &Scenario{
		Name: "report-shape",
		Phases: []Phase{{
			Name: "only",
			Run: func(r *Run) error {
				r.Observe("lat", time.Millisecond)
				r.Count("n", 1)
				return nil
			},
		}},
	}
	if _, err := Execute(s, RunConfig{Seed: 3, ReportDir: dir}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	data, err := os.ReadFile(dir + "/SCENARIO_report-shape.json")
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	for _, frag := range []string{`"seed": 3`, `"passed": true`, `"lat"`, `"p99_us"`} {
		if !contains(string(data), frag) {
			t.Errorf("report missing %q:\n%s", frag, data)
		}
	}
}
