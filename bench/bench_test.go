package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The smoke test runs every workload and the traced ladders at tiny op
// counts. It asserts shape, not speed: every declared metric present,
// well-formed and finite, and no op failed.

// tiny returns the named workload's registry row with its fixed sizes
// cut to almost nothing.
func tiny(t *testing.T, name string) workloadSpec {
	t.Helper()
	spec, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.sizing = sizing{warm: 20 * time.Millisecond, setups: 1, rounds: 2}
	return spec
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func useTempOutDir(t *testing.T) {
	t.Helper()
	old := outDir
	outDir = t.TempDir()
	t.Setenv("TMPDIR", os.Getenv("TMPDIR")) // enterTempDir repoints it; put it back afterwards
	cleanup, err := enterTempDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cleanup(); outDir = old })
}

func checkReport(t *testing.T, rep *report, declared []metricName) {
	t.Helper()
	if rep.failed != 0 || rep.attempted < 1 {
		t.Errorf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.Failures)
	}
	res := rep.result()
	if len(res.Metrics) != len(declared) {
		t.Errorf("result line carries %d metrics, want %d", len(res.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: value %v is not finite", d.name, m.Value)
		}
		if !metricNameRE.MatchString(d.name) {
			t.Errorf("%s: malformed metric name", d.name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	useTempOutDir(t)
	for _, name := range workloadNames() {
		rep, err := runEndToEnd(options{workload: name, seed: 7, seconds: 0.2}, tiny(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, rep, endToEnd)
		if fr := rep.Metrics["fail_ratio"]; fr.Value != 0 {
			t.Errorf("%s: fail_ratio %v", name, fr.Value)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	useTempOutDir(t)
	o := options{workload: "local_ops", seed: 7, seconds: 0.8, trace: true}
	spec := tiny(t, o.workload)
	rep, err := runTraced(o, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep.Run = newRunRecord(o, spec)
	checkReport(t, rep, perLayer)
	for name, m := range rep.Metrics {
		if strings.HasSuffix(name, ".self_us") && m.Value < 0 {
			t.Errorf("%s = %v, want >= 0", name, m.Value)
		}
	}
}

func TestOpStreamHash(t *testing.T) {
	for _, spec := range registry {
		name := spec.name
		a, again, b := spec.hash(1, streamHashOps), spec.hash(1, streamHashOps), spec.hash(2, streamHashOps)
		if a != again {
			t.Errorf("%s: seed 1 hashed to %x and then %x", name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 both hash to %x", name, a)
		}
	}
}

// TestNamesMatchBenchmarkJSON keeps the names the program prints and the
// names BENCHMARK.json declares equal.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(registry) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(registry))
	}
	for i, w := range bf.Workloads {
		if w.Name != registry[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, registry[i].name)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, prog []metricName) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i, f := range file {
			if f.Name != prog[i].name || f.Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, f.Name, f.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}
