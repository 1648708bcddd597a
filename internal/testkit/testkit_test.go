package testkit

import (
	"strings"
	"testing"

	"tdp/internal/telemetry"
)

func stepsOf(t *testing.T, steps ...string) Steps {
	tr := telemetry.NewTracer("test")
	for _, s := range steps {
		actor, name, _ := strings.Cut(s, ":")
		tr.Step(actor, name, "")
	}
	return StepsOf(t, tr)
}

func TestStepsCheckOrder(t *testing.T) {
	s := stepsOf(t, "RM:tdp_init", "RM:create_AP", "noise:x", "RM:create_RT", "RT:tdp_init", "RT:attach", "RT:continue")
	if err := s.CheckOrder("RM:tdp_init", "RM:create_AP", "RM:create_RT", "RT:attach", "RT:continue"); err != nil {
		t.Errorf("CheckOrder valid sequence: %v", err)
	}
	if err := s.CheckOrder("RT:attach", "RM:create_AP"); err == nil {
		t.Error("CheckOrder accepted out-of-order steps")
	}
	if err := s.CheckOrder("RM:ghost"); err == nil {
		t.Error("CheckOrder accepted missing step")
	}
	if err := s.CheckOrder("RT:attach", "RT:attach"); err == nil {
		t.Error("CheckOrder accepted duplicate expectation of single event")
	}
}

func TestStepsBefore(t *testing.T) {
	s := stepsOf(t, "RM:create", "RT:attach", "RM:create")
	if !s.Before("RM:create", "RT:attach") {
		t.Error("Before(create, attach) = false")
	}
	// First occurrences decide: the later create does not follow attach.
	if s.Before("RT:attach", "RM:create") {
		t.Error("Before(attach, create) = true")
	}
	if s.Before("RM:create", "RM:missing") || s.Before("RM:missing", "RM:create") {
		t.Error("Before with a missing step = true")
	}
}

func TestStepsOfRefusesAFullRing(t *testing.T) {
	tr := telemetry.NewTracer("test")
	for i := 0; i <= spanRing; i++ {
		tr.Step("A", "step", "")
	}
	if tr.Len() != spanRing {
		t.Fatalf("tracer holds %d spans, want the ring's %d: spanRing no longer matches telemetry", tr.Len(), spanRing)
	}
	ft := &fatalRecorder{TB: t}
	func() {
		defer func() { recover() }()
		StepsOf(ft, tr)
	}()
	if !ft.failed {
		t.Error("StepsOf read a full ring without failing the test")
	}
}

// fatalRecorder notes a Fatalf instead of ending the test.
type fatalRecorder struct {
	testing.TB
	failed bool
}

func (f *fatalRecorder) Fatalf(string, ...any) {
	f.failed = true
	panic("fatal")
}
