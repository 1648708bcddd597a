package faults

import (
	"errors"
	"testing"
	"time"

	"tdp/internal/liveness"
	"tdp/internal/testkit"
)

// TestDetectHungAttributeServer: a daemon that accepts but never
// replies must surface as an AS fault via the probe timeout — without
// the bound the PING round trip would block the supervisor's watch
// forever and the hang would be undetectable.
func TestDetectHungAttributeServer(t *testing.T) {
	addr := testkit.HungListener(t)
	_, s := newSupervisorT(t)
	s.WatchService("lass", 10*time.Millisecond, 150*time.Millisecond, PingAttrSpace(nil, addr))
	f := waitFault(t, s)
	if f.Role != RoleAux || f.Name != "lass" {
		t.Errorf("fault = %+v, want AS lass", f)
	}
	if f.Err == nil {
		t.Error("hang fault carries no error")
	}
}

// TestPingTimeoutZeroDefaults: a non-positive timeout falls back to
// DefaultPingTimeout rather than producing an unbounded probe. On the
// supervisor's clock, so the two seconds are advanced, not waited out.
func TestPingTimeoutZeroDefaults(t *testing.T) {
	addr := testkit.HungListener(t)
	_, s := newSupervisorT(t)
	clk := testkit.NewClock()
	s.clock = clk
	s.WatchService("lass", time.Second, -1, PingAttrSpace(nil, addr))
	clk.Advance(clk.NextTimer()) // the interval: the probe is now in flight
	if d := clk.NextTimer(); d != DefaultPingTimeout {
		t.Fatalf("probe bound = %v, want DefaultPingTimeout (%v)", d, DefaultPingTimeout)
	}
	select {
	case f := <-s.Faults():
		t.Fatalf("fault before the bound ran out: %v", f)
	default:
	}
	clk.Advance(DefaultPingTimeout)
	f := waitFault(t, s)
	if !errors.Is(f.Err, liveness.ErrProbeTimeout) {
		t.Errorf("fault error = %v, want ErrProbeTimeout", f.Err)
	}
	if !f.When.Equal(clk.Now()) {
		t.Errorf("fault stamped %v, want the supervisor clock's %v", f.When, clk.Now())
	}
}
