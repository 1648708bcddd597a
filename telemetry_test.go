package tdp

import (
	"context"
	"strings"
	"testing"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
)

// TestHandleTelemetry: a handle configured with a registry counts
// every tdp_* operation and layers the attrspace client metrics on
// top.
func TestHandleTelemetry(t *testing.T) {
	addr := newLASS(t)
	reg := telemetry.NewRegistry()
	h := initT(t, Config{
		Context: "job", LASSAddr: addr, Identity: "rm",
		Telemetry: reg, Tracer: telemetry.NewTracer("rm"),
	})

	if h.Telemetry() != reg {
		t.Fatal("Telemetry() accessor does not return the configured registry")
	}
	if err := h.Put("pid", "42"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := h.Get(context.Background(), "pid"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := h.TryGet("pid"); err != nil {
		t.Fatalf("TryGet: %v", err)
	}

	done := make(chan struct{})
	if err := h.AsyncGet("pid", func(r Result, arg any) {
		if r.Err != nil || r.Value != "42" {
			t.Errorf("async result: %+v", r)
		}
		close(done)
	}, nil); err != nil {
		t.Fatalf("AsyncGet: %v", err)
	}
	<-h.Activity()
	h.ServiceEvents()
	<-done

	snap := reg.Snapshot()
	for _, c := range []string{
		"tdp.ops.put", "tdp.ops.get", "tdp.ops.tryget",
		"tdp.ops.async_get", "tdp.ops.service_events",
		"client.ops.put", "client.ops.get",
		"wire.tx.bytes", "wire.rx.bytes",
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s = 0, want non-zero", c)
		}
	}
	if hs, ok := snap.Histograms["tdp.latency.put"]; !ok || hs.Count == 0 {
		t.Errorf("tdp.latency.put histogram empty")
	}
	if g, ok := snap.Gauges["tdp.events.pending"]; !ok || g != 0 {
		t.Errorf("tdp.events.pending = %d (present=%v), want 0 after ServiceEvents", g, ok)
	}
}

// TestHandleMonitorPublisher: the handle self-publishes registry
// metrics into its local space under the re-exported MonitorPrefix.
func TestHandleMonitorPublisher(t *testing.T) {
	addr := newLASS(t)
	reg := telemetry.NewRegistry()
	rm := initT(t, Config{
		Context: "job", LASSAddr: addr, Identity: "rm", Telemetry: reg,
	})
	rt := initT(t, Config{Context: "job", LASSAddr: addr, Identity: "rt"})

	if err := rm.Put("pid", "7"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	stop := rm.StartMonitorPublisher(5 * time.Millisecond)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	attr := MonitorPrefix + "rm.tdp.ops.put"
	if !strings.HasPrefix(attr, "tdp.monitor.") {
		t.Fatalf("MonitorPrefix re-export wrong: %q", attr)
	}
	v, err := rt.Get(ctx, attr)
	if err != nil {
		t.Fatalf("Get %s: %v", attr, err)
	}
	if v == "" || v == "0" {
		t.Errorf("published put counter = %q, want non-zero", v)
	}
}

// TestUninstrumentedHandleIsFree: a handle without telemetry must work
// exactly as before (nil registry, nil tracer — the default).
func TestUninstrumentedHandleIsFree(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "job", LASSAddr: addr, Identity: "rm"})
	if h.Telemetry() != nil || h.Tracer() != nil {
		t.Fatal("unconfigured accessors not nil")
	}
	if err := h.Put("a", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, err := h.TryGet("a"); err != nil || v != "1" {
		t.Fatalf("TryGet = %q, %v", v, err)
	}
	if stop := h.StartMonitorPublisher(time.Millisecond); stop == nil {
		t.Fatal("StartMonitorPublisher returned nil stop")
	} else {
		stop()
	}
}

// TestHandleMetersResolveOnFirstUse: a handle resolves an operation's
// tdp.* counter and histogram when the operation is first called, so the
// registry of a fresh handle names no operation and afterwards names
// exactly the ones called.
func TestHandleMetersResolveOnFirstUse(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := initT(t, Config{Context: "job", LASSAddr: newLASS(t), Identity: "rm", Telemetry: reg})
	tdpNames := func() map[string]bool {
		names := map[string]bool{}
		snap := reg.Snapshot()
		for name := range snap.Counters {
			if strings.HasPrefix(name, "tdp.ops.") {
				names[name] = true
			}
		}
		for name := range snap.Histograms {
			if strings.HasPrefix(name, "tdp.latency.") {
				names[name] = true
			}
		}
		return names
	}
	if got := tdpNames(); len(got) != 0 {
		t.Fatalf("fresh handle already registered %v", got)
	}
	for i := 0; i < 3; i++ {
		if err := h.Put("pid", "42"); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, err := h.TryGet("pid"); err != nil {
			t.Fatalf("TryGet: %v", err)
		}
	}
	got := tdpNames()
	want := []string{"tdp.ops.put", "tdp.latency.put", "tdp.ops.tryget", "tdp.latency.tryget"}
	for _, name := range want {
		if !got[name] {
			t.Errorf("%s missing after the operation was called", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registered %v, want exactly %v", got, want)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["tdp.ops.put"]; n != 3 {
		t.Errorf("tdp.ops.put = %d, want 3", n)
	}
	if n := snap.Histograms["tdp.latency.tryget"].Count; n != 3 {
		t.Errorf("tdp.latency.tryget count = %d, want 3", n)
	}
}

// TestHandlePutAddsNoAllocations: with a registry configured, a put
// through the handle allocates what the same put on the handle's own
// connection allocates — the tdp.* accounting adds nothing per call.
func TestHandlePutAddsNoAllocations(t *testing.T) {
	h := initT(t, Config{Context: "job", LASSAddr: newLASS(t), Identity: "rm", Telemetry: telemetry.NewRegistry()})
	var err error
	note := func(e error) {
		if e != nil {
			err = e
		}
	}
	// Warm past everything that changes what a put costs: the meters and
	// the reply slot (first call), the ring a same-host connection earns
	// (100 replies), the small seqs strconv formats without allocating.
	for i := 0; i < 300; i++ {
		note(h.Put("pid", "42"))
	}
	direct := testing.AllocsPerRun(200, func() { _, e := h.lass.PutAt(context.Background(), attrspace.Local, "pid", "42"); note(e) })
	wrapped := testing.AllocsPerRun(200, func() { note(h.Put("pid", "42")) })
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	t.Logf("Client.PutAt %.1f allocs, Handle.Put %.1f", direct, wrapped)
	if wrapped > direct {
		t.Errorf("Handle.Put allocates %.1f objects per call, the connection's own put %.1f", wrapped, direct)
	}
}
