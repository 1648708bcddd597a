package paradyn

import (
	"testing"
	"time"

	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

func sendTS(t *testing.T, wc *wire.Conn, ts wire.TelemetrySample) {
	t.Helper()
	m, err := ts.Message()
	if err != nil {
		t.Fatalf("encode tsample: %v", err)
	}
	if err := wc.Send(m); err != nil {
		t.Fatalf("send tsample: %v", err)
	}
}

func waitSnapshot(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFrontEndTSampleIngest(t *testing.T) {
	fe := newFE(t, false)
	d1 := fakeDaemon(t, fe.Addr(), "d1")
	d2 := fakeDaemon(t, fe.Addr(), "d2")
	fe.WaitDaemons(2, time.Second)

	h1 := telemetry.NewHistogram([]float64{1, 10})
	h1.Observe(0.5)
	h2 := telemetry.NewHistogram([]float64{1, 10})
	h2.Observe(5)
	sendTS(t, d1, wire.TelemetrySample{Kind: wire.KindCounter, Name: "ops", Value: 30})
	sendTS(t, d1, wire.TelemetrySample{Kind: wire.KindGaugeMax, Name: "depth", Value: 3})
	sendTS(t, d1, wire.TelemetrySample{Kind: wire.KindHist, Name: "lat", Hist: h1.Snapshot()})
	sendTS(t, d2, wire.TelemetrySample{Kind: wire.KindCounter, Name: "ops", Value: 12})
	sendTS(t, d2, wire.TelemetrySample{Kind: wire.KindGaugeMax, Name: "depth", Value: 9})
	sendTS(t, d2, wire.TelemetrySample{Kind: wire.KindHist, Name: "lat", Hist: h2.Snapshot()})
	// A malformed TSAMPLE is skipped, not fatal to the connection.
	d1.Send(wire.NewMessage("TSAMPLE").Set("kind", "counter").Set("name", "bad").Set("value", "x"))
	// Latest-value semantics: re-sending replaces, never adds.
	sendTS(t, d1, wire.TelemetrySample{Kind: wire.KindCounter, Name: "ops", Value: 31})

	// The two daemons' streams are independent: wait for the last sample
	// of each.
	waitSnapshot(t, "pool counter ops=43 and both histograms", func() bool {
		pool := fe.PoolSnapshot()
		return pool.Counters["ops"] == 43 && pool.Histograms["lat"].Count == 2
	})
	pool := fe.PoolSnapshot()
	if pool.Gauges["depth"] != 9 {
		t.Errorf("pool gauge depth = %d, want 9 (max across daemons)", pool.Gauges["depth"])
	}
	if h := pool.Histograms["lat"]; h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("pool hist lat = %+v, want merged counts", h)
	}
	if _, ok := pool.Counters["bad"]; ok {
		t.Error("malformed tsample was absorbed")
	}

	one := fe.DaemonSnapshot("d1")
	if one.Counters["ops"] != 31 || one.Gauges["depth"] != 3 {
		t.Errorf("DaemonSnapshot(d1) = %+v", one)
	}
	if got := fe.DaemonSnapshot("ghost"); len(got.Counters) != 0 {
		t.Errorf("DaemonSnapshot(ghost) = %+v", got)
	}
}

func TestFrontEndResumeKeepsTelemetry(t *testing.T) {
	fe := newFE(t, true)
	d1 := fakeDaemon(t, fe.Addr(), "d1")
	fe.WaitDaemons(1, time.Second)
	if m, err := d1.Recv(); err != nil || m.Verb != "RUN" {
		t.Fatalf("await RUN: %v, %v", m, err)
	}
	sendTS(t, d1, wire.TelemetrySample{Kind: wire.KindCounter, Name: "ops", Value: 10})
	d1.Send(wire.NewMessage("SAMPLE").Set("fn", "work").Set("calls", "5").Set("time_us", "123"))
	waitSnapshot(t, "ops=10", func() bool {
		return fe.PoolSnapshot().Counters["ops"] == 10
	})

	// The daemon reconnects (resume): same name, new connection. The
	// accumulated state survives, the old connection is dropped, and a
	// cumulative re-publication does not double-count.
	d1b := fakeDaemon(t, fe.Addr(), "d1")
	if m, err := d1b.Recv(); err != nil || m.Verb != "RUN" {
		t.Fatalf("await RUN after resume: %v, %v", m, err)
	}
	if got := fe.Daemons(); len(got) != 1 {
		t.Fatalf("Daemons after resume = %v, want just d1", got)
	}
	if fe.Stats("d1")["work"].Calls != 5 {
		t.Errorf("stats lost across resume: %v", fe.Stats("d1"))
	}
	if got := fe.PoolSnapshot().Counters["ops"]; got != 10 {
		t.Errorf("ops after resume = %d, want 10 (state inherited)", got)
	}
	sendTS(t, d1b, wire.TelemetrySample{Kind: wire.KindCounter, Name: "ops", Value: 12})
	waitSnapshot(t, "ops=12 after resume", func() bool {
		return fe.PoolSnapshot().Counters["ops"] == 12
	})

	// The old connection is closed; the new one still works.
	waitSnapshot(t, "old conn closed", func() bool {
		_, err := d1.Recv()
		return err != nil
	})
	d1b.Send(wire.NewMessage("DONE").Set("status", "exit(0)"))
	if err := fe.WaitDone(1, 2*time.Second); err != nil {
		t.Fatalf("WaitDone after resume: %v", err)
	}
}
