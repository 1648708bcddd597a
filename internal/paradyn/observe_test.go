package paradyn

import (
	"testing"
	"time"

	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// serveStats answers every STATS on wc from reg, as paradynd does, until
// the connection closes; the returned channel receives each RUN.
func serveStats(wc *wire.Conn, name string, reg *telemetry.Registry) <-chan struct{} {
	runs := make(chan struct{}, 4)
	go func() {
		for {
			m, err := wc.Recv()
			if err != nil {
				return
			}
			switch m.Verb {
			case "RUN":
				runs <- struct{}{}
			case "STATS":
				wc.Send(StatsReply(m, name, reg.Snapshot()))
			}
		}
	}()
	return runs
}

func awaitRun(t *testing.T, runs <-chan struct{}) {
	t.Helper()
	select {
	case <-runs:
	case <-time.After(2 * time.Second):
		t.Fatal("no RUN")
	}
}

// TestFrontEndPollMerge: PoolSnapshot polls every registrant and merges
// the replies — counters sum, gauges take the maximum, histograms merge
// bucket-wise — and each poll reads the daemons afresh, replacing their
// last replies, never adding to them. DaemonSnapshot polls one.
func TestFrontEndPollMerge(t *testing.T) {
	fe := newFE(t, false)
	r1, r2 := telemetry.NewRegistry(), telemetry.NewRegistry()
	serveStats(fakeDaemon(t, fe.Addr(), "d1"), "d1", r1)
	serveStats(fakeDaemon(t, fe.Addr(), "d2"), "d2", r2)
	if err := fe.WaitDaemons(2, time.Second); err != nil {
		t.Fatal(err)
	}
	r1.Counter("ops").Add(30)
	r1.Gauge("depth").Set(3)
	r1.Histogram("lat", []float64{1, 10}).Observe(0.5)
	r2.Counter("ops").Add(12)
	r2.Gauge("depth").Set(9)
	r2.Histogram("lat", []float64{1, 10}).Observe(5)

	pool := fe.PoolSnapshot()
	if pool.Counters["ops"] != 42 {
		t.Errorf("pool counter ops = %d, want 42", pool.Counters["ops"])
	}
	if pool.Gauges["depth"] != 9 {
		t.Errorf("pool gauge depth = %d, want 9 (max across daemons)", pool.Gauges["depth"])
	}
	if h := pool.Histograms["lat"]; h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("pool hist lat = %+v, want merged counts", h)
	}

	// Latest-value semantics: the next poll replaces, never adds.
	r1.Counter("ops").Add(1)
	if got := fe.PoolSnapshot().Counters["ops"]; got != 43 {
		t.Errorf("ops after a second poll = %d, want 43", got)
	}
	one := fe.DaemonSnapshot("d1")
	if one.Counters["ops"] != 31 || one.Gauges["depth"] != 3 {
		t.Errorf("DaemonSnapshot(d1) = %+v", one)
	}
	if got := fe.DaemonSnapshot("ghost"); len(got.Counters) != 0 {
		t.Errorf("DaemonSnapshot(ghost) = %+v", got)
	}
}

// TestFrontEndPollMalformedAndDone: a malformed reply is skipped, not
// fatal to the connection; DONE's snapshot is the daemon's final one,
// kept after its connection is gone.
func TestFrontEndPollMalformedAndDone(t *testing.T) {
	fe := newFE(t, false)
	d1 := fakeDaemon(t, fe.Addr(), "d1")
	if err := fe.WaitDaemons(1, time.Second); err != nil {
		t.Fatal(err)
	}
	reply := func(json string) {
		t.Helper()
		m, err := d1.Recv()
		if err != nil || m.Verb != "STATS" {
			t.Fatalf("expected STATS, got %v, %v", m, err)
		}
		d1.Send(wire.NewMessage("STATSV").Set("daemon", "d1").Set("json", json))
	}
	polled := make(chan telemetry.Snapshot)
	go func() { polled <- fe.PoolSnapshot() }()
	reply(`{"counters":{"ops":5}}`)
	if got := (<-polled).Counters["ops"]; got != 5 {
		t.Fatalf("ops = %d, want 5", got)
	}
	go func() { polled <- fe.PoolSnapshot() }()
	reply(`{"counters":`) // malformed: the last good reply stands
	if got := (<-polled).Counters["ops"]; got != 5 {
		t.Errorf("ops after a malformed reply = %d, want 5", got)
	}

	// DONE carries the final snapshot; no poll is needed after it.
	d1.Send(WithSnapshot(wire.NewMessage("DONE").Set("status", "exit(0)"),
		telemetry.Snapshot{Counters: map[string]int64{"ops": 9}}))
	if err := fe.WaitDone(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	d1.Close()
	if got := fe.PoolSnapshot().Counters["ops"]; got != 9 {
		t.Errorf("ops after DONE = %d, want the final 9", got)
	}
}

func TestFrontEndResumeKeepsTelemetry(t *testing.T) {
	fe := newFE(t, true)
	reg := telemetry.NewRegistry()
	d1 := fakeDaemon(t, fe.Addr(), "d1")
	awaitRun(t, serveStats(d1, "d1", reg))
	reg.Counter("ops").Add(10)
	d1.Send(wire.NewMessage("SAMPLE").Set("fn", "work").Set("calls", "5").Set("time_us", "123"))
	if got := fe.PoolSnapshot().Counters["ops"]; got != 10 {
		t.Fatalf("ops = %d, want 10", got)
	}

	// The daemon reconnects (resume): same name, new connection, same
	// cumulative registry. The accumulated state survives, the old
	// connection is dropped, and the registrant is counted once.
	d1b := fakeDaemon(t, fe.Addr(), "d1")
	awaitRun(t, serveStats(d1b, "d1", reg))
	if got := fe.Daemons(); len(got) != 1 {
		t.Fatalf("Daemons after resume = %v, want just d1", got)
	}
	waitSnapshot(t, "stats kept across resume", func() bool { return fe.Stats("d1")["work"].Calls == 5 })
	reg.Counter("ops").Add(2)
	if got := fe.PoolSnapshot().Counters["ops"]; got != 12 {
		t.Errorf("ops after resume = %d, want 12 (replaced, not 22)", got)
	}

	// The old connection is closed; the new one still works.
	waitSnapshot(t, "old conn closed", func() bool {
		return d1.Send(wire.NewMessage("SAMPLE").Set("fn", "x")) != nil
	})
	d1b.Send(wire.NewMessage("DONE").Set("status", "exit(0)"))
	if err := fe.WaitDone(1, 2*time.Second); err != nil {
		t.Fatalf("WaitDone after resume: %v", err)
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
