package attrspace

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"tdp/internal/liveness"
)

// soakRestarts is 40 by default, overridable with TDP_SOAK (e.g.
// TDP_SOAK=5000 for a burn-in).
func soakRestarts(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("TDP_SOAK"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad TDP_SOAK %q: want a restart count", v)
		}
		return n
	}
	return 40
}

// TestSoakSessionSurvivesRestarts drives a live Session through a
// sustained loop of daemon restarts — alternating crashes and graceful
// drains of an in-process attribute server — while a writer keeps
// putting and a subscribed watcher mirrors. The test is bound by
// restarts, not by the wall clock: each one is awaited by condition
// (both sessions report the reconnect). The sessions must never give
// up, retries must stay bounded (no retry storms), and the final state
// must be exactly what the writer last wrote, with the watcher resynced
// to match.
func TestSoakSessionSurvivesRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped with -short")
	}
	r := newRestartable(t)
	keep := r.space.Join("soak")
	defer keep.Leave()

	cfg := SessionConfig{
		Addr:        r.addr,
		Context:     "soak",
		Backoff:     liveness.Schedule{Initial: 5 * time.Millisecond, Max: 100 * time.Millisecond},
		MaxAttempts: -1,
		ConnectWait: 10 * time.Second,
	}
	writer := NewSession(cfg)
	defer writer.Close()
	m := newMirror()
	watcher := NewSession(cfg)
	defer watcher.Close()
	watcher.SetEventHandler(m.handle)
	if err := watcher.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	restarts, writes := 0, 0
	var lastVal string
	put := func() {
		t.Helper()
		writes++
		lastVal = fmt.Sprintf("w%d", writes)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := writer.PutCtx(ctx, "heartbeat", lastVal); err != nil {
			t.Fatalf("PutCtx (write %d, after %d restarts): %v", writes, restarts, err)
		}
	}
	for n := soakRestarts(t); restarts < n; {
		for i := 0; i < 5; i++ {
			put()
		}
		if restarts%2 == 0 {
			r.kill() // crash
		} else {
			r.drain(100 * time.Millisecond) // graceful GOAWAY
		}
		r.restart()
		restarts++
		put() // issued across the outage
		for until := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			wrec, _, _ := writer.Stats()
			vrec, _, _ := watcher.Stats()
			if wrec >= int64(restarts) && vrec >= int64(restarts) {
				break
			}
			if time.Now().After(until) {
				t.Fatalf("restart %d: reconnects writer %d, watcher %d", restarts, wrec, vrec)
			}
		}
	}

	if writer.GaveUp() || watcher.GaveUp() {
		t.Fatalf("a session gave up (writer %v, watcher %v)", writer.GaveUp(), watcher.GaveUp())
	}

	// Bounded retries: each restart should cost a handful of retried
	// ops per session, not a storm. The generous constant still fails
	// hard on quadratic/unbounded retry behavior.
	_, wret, _ := writer.Stats()
	if max := int64(restarts*16 + 32); wret > max {
		t.Errorf("writer retries = %d after %d restarts, want <= %d (retry storm?)", wret, restarts, max)
	}

	// Eventual resync: the watcher converges to the authoritative
	// final value.
	convergeBy := time.Now().Add(10 * time.Second)
	for {
		got, resyncs, violations := m.snapshot()
		if got["heartbeat"] == lastVal && resyncs > 0 {
			if len(violations) > 0 {
				t.Fatalf("per-attr seq went backward %d times: %v", len(violations), violations)
			}
			break
		}
		if time.Now().After(convergeBy) {
			t.Fatalf("watcher never converged: heartbeat=%q want %q (resyncs=%d)", got["heartbeat"], lastVal, resyncs)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The server's own state agrees with the last write.
	if v, _, err := keep.TryGetSeq("heartbeat"); err != nil || v != lastVal {
		t.Errorf("authoritative heartbeat = %q, %v; want %q", v, err, lastVal)
	}
}
