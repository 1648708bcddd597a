package attrspace

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"
)

// soakDuration is 30s by default, overridable with TDP_SOAK (e.g.
// TDP_SOAK=5s for a quick run, TDP_SOAK=10m for a long burn-in).
func soakDuration(t *testing.T) time.Duration {
	t.Helper()
	if v := os.Getenv("TDP_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad TDP_SOAK %q: %v", v, err)
		}
		return d
	}
	return 30 * time.Second
}

// TestSoakSessionSurvivesRestarts drives a live Session through a
// sustained loop of daemon restarts — alternating crashes and graceful
// drains of an in-process attribute server — while a writer keeps
// putting and a subscribed watcher mirrors. The sessions must never
// give up, retries must stay bounded (no retry storms), and the final
// state must be exactly what the writer last wrote, with the watcher
// resynced to match.
func TestSoakSessionSurvivesRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped with -short")
	}
	dur := soakDuration(t)
	r := newRestartable(t)
	keep := r.space.Join("soak")
	defer keep.Leave()

	cfg := SessionConfig{
		Addr:        r.addr,
		Context:     "soak",
		Backoff:     Backoff{Initial: 5 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2, Jitter: 0.5},
		MaxAttempts: -1,
		ConnectWait: 10 * time.Second,
		Seed:        chaosSeed(t),
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

	deadline := time.Now().Add(dur)
	nextRestart := time.Now().Add(400 * time.Millisecond)
	restarts, writes := 0, 0
	var lastVal string
	for time.Now().Before(deadline) {
		writes++
		lastVal = fmt.Sprintf("w%d", writes)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := writer.PutCtx(ctx, "heartbeat", lastVal)
		cancel()
		if err != nil {
			t.Fatalf("PutCtx (write %d, after %d restarts): %v", writes, restarts, err)
		}
		if time.Now().After(nextRestart) {
			if restarts%2 == 0 {
				r.kill() // crash
			} else {
				r.drain(100 * time.Millisecond) // graceful GOAWAY
			}
			time.Sleep(10 * time.Millisecond)
			r.restart()
			restarts++
			nextRestart = time.Now().Add(400 * time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if restarts < 3 {
		t.Fatalf("only %d restarts in %v; soak did not exercise recovery", restarts, dur)
	}
	if writer.GaveUp() || watcher.GaveUp() {
		t.Fatalf("a session gave up (writer %v, watcher %v)", writer.GaveUp(), watcher.GaveUp())
	}

	// Bounded retries: each restart should cost a handful of retried
	// ops per session, not a storm. The generous constant still fails
	// hard on quadratic/unbounded retry behavior.
	// The last restart may be milliseconds old when the loop ends: give
	// its reconnect the time to land before counting.
	wrec, wret, _ := writer.Stats()
	for until := time.Now().Add(5 * time.Second); wrec < int64(restarts) && time.Now().Before(until); wrec, wret, _ = writer.Stats() {
		time.Sleep(time.Millisecond)
	}
	if wrec < int64(restarts) {
		t.Errorf("writer reconnects = %d, want >= %d (one per restart)", wrec, restarts)
	}
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
