package attrspace

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/attr"
)

// blackholeConn simulates a half-dead transport: once cut, writes
// pretend to succeed but go nowhere, so the peer never answers and no
// read error ever surfaces. Only an application-level heartbeat can
// notice this failure mode.
type blackholeConn struct {
	net.Conn
	dead atomic.Bool
}

func (b *blackholeConn) Write(p []byte) (int, error) {
	if b.dead.Load() {
		return len(p), nil
	}
	return b.Conn.Write(p)
}

// TestSessionHeartbeatDetectsHalfDeadConn cuts a session's transport
// without producing any error: absent a heartbeat the session would
// hang on the dead connection forever; with one, the missed PONG
// retires the generation and the next operation rides a fresh
// connection.
func TestSessionHeartbeatDetectsHalfDeadConn(t *testing.T) {
	_, addr := startServer(t)
	var mu sync.Mutex
	var conns []*blackholeConn
	dial := func(a string) (net.Conn, error) {
		c, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		bc := &blackholeConn{Conn: c}
		mu.Lock()
		conns = append(conns, bc)
		mu.Unlock()
		return bc, nil
	}
	s := NewSession(SessionConfig{
		Dial: dial, Addr: addr, Context: "job1",
		Heartbeat: 25 * time.Millisecond,
	})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if _, err := s.PutAt(ctx, Local, "k", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}

	mu.Lock()
	conns[0].dead.Store(true)
	mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if reconnects, _, _ := s.Stats(); reconnects >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never detected the half-dead connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.PutAt(ctx, Local, "k", "2"); err != nil {
		t.Fatalf("Put after heartbeat reconnect: %v", err)
	}
	if v, _, err := s.TryGetAt(ctx, Local, "k"); err != nil || v != "2" {
		t.Fatalf("TryGet = %q, %v", v, err)
	}
}

// TestChaosLargeResyncHeartbeat is satellite coverage for the
// snapshot-starvation fix: a context big enough that its resync replay
// spans many chunks, a session heartbeating aggressively, and repeated
// crash restarts. The replay must never read as a dead transport (the
// session may not give up), and the watcher must converge on the
// authoritative state with per-attribute seq order intact.
func TestChaosLargeResyncHeartbeat(t *testing.T) {
	r := newRestartable(t)
	keep := r.space.Join("big")
	defer keep.Leave()

	// A snapshot around 20 chunks with values bulky enough that the
	// replay is real work.
	val := strings.Repeat("v", 256)
	var pairs []attr.KV
	for i := 0; i < SnapChunkEntries*20; i++ {
		pairs = append(pairs, attr.KV{Key: fmt.Sprintf("big%05d", i), Value: val})
	}
	if err := keep.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}

	m := newMirror()
	s := NewSession(SessionConfig{
		Addr: r.addr, Context: "big",
		Heartbeat:   25 * time.Millisecond,
		MaxAttempts: -1, ConnectWait: 10 * time.Second,
	})
	defer s.Close()
	s.setEventHandler(m.handle)
	if err := s.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	cancel()

	const restarts = 3
	for i := 0; i < restarts; i++ {
		r.kill()
		// Mutate while the watcher is away so every resync has a gap to
		// close on top of the bulk replay.
		if _, err := keep.PutSeq(fmt.Sprintf("gap%d", i), "x"); err != nil {
			t.Fatalf("PutSeq: %v", err)
		}
		if _, err := keep.DeleteSeq(fmt.Sprintf("big%05d", i)); err != nil {
			t.Fatalf("DeleteSeq: %v", err)
		}
		r.restart()
		// Wait until this round's marker attribute lands in the mirror:
		// the resync (bulk replay + gap) completed under the heartbeat.
		deadline := time.Now().Add(15 * time.Second)
		for {
			vals, _, _ := m.snapshot()
			if _, ok := vals[fmt.Sprintf("gap%d", i)]; ok {
				break
			}
			if s.gaveUp() {
				t.Fatal("session gave up during a large resync")
			}
			if time.Now().After(deadline) {
				t.Fatalf("restart %d: resync never delivered the gap marker", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	want, err := keep.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		vals, resyncs, violations := m.snapshot()
		if len(violations) != 0 {
			t.Fatalf("seq violations: %v", violations)
		}
		if sameMap(vals, want) {
			if resyncs < restarts {
				t.Errorf("resyncs = %d, want >= %d", resyncs, restarts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror never converged: mirror=%d attrs, server=%d", len(vals), len(want))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.gaveUp() {
		t.Fatal("session gave up")
	}
}
