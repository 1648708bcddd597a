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
// hold the dead connection forever; with one, the missed PONG retires
// the generation and the session redials, so the next operation rides a
// fresh connection.
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
	first, err := s.client(ctx)
	if err != nil {
		t.Fatalf("first connection: %v", err)
	}
	if _, err := first.PutAt(ctx, Local, "k", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}

	mu.Lock()
	conns[0].dead.Store(true)
	mu.Unlock()

	waitFor(t, func() bool { c, _ := s.live(); return c != nil && c != first })
	second, err := s.client(ctx)
	if err != nil {
		t.Fatalf("connection after the heartbeat: %v", err)
	}
	if _, err := second.PutAt(ctx, Local, "k", "2"); err != nil {
		t.Fatalf("Put after heartbeat reconnect: %v", err)
	}
	if v, _, err := second.TryGetAt(ctx, Local, "k"); err != nil || v != "2" {
		t.Fatalf("TryGet = %q, %v", v, err)
	}
}

// TestChaosLargeResyncHeartbeat pins what chunked snapshots are for: a
// heartbeating session's connection fetches a context of about 20
// chunks back to back — at least three times, and for at least five
// heartbeat intervals, so pings run while the parts stream — and its
// pings keep being answered between the parts: the bulk reply never
// reads as a dead transport, so the session keeps its generation.
func TestChaosLargeResyncHeartbeat(t *testing.T) {
	const beat = 100 * time.Millisecond
	srv, addr := startServer(t)
	keep := srv.Space().Join("big")
	defer keep.Leave()
	// Values bulky enough that each snapshot is real work.
	val := strings.Repeat("v", 256)
	var pairs []attr.KV
	for i := 0; i < SnapChunkEntries*20; i++ {
		pairs = append(pairs, attr.KV{Key: fmt.Sprintf("big%05d", i), Value: val})
	}
	if err := keep.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}

	s := NewSession(SessionConfig{Addr: addr, Context: "big", Heartbeat: beat})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := s.client(ctx)
	if err != nil {
		t.Fatalf("connection: %v", err)
	}
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < 5*beat; i++ {
		snap, _, err := c.SnapshotSeq(ctx)
		if err != nil || len(snap) != len(pairs) {
			t.Fatalf("snapshot %d: %d entries, %v; want %d", i, len(snap), err, len(pairs))
		}
		if now, _ := s.live(); now != c {
			t.Fatalf("snapshot %d: the heartbeat retired the connection under a bulk reply", i)
		}
	}
	if n := s.cReconnects.Value(); n != 0 {
		t.Errorf("session reconnected %d times, want 0", n)
	}
}
