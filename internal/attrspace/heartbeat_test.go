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

// oneShard makes a caching LASS in front of the one shard at addr and
// returns its shard connection, whose first dial is under way.
func oneShard(t *testing.T, addr string, cfg CacheConfig) *shardConn {
	t.Helper()
	lass := NewServer()
	t.Cleanup(lass.Close)
	return lass.EnableGlobalCache(addr, cfg).conns[0]
}

// TestShardHeartbeatDetectsHalfDeadConn cuts a shard connection's
// transport without producing any error: absent a heartbeat the router
// would hold the dead connection forever; with one, the missed PONG
// retires the connection and the shard redials, so the next operation
// rides a fresh connection.
func TestShardHeartbeatDetectsHalfDeadConn(t *testing.T) {
	srv, addr := startServer(t)
	keep := srv.Space().Join("job1")
	defer keep.Leave()
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
	sh := oneShard(t, addr, CacheConfig{Dial: dial, ShardHeartbeat: 25 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	first, err := sh.client(ctx)
	if err != nil {
		t.Fatalf("first connection: %v", err)
	}
	if _, err := sh.put(ctx, "job1", "", "k", "1"); err != nil {
		t.Fatalf("put: %v", err)
	}

	mu.Lock()
	conns[0].dead.Store(true)
	mu.Unlock()

	waitFor(t, func() bool { c, _ := sh.live(); return c != nil && c != first })
	if _, err := sh.put(ctx, "job1", "", "k", "2"); err != nil {
		t.Fatalf("put after the heartbeat's reconnect: %v", err)
	}
	if v, _, err := sh.tryGet(ctx, "job1", "k"); err != nil || v != "2" {
		t.Fatalf("tryGet = %q, %v", v, err)
	}
}

// TestChaosLargeResyncHeartbeat pins what chunked snapshots are for: a
// heartbeating shard connection fetches a context of about 20 chunks
// (CSNAP) back to back — at least three times, and for at least five
// heartbeat intervals, so pings run while the parts stream — and its
// pings keep being answered between the parts: the bulk reply never
// reads as a dead transport, so the shard keeps its connection.
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

	sh := oneShard(t, addr, CacheConfig{ShardHeartbeat: beat})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := sh.client(ctx)
	if err != nil {
		t.Fatalf("connection: %v", err)
	}
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < 5*beat; i++ {
		snap, err := sh.snapshot(ctx, "big")
		if err != nil || len(snap) != len(pairs) {
			t.Fatalf("snapshot %d: %d entries, %v; want %d", i, len(snap), err, len(pairs))
		}
		if now, _ := sh.live(); now != c {
			t.Fatalf("snapshot %d: the heartbeat retired the connection under a bulk reply", i)
		}
	}
	if n := sh.cReconnects.Value(); n != 0 {
		t.Errorf("the shard reconnected %d times, want 0", n)
	}
}
