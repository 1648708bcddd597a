package attrspace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// startShardedPool runs n CASS shards (each enforcing its slice of the
// hash space via SetShard) and one routing LASS in front of them, and
// returns the pool. Heartbeats run fast so down-detection tests do not
// crawl.
func startShardedPool(t *testing.T, n int) (lass *Server, shards []*Server, shardAddrs []string, lassAddr string) {
	t.Helper()
	shards = make([]*Server, n)
	shardAddrs = make([]string, n)
	for i := 0; i < n; i++ {
		shards[i], shardAddrs[i] = startServer(t)
		if err := shards[i].SetShard(i, n); err != nil {
			t.Fatalf("SetShard(%d, %d): %v", i, n, err)
		}
	}
	lass = NewServer()
	lass.EnableGlobalCache(strings.Join(shardAddrs, ","), CacheConfig{
		SweepInterval:  50 * time.Millisecond,
		ShardHeartbeat: 50 * time.Millisecond,
	})
	var err error
	lassAddr, err = lass.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(lass.Close)
	return lass, shards, shardAddrs, lassAddr
}

// shardedContexts returns one context name owned by each of the n
// shards, derived (not hardcoded) so the test cannot rot if the hash
// changes.
func shardedContexts(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	found := 0
	for i := 0; found < n && i < 10000; i++ {
		name := fmt.Sprintf("job-%d", i)
		if idx := ShardIndex(name, n); out[idx] == "" {
			out[idx] = name
			found++
		}
	}
	if found != n {
		t.Fatalf("could not find a context per shard")
	}
	return out
}

func TestShardMapBasics(t *testing.T) {
	m := ParseShardAddrs("a:1, b:2 ,c:3")
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if got := m.Addr(1); got != "b:2" {
		t.Fatalf("Addr(1) = %q (whitespace not trimmed?)", got)
	}
	// Routing is deterministic and in range.
	for _, name := range []string{"", "job-1", "job-2", "a-very-long-context-name"} {
		i := m.ShardFor(name)
		if i < 0 || i >= 3 {
			t.Fatalf("ShardFor(%q) = %d, out of range", name, i)
		}
		if j := m.ShardFor(name); j != i {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", name, i, j)
		}
		if m.AddrFor(name) != m.Addr(i) {
			t.Fatalf("AddrFor(%q) disagrees with ShardFor", name)
		}
	}
	// A single-shard map sends everything to shard 0.
	one := NewShardMap("solo:1")
	if one.ShardFor("anything") != 0 {
		t.Fatal("single-shard map must route everything to shard 0")
	}
	// Versioning carries through.
	if v := NewShardMapVersion(7, "a", "b").Version(); v != 7 {
		t.Fatalf("Version = %d, want 7", v)
	}
}

func TestParseShardSpec(t *testing.T) {
	if i, n, err := ParseShardSpec("2/4"); err != nil || i != 2 || n != 4 {
		t.Fatalf("ParseShardSpec(2/4) = %d, %d, %v", i, n, err)
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "a/b", "1/0"} {
		if _, _, err := ParseShardSpec(bad); err == nil {
			t.Errorf("ParseShardSpec(%q) accepted", bad)
		}
	}
}

// TestShardedPutGet is the tentpole's basic correctness: globals
// written through the routing LASS land on the context's owning shard
// — and only there — and read back correctly through the router.
func TestShardedPutGet(t *testing.T) {
	const n = 3
	_, _, shardAddrs, lassAddr := startShardedPool(t, n)
	ctxs := shardedContexts(t, n)
	bg := context.Background()

	for i, name := range ctxs {
		c := dialT(t, lassAddr, name)
		if err := c.PutGlobal(bg, "owner", fmt.Sprintf("shard%d", i)); err != nil {
			t.Fatalf("PutGlobal via router (ctx %q): %v", name, err)
		}
		if v, err := c.TryGetGlobal(bg, "owner"); err != nil || v != fmt.Sprintf("shard%d", i) {
			t.Fatalf("TryGetGlobal read-back = %q, %v", v, err)
		}
		// The value must live on the owning shard, visible to a direct
		// client of that shard.
		direct := dialT(t, shardAddrs[i], name)
		if v, err := direct.TryGet("owner"); err != nil || v != fmt.Sprintf("shard%d", i) {
			t.Fatalf("owning shard %d missing value: %q, %v", i, v, err)
		}
	}
}

// TestWrongShardRefused: a shard must refuse to host a context that
// hashes elsewhere — the enforcement that stops a misconfigured client
// from silently splitting one context across two daemons.
func TestWrongShardRefused(t *testing.T) {
	const n = 3
	_, _, shardAddrs, _ := startShardedPool(t, n)
	ctxs := shardedContexts(t, n)
	// Dial shard 0 with the context owned by shard 1.
	_, err := Dial(nil, shardAddrs[0], ctxs[1])
	if err == nil || !strings.Contains(err.Error(), "wrong shard") {
		t.Fatalf("HELLO for foreign context = %v, want wrong-shard refusal", err)
	}
	// Infrastructure contexts are exempt: they exist on every shard.
	c, err := Dial(nil, shardAddrs[0], InfraContextPrefix+"monitor")
	if err != nil {
		t.Fatalf("infra context refused: %v", err)
	}
	c.Close()
}

// TestShardedDeleteAndBatch covers the remaining single-context pooled
// verbs: GMPUT batches and GDEL deletes route like puts.
func TestShardedDeleteAndBatch(t *testing.T) {
	const n = 2
	_, _, _, lassAddr := startShardedPool(t, n)
	ctxs := shardedContexts(t, n)
	bg := context.Background()
	for _, name := range ctxs {
		c := dialT(t, lassAddr, name)
		if err := c.PutBatchGlobal(bg, []KV{
			{Key: "a", Value: "1"}, {Key: "b", Value: "2"}, {Key: "c", Value: "3"},
		}); err != nil {
			t.Fatalf("PutBatchGlobal(%q): %v", name, err)
		}
		if v, err := c.TryGetGlobal(bg, "b"); err != nil || v != "2" {
			t.Fatalf("TryGetGlobal(b) = %q, %v", v, err)
		}
		if err := c.DeleteGlobal(bg, "b"); err != nil {
			t.Fatalf("DeleteGlobal: %v", err)
		}
		if _, err := c.TryGetGlobal(bg, "b"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("after DeleteGlobal: %v, want ErrNotFound", err)
		}
		if snap, err := c.SnapshotGlobal(bg); err != nil || len(snap) != 2 {
			t.Fatalf("SnapshotGlobal = %v, %v, want 2 entries", snap, err)
		}
	}
}

// TestSnapshotManyScatterGather: one GSNAPM through the LASS returns
// contexts living on different shards in a single reply.
func TestSnapshotManyScatterGather(t *testing.T) {
	const n = 4
	_, _, _, lassAddr := startShardedPool(t, n)
	ctxs := shardedContexts(t, n)
	bg := context.Background()
	for i, name := range ctxs {
		c := dialT(t, lassAddr, name)
		if err := c.PutGlobal(bg, "pid", fmt.Sprintf("%d", 100+i)); err != nil {
			t.Fatalf("PutGlobal(%q): %v", name, err)
		}
	}
	c := dialT(t, lassAddr, ctxs[0])
	snaps, err := c.SnapshotGlobalMany(bg, ctxs)
	if err != nil {
		t.Fatalf("SnapshotGlobalMany: %v", err)
	}
	if len(snaps) != n {
		t.Fatalf("SnapshotGlobalMany returned %d contexts, want %d", len(snaps), n)
	}
	for i, name := range ctxs {
		if got := snaps[name]["pid"]; got != fmt.Sprintf("%d", 100+i) {
			t.Errorf("snaps[%q][pid] = %q, want %d", name, got, 100+i)
		}
	}
}

// TestGlobalContextsUnion: the context listing is the deduplicated
// union across every shard.
func TestGlobalContextsUnion(t *testing.T) {
	const n = 3
	_, _, _, lassAddr := startShardedPool(t, n)
	ctxs := shardedContexts(t, n)
	bg := context.Background()
	for _, name := range ctxs {
		c := dialT(t, lassAddr, name)
		if err := c.PutGlobal(bg, "alive", "1"); err != nil {
			t.Fatalf("PutGlobal(%q): %v", name, err)
		}
	}
	c := dialT(t, lassAddr, ctxs[0])
	names, err := c.GlobalContexts(bg)
	if err != nil {
		t.Fatalf("GlobalContexts: %v", err)
	}
	have := make(map[string]bool, len(names))
	for _, name := range names {
		have[name] = true
	}
	for _, want := range ctxs {
		if !have[want] {
			t.Errorf("GlobalContexts missing %q (got %v)", want, names)
		}
	}
}

// TestShardDownFailsFast: killing one shard degrades only its hash
// range. Its contexts fail quickly with ErrShardDown (no hanging on
// dial timeouts); the surviving shard keeps serving.
func TestShardDownFailsFast(t *testing.T) {
	const n = 2
	lass, shards, _, lassAddr := startShardedPool(t, n)
	ctxs := shardedContexts(t, n)
	bg := context.Background()

	// Prime both shards, and see their health sessions connected: a
	// shard that dies before its session ever connected is not "down",
	// it gets the benefit of the doubt (shardConn.down).
	clients := make([]*Client, n)
	for i, name := range ctxs {
		clients[i] = dialT(t, lassAddr, name)
		if err := clients[i].PutGlobal(bg, "k", "v"); err != nil {
			t.Fatalf("PutGlobal(%q): %v", name, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < n; i++ {
		for !lass.gcache.Load().conns[i].sess.Up() {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d's health session never connected", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	shards[0].Close()
	// Wait for both of the LASS's detectors, which run independently:
	// the health session (50ms heartbeat) marks the shard down, and the
	// cache context's own upstream connection, dying with the shard,
	// flushes what it had cached — until it has, a read of "k" is still
	// a cache hit, not a failure.
	deadline = time.Now().Add(5 * time.Second)
	for {
		gc := lass.gcache.Load()
		gc.mu.Lock()
		_, cached := gc.ctxs[ctxs[0]]
		gc.mu.Unlock()
		if gc.conns[0].down() && !cached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard 0 never marked down and flushed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Dead shard's range: fast ErrShardDown.
	start := time.Now()
	ctx, cancel := context.WithTimeout(bg, 3*time.Second)
	defer cancel()
	_, err := clients[0].TryGetGlobal(ctx, "k")
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("op on dead shard = %v, want ErrShardDown", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("dead-shard op took %v, want fast failure", d)
	}

	// Surviving shard's range: unaffected.
	if err := clients[1].PutGlobal(bg, "still", "alive"); err != nil {
		t.Fatalf("surviving shard put: %v", err)
	}
	if v, err := clients[1].TryGetGlobal(bg, "still"); err != nil || v != "alive" {
		t.Fatalf("surviving shard get = %q, %v", v, err)
	}

	// Per-shard telemetry reflects the split. The up gauges refresh on
	// the cache's 500ms health tick, so poll briefly.
	reg := lass.Telemetry()
	if reg.Counter("attrspace.router.shard.0.errors").Value() == 0 {
		t.Error("dead shard's error counter never moved")
	}
	gaugeDeadline := time.Now().Add(3 * time.Second)
	for reg.Gauge("attrspace.router.shard.1.up").Value() != 1 {
		if time.Now().After(gaugeDeadline) {
			t.Error("surviving shard's up gauge never reached 1")
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestShardedStatsChildren: with a sharded pool, `STATS scope=tree` on
// the LASS folds in each live shard's registry snapshot.
func TestShardedStatsChildren(t *testing.T) {
	const n = 2
	_, _, _, lassAddr := startShardedPool(t, n)
	ctxs := shardedContexts(t, n)
	bg := context.Background()
	for _, name := range ctxs {
		c := dialT(t, lassAddr, name)
		if err := c.PutGlobal(bg, "k", "v"); err != nil {
			t.Fatalf("PutGlobal(%q): %v", name, err)
		}
	}
	c := dialT(t, lassAddr, ctxs[0])
	_, snap, err := c.ServerStatsScope(bg, "tree")
	if err != nil {
		t.Fatalf("ServerStatsScope(tree): %v", err)
	}
	// The CPUT ops above executed on the shards, not on the LASS: they
	// can only appear in the rollup through the shard children.
	_, own, err := c.ServerStats(bg)
	if err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
	if own.Counters["attrspace.ops.cput"] != 0 {
		t.Fatalf("LASS itself counted CPUT ops: %d", own.Counters["attrspace.ops.cput"])
	}
	if snap.Counters["attrspace.ops.cput"] == 0 {
		t.Errorf("tree rollup has no attrspace.ops.cput — shard snapshots not folded in (rollup: %v)", snap.Counters)
	}
}
