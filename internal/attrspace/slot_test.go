package attrspace

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/wire"
)

// The reply-slot contract (see replySlot), checked on both ways a hot
// operation reaches a Client: directly, and through the shard router's
// pooled connection — and the operations' contract,
// the same at both scopes. Request ids repeat once slots
// are reused, so what used to follow from "every id is fresh" is now a
// property of who may release: a late reply answers nobody, a failing
// connection answers every waiter exactly once, and the free list is
// bounded by concurrency.

// slotVias opens a subject on addr: the direct way in, a caller's own
// Client. (The router's is TestSlotRouterShardKilledMidCycle's.)
var slotVias = []struct {
	name string
	open func(t *testing.T, addr, contextName string) *Client
}{
	{"client", dialT},
}

// slotScopes are the two scopes a caller names.
var slotScopes = []struct {
	name  string
	scope Scope
}{{"local", Local}, {"global", Global}}

// TestSlotContractAtBothScopes runs one sequence — put, batch, tryget,
// get, delete, snapshot — through each via at each scope, on a caching
// LASS in front of one CASS: the LASS's own context at Local, the CASS's
// through the cache at Global. Every scope answers with the same values,
// and each scope's acked seqs only increase.
func TestSlotContractAtBothScopes(t *testing.T) {
	for _, via := range slotVias {
		for _, sc := range slotScopes {
			via, scope := via, sc.scope
			t.Run(via.name+"/"+sc.name, func(t *testing.T) {
				_, _, _, lassAddr := startCachingLASS(t)
				api := via.open(t, lassAddr, "contract")
				ctx := context.Background()
				var last uint64
				acked := func(op string, seq uint64, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					if seq <= last {
						t.Fatalf("%s acked seq %d after %d", op, seq, last)
					}
					last = seq
				}
				read := func(op, attribute, want string, get func(context.Context, Scope, string) (string, uint64, error)) {
					t.Helper()
					v, seq, err := get(ctx, scope, attribute)
					if err != nil || v != want || seq == 0 || seq > last {
						t.Fatalf("%s %s = %q at seq %d, %v; want %q at a seq in (0, %d]", op, attribute, v, seq, err, want, last)
					}
				}

				seq, err := api.PutAt(ctx, scope, "pid", "4242")
				acked("put", seq, err)
				seq, err = api.PutBatchAt(ctx, scope, []KV{{Key: "exe", Value: "a.out"}, {Key: "args", Value: "-p1500"}, {Key: "pid", Value: "4243"}})
				acked("batch", seq, err)
				read("tryget", "pid", "4243", api.TryGetAt)
				read("get", "exe", "a.out", api.GetAt)
				seq, err = api.DeleteAt(ctx, scope, "args")
				acked("delete", seq, err)
				if _, _, err := api.TryGetAt(ctx, scope, "args"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("tryget of the deleted attribute: %v, want ErrNotFound", err)
				}
				snap, err := api.SnapshotAt(ctx, scope)
				if want := map[string]string{"pid": "4243", "exe": "a.out"}; err != nil || !sameMap(snap, want) {
					t.Fatalf("snapshot = %v, %v; want %v", snap, err, want)
				}
			})
		}
	}
}

// slotCounts is a client's slot bookkeeping at one instant.
type slotCounts struct {
	pending, free int
	freeIDs       map[string]bool
	replies       uint64 // messages the read loop has taken as replies
	issued        uint64 // ids ever made: every other request reused one
}

func slotState(c *Client) slotCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := slotCounts{pending: len(c.pending), free: len(c.free), freeIDs: make(map[string]bool, len(c.free)), replies: c.replies, issued: c.nextID}
	for _, s := range c.free {
		st.freeIDs[s.id] = true
	}
	return st
}

// TestSlotAbandonedNeverReused: a blocking get its caller gave up on is
// still answered, under its id, whenever the attribute appears. That id
// must therefore never be issued again, and the late answer must reach
// nobody.
func TestSlotAbandonedNeverReused(t *testing.T) {
	for _, via := range slotVias {
		via := via
		t.Run(via.name, func(t *testing.T) {
			_, addr := startServer(t)
			c := via.open(t, addr, "job")
			bg := context.Background()
			// One completed op first, so the get below takes a slot (and an
			// id) that has been used before: the case reuse made possible.
			if _, err := c.PutAt(bg, Local, "warm", "x"); err != nil {
				t.Fatalf("Put: %v", err)
			}
			ctx, cancel := context.WithCancel(bg)
			gave := make(chan error, 1)
			go func() { _, _, err := c.GetAt(ctx, Local, "late"); gave <- err }()
			var abandoned string
			waitFor(t, func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				for id := range c.pending {
					abandoned = id
				}
				return len(c.pending) == 1
			})
			cancel()
			if err := <-gave; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Get = %v, want context.Canceled", err)
			}

			check := func(i int) {
				t.Helper()
				st := slotState(c)
				if st.freeIDs[abandoned] {
					t.Fatalf("after op %d: abandoned id %s is on the free list", i, abandoned)
				}
				if st.pending != 0 {
					t.Fatalf("after op %d: %d requests still pending", i, st.pending)
				}
			}
			for i := 0; i < 1000; i++ {
				k, v := fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i)
				if _, err := c.PutAt(bg, Local, k, v); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
				if got, _, err := c.TryGetAt(context.Background(), Local, k); err != nil || got != v {
					t.Fatalf("TryGet %d = %q, %v; want %q", i, got, err, v)
				}
				if i%10 == 0 {
					if _, err := c.PutBatchAt(context.Background(), Local, []KV{{Key: "b0", Value: v}, {Key: "b1", Value: v}}); err != nil {
						t.Fatalf("PutBatch %d: %v", i, err)
					}
					if _, err := c.DeleteAt(context.Background(), Local, "b0"); err != nil {
						t.Fatalf("Delete %d: %v", i, err)
					}
				}
				check(i)
			}

			// The put that answers the abandoned GET: its own OK and the
			// orphan VALUE both reach the read loop; neither may surface in a
			// later call.
			before := slotState(c).replies
			if _, err := c.PutAt(bg, Local, "late", "answer-to-nobody"); err != nil {
				t.Fatalf("Put late: %v", err)
			}
			waitFor(t, func() bool { return slotState(c).replies >= before+2 })
			for i := 0; i < 100; i++ {
				if got, _, err := c.TryGetAt(context.Background(), Local, "warm"); err != nil || got != "x" {
					t.Fatalf("TryGet after the late reply = %q, %v; want \"x\"", got, err)
				}
				check(1000 + i)
			}
			c.mu.Lock()
			if len(c.chunks) != 0 {
				t.Errorf("%d chunk buffers left behind", len(c.chunks))
			}
			c.mu.Unlock()
		})
	}
}

// typedLoss reports whether err is one of the errors a caller may see
// when its connection goes away under it.
func typedLoss(err error) bool {
	return errors.Is(err, ErrConnLost) || errors.Is(err, ErrServerDraining) || errors.Is(err, ErrClientClosed)
}

// TestSlotFailAnswersEachCallerOnce: a connection failing under 64
// concurrent callers — half blocked in a get, half in a loop of hot
// operations, so that releases race the failure — answers every one of
// them, with a typed error, and leaves no slot behind.
func TestSlotFailAnswersEachCallerOnce(t *testing.T) {
	const callers = 64
	kills := []struct {
		name string
		kill func(srv *Server, c *Client)
		want func(error) bool
	}{
		{"cut", func(_ *Server, c *Client) { c.raw.Close() },
			func(err error) bool { return errors.Is(err, ErrConnLost) }},
		{"drain", func(srv *Server, _ *Client) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			srv.Shutdown(ctx)
		}, func(err error) bool { return errors.Is(err, ErrConnLost) || errors.Is(err, ErrServerDraining) }},
		{"close", func(_ *Server, c *Client) { c.Close() }, typedLoss},
	}
	for _, k := range kills {
		k := k
		t.Run(k.name, func(t *testing.T) {
			srv, addr := startServer(t)
			c := dialT(t, addr, "job")
			errs := make(chan error, callers)
			var started sync.WaitGroup
			for i := 0; i < callers; i++ {
				i := i
				started.Add(1)
				go func() {
					if i%2 == 0 {
						started.Done()
						_, _, err := c.GetAt(context.Background(), Local, fmt.Sprintf("never%d", i))
						errs <- err
						return
					}
					key := fmt.Sprintf("hot%d", i)
					for n := 0; ; n++ {
						v := fmt.Sprintf("v%d", n)
						err := c.Put(key, v)
						if err == nil {
							var got string
							if got, _, err = c.TryGetAt(context.Background(), Local, key); err == nil && got != v {
								err = fmt.Errorf("caller %d read %q, want %q: a reply went to the wrong request", i, got, v)
							}
						}
						if n == 0 {
							started.Done()
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			started.Wait()
			waitFor(t, func() bool { return slotState(c).pending >= callers/2 })
			k.kill(srv, c)
			for i := 0; i < callers; i++ {
				select {
				case err := <-errs:
					if !k.want(err) {
						t.Errorf("a caller was answered %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("only %d of %d callers were answered", i, callers)
				}
			}
			if st := slotState(c); st.pending != 0 || st.free != 0 {
				t.Errorf("failed client keeps %d pending and %d free slots", st.pending, st.free)
			}
			if err := c.Put("after", "x"); !typedLoss(err) {
				t.Errorf("Put on the failed client = %v", err)
			}
		})
	}
}

// TestSlotChunkedSnapshotAmongHotOps: interior chunks of a multi-part
// reply are kept, not decoded over, while hot operations on the same
// connection trade messages with the read loop.
func TestSlotChunkedSnapshotAmongHotOps(t *testing.T) {
	for _, via := range slotVias {
		via := via
		t.Run(via.name, func(t *testing.T) {
			_, addr := startServer(t)
			api := via.open(t, addr, "job")
			const n = SnapChunkEntries*3 + 17 // four parts
			pairs := make([]KV, n)
			for i := range pairs {
				pairs[i] = KV{Key: fmt.Sprintf("base%04d", i), Value: fmt.Sprintf("val%d", i)}
			}
			if _, err := api.PutBatchAt(context.Background(), Local, pairs); err != nil {
				t.Fatalf("PutBatch: %v", err)
			}
			var stop atomic.Bool
			hot := make(chan error, 1)
			go func() {
				for i := 0; !stop.Load(); i++ {
					v := fmt.Sprintf("h%d", i)
					if _, err := api.PutAt(context.Background(), Local, "hot", v); err != nil {
						hot <- err
						return
					}
					if got, _, err := api.TryGetAt(context.Background(), Local, "hot"); err != nil || got != v {
						hot <- fmt.Errorf("TryGet hot = %q, %v; want %q", got, err, v)
						return
					}
				}
				hot <- nil
			}()
			for round := 0; round < 20; round++ {
				snap, err := api.SnapshotAt(context.Background(), Local)
				if err != nil {
					t.Fatalf("SnapshotAt %d: %v", round, err)
				}
				for _, p := range pairs {
					if snap[p.Key] != p.Value {
						t.Fatalf("snapshot %d: %s = %q, want %q (%d entries)", round, p.Key, snap[p.Key], p.Value, len(snap))
					}
				}
			}
			stop.Store(true)
			if err := <-hot; err != nil {
				t.Fatalf("hot ops beside the snapshots: %v", err)
			}
		})
	}
}

// TestSlotFreeListBoundedByConcurrency: 256 gets outstanding at once
// need 256 slots; answering and releasing them leaves at most that many
// on the free list, and the traffic that follows creates no more.
func TestSlotFreeListBoundedByConcurrency(t *testing.T) {
	const outstanding = 256
	for _, via := range slotVias {
		via := via
		t.Run(via.name, func(t *testing.T) {
			_, addr := startServer(t)
			c := via.open(t, addr, "job")
			writer := dialT(t, addr, "job")
			results := make([]<-chan Result, outstanding)
			pairs := make([]KV, outstanding)
			for i := range results {
				pairs[i] = KV{Key: fmt.Sprintf("async%d", i), Value: fmt.Sprintf("v%d", i)}
				ch, err := c.GetAsync(pairs[i].Key)
				if err != nil {
					t.Fatalf("GetAsync %d: %v", i, err)
				}
				results[i] = ch
			}
			waitFor(t, func() bool { return slotState(c).pending == outstanding })
			if err := writer.PutBatch(pairs); err != nil {
				t.Fatalf("PutBatch: %v", err)
			}
			for i, ch := range results {
				if r := <-ch; r.Err != nil || r.Attr != pairs[i].Key || r.Value != pairs[i].Value {
					t.Fatalf("async get %d = %+v, want %s=%s", i, r, pairs[i].Key, pairs[i].Value)
				}
			}
			answered := slotState(c)
			if answered.pending != 0 || answered.free > outstanding {
				t.Fatalf("after %d concurrent gets: %d pending, %d free", outstanding, answered.pending, answered.free)
			}
			for i := 0; i < 500; i++ {
				if _, err := c.PutAt(context.Background(), Local, "k", "v"); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			if now := slotState(c); now.free > outstanding || now.issued != answered.issued {
				t.Errorf("500 sequential puts later: %d free slots (was %d), %d ids ever issued (was %d)", now.free, answered.free, now.issued, answered.issued)
			}
		})
	}
}

// TestSlotRouterShardKilledMidCycle puts the same properties through
// the shard router (TestChaosShardKill's pool): concurrent callers per
// shard whose ops share drain cycles, some of them leaving through a
// cancelled context, chunked snapshots on the same pooled connections,
// and one shard dying in the middle. Callers on the surviving shards
// never fail and never read another op's reply; the victim's callers get
// typed errors; the pooled connections keep no more slots, and the
// shardConns no more ops, than there were callers.
func TestSlotRouterShardKilledMidCycle(t *testing.T) {
	const n, victim, perShard = 3, 1, 8
	shards := make([]*Server, n)
	addrs := make([]string, n)
	for i := range shards {
		shards[i], addrs[i] = startServer(t)
		if err := shards[i].SetShard(i, n); err != nil {
			t.Fatalf("SetShard: %v", err)
		}
	}
	lass := NewServer()
	// No heartbeat: a closed shard shows as a read error at once, and a
	// 50 ms PONG deadline beside 24 callers under the race detector would
	// fail the surviving connections for reasons of the test's own making.
	// Three ops a cycle for eight callers: the queue is split every cycle.
	gc := lass.EnableGlobalCache(strings.Join(addrs, ","), CacheConfig{ShardHeartbeat: -1, ShardBatch: 3})
	t.Cleanup(lass.Close)
	ctxs := shardedContexts(t, n)
	bg := context.Background()
	const base = SnapChunkEntries + 40 // a two-part CSNAP
	basePairs := make([]attr.KV, base)
	for i := range basePairs {
		basePairs[i] = attr.KV{Key: fmt.Sprintf("base%03d", i), Value: fmt.Sprintf("val%d", i)}
	}
	for _, name := range ctxs {
		// Through the cache first: its per-context upstream connection is
		// what holds the context open for the ctx-scope ops below.
		if _, err := gc.PutBatch(bg, name, basePairs); err != nil {
			t.Fatalf("prime %s: %v", name, err)
		}
	}
	pools := make([]*Client, n)
	for i := range pools {
		pools[i], _ = gc.conns[i].live()
	}

	var stop, killed atomic.Bool
	var wg sync.WaitGroup
	var abandoned atomic.Int64
	fails, rounds := make([]atomic.Int64, n), make([]atomic.Int64, n)
	report := func(shard int, format string, args ...any) {
		if shard != victim || !killed.Load() {
			t.Errorf("shard %d: "+format, append([]any{shard}, args...)...)
		}
	}
	for shard := 0; shard < n; shard++ {
		for w := 0; w < perShard; w++ {
			shard, w := shard, w
			wg.Add(1)
			go func() {
				defer wg.Done()
				sh, name, key := gc.conns[shard], ctxs[shard], fmt.Sprintf("w%d", w)
				for round := 0; !stop.Load(); round++ {
					ctx, cancel := context.WithTimeout(bg, 3*time.Second)
					v := fmt.Sprintf("v%d", round)
					_, err := sh.put(ctx, name, "", key, v)
					var got string
					if err == nil {
						got, _, err = sh.tryGet(ctx, name, key)
					}
					if err == nil && round%4 == 0 {
						_, err = sh.putBatch(ctx, name, "", []KV{{Key: key + ".a", Value: v}, {Key: key + ".b", Value: v}})
					}
					if err == nil && round%4 == 1 {
						_, err = sh.delete(ctx, name, "", key+".a")
					}
					if err == nil && round%8 == 2 {
						// Leave (perhaps) before the cycle completes: whichever
						// of the reply and the cancellation wins, a value that
						// does come back is this key's.
						gone, cancelGone := context.WithCancel(ctx)
						cancelGone()
						late, _, lateErr := sh.tryGet(gone, name, key)
						switch {
						case errors.Is(lateErr, context.Canceled):
							abandoned.Add(1)
						case lateErr == nil && late != v:
							report(shard, "abandonable tryget of %s read %q, want %q", key, late, v)
						}
					}
					if err == nil && w == 0 && round%8 == 5 {
						var snap map[string]string
						if snap, err = sh.snapshot(ctx, name); err == nil {
							for _, p := range basePairs {
								if snap[p.Key] != p.Value {
									report(shard, "chunked snapshot: %s = %q, want %q (%d entries)", p.Key, snap[p.Key], p.Value, len(snap))
									break
								}
							}
						}
					}
					cancel()
					rounds[shard].Add(1)
					switch {
					case err == nil && got != v:
						report(shard, "%s read %q, want %q: a reply went to the wrong op", key, got, v)
					case err != nil:
						fails[shard].Add(1)
						time.Sleep(time.Millisecond) // a down shard fails fast; do not spin on it
						if !typedLoss(err) && !errors.Is(err, ErrShardDown) {
							t.Errorf("shard %d: untyped error %v", shard, err)
						}
					}
				}
			}()
		}
	}
	// 50 rounds per caller on every shard, the kill, then as many again
	// on the survivors with the victim's callers failing beside them.
	progressed := func(from [n]int64) func() bool {
		return func() bool {
			for i := range rounds {
				if i != victim && rounds[i].Load() < from[i]+50*perShard {
					return false
				}
			}
			return true
		}
	}
	waitFor(t, func() bool { return progressed([n]int64{})() && rounds[victim].Load() >= 50*perShard })
	killed.Store(true)
	shards[victim].Close()
	waitFor(t, progressed([n]int64{rounds[0].Load(), rounds[1].Load(), rounds[2].Load()}))
	waitFor(t, func() bool { return fails[victim].Load() > 0 })
	stop.Store(true)
	wg.Wait()
	t.Logf("failed ops per shard: %d %d %d; %d ops left through a cancelled context",
		fails[0].Load(), fails[1].Load(), fails[2].Load(), abandoned.Load())

	for i, sh := range gc.conns {
		if i == victim {
			if fails[i].Load() == 0 {
				t.Errorf("victim shard: no op failed after the kill")
			}
			if st := slotState(pools[i]); st.pending != 0 || st.free != 0 {
				t.Errorf("victim's dead pooled connection keeps %d pending and %d free slots", st.pending, st.free)
			}
			continue
		}
		if f := fails[i].Load(); f != 0 {
			t.Errorf("surviving shard %d: %d ops failed", i, f)
		}
		if now, _ := sh.live(); now != pools[i] {
			t.Errorf("surviving shard %d changed its pooled connection", i)
		}
		// The drainer completes what cancelled callers walked away from.
		waitFor(t, func() bool { return slotState(pools[i]).pending == 0 })
		if free := slotState(pools[i]).free; free > perShard {
			t.Errorf("shard %d: pooled connection keeps %d free slots for %d callers", i, free, perShard)
		}
		sh.mu.Lock()
		if len(sh.freeOps) > perShard || len(sh.queue) != 0 {
			t.Errorf("shard %d: %d free ops for %d callers, %d still queued", i, len(sh.freeOps), perShard, len(sh.queue))
		}
		sh.mu.Unlock()
	}
}

// TestSlotKeptRepliesSurviveLaterFrames: the read loop decodes every
// frame in place, in a buffer the next frame overwrites, and copies out
// only what leaves it. On one connection that carries pipelined acks,
// VALUEs, chunked SNAPVs and the EVENTs of its own writes, every string
// a caller or the event handler kept must still read what the server
// sent once many later frames have landed: a value and an event against
// the value the put of that seq wrote, a snapshot against the batch.
func TestSlotKeptRepliesSurviveLaterFrames(t *testing.T) {
	srv, addr := startServer(t)
	srv.SetEventBuffer(1 << 12) // every write's event arrives: none is lost
	c := dialT(t, addr, "job")
	var mu sync.Mutex
	var events []Event
	if _, err := c.subscribe(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	bg := context.Background()
	pairs := make([]KV, SnapChunkEntries*2+5) // three parts
	want := make(map[string]string, len(pairs))
	for i := range pairs {
		pairs[i] = KV{Key: fmt.Sprintf("base%04d", i), Value: fmt.Sprintf("val%d", i)}
		want[pairs[i].Key] = pairs[i].Value
	}
	if _, err := c.PutBatchAt(bg, Local, pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}

	type read struct {
		v   string
		seq uint64
	}
	var (
		wrote = make(map[uint64]string) // the hot puts' values by acked seq
		reads []read
		snaps []map[string]string
	)
	hot := make(chan error, 1)
	go func() {
		for i := 0; i < 300; i++ {
			v := fmt.Sprintf("hot-%d-%s", i, strings.Repeat("x", i%40))
			seq, err := c.PutAt(bg, Local, "hot", v)
			if err != nil {
				hot <- err
				return
			}
			got, gotSeq, err := c.TryGetAt(bg, Local, "hot")
			if err != nil {
				hot <- err
				return
			}
			mu.Lock()
			wrote[seq] = v
			reads = append(reads, read{got, gotSeq})
			mu.Unlock()
		}
		hot <- nil
	}()
	for done := false; !done; {
		snap, err := c.SnapshotAt(bg, Local)
		if err != nil {
			t.Fatalf("SnapshotAt: %v", err)
		}
		snaps = append(snaps, snap)
		select {
		case err := <-hot:
			if err != nil {
				t.Fatalf("hot ops: %v", err)
			}
			done = true
		default:
		}
	}
	// One more frame of each kind after the last kept one.
	if _, err := c.PutAt(bg, Local, "after", "1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) > 0 && events[len(events)-1].Attr == "after"
	})

	mu.Lock()
	defer mu.Unlock()
	for _, r := range reads {
		// The TryGet that follows a put reads that put or a later one.
		if w, ok := wrote[r.seq]; !ok || r.v != w {
			t.Fatalf("kept VALUE %q at seq %d; the put of that seq wrote %q", r.v, r.seq, w)
		}
	}
	for i, snap := range snaps {
		for k, v := range want {
			if snap[k] != v {
				t.Fatalf("kept snapshot %d: %s = %q, want %q", i, k, snap[k], v)
			}
		}
	}
	nHot := 0
	for _, ev := range events {
		switch {
		case ev.Attr == "hot":
			nHot++
			if w := wrote[ev.Seq]; ev.Op != "put" || ev.Value != w {
				t.Fatalf("kept EVENT %s %s=%q at seq %d; the put of that seq wrote %q", ev.Op, ev.Attr, ev.Value, ev.Seq, w)
			}
		case want[ev.Attr] != "" && ev.Value != want[ev.Attr]:
			t.Fatalf("kept EVENT %s=%q, the batch wrote %q", ev.Attr, ev.Value, want[ev.Attr])
		}
	}
	if nHot != len(wrote) {
		t.Errorf("%d hot events for %d hot puts", nHot, len(wrote))
	}
}

// TestSlotOKKeptForItsCaller: the read loop decodes an OK in place, and
// an OK that is not a mutation's ack is kept for the caller it answers.
// The OK of a SUB is followed at once by an EVENT, which the loop reads
// into the same buffer; the origin the caller reads after that event
// has been handled must still be the OK's own.
func TestSlotOKKeptForItsCaller(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	defer srvEnd.Close()
	c := newClient(cliEnd)
	defer c.Close()
	seen := make(chan Event, 1)
	c.mu.Lock()
	c.handler = func(ev Event) { seen <- ev } // the SUB below is sent by hand
	c.mu.Unlock()
	go func() {
		wc := wire.NewConn(srvEnd)
		// An OK nobody waits for grows the loop's read buffer first, so
		// that the SUB's OK and the EVENT after it land in the same one.
		wc.Send(wire.NewMessage("OK").Set("id", "0").Set("pad", strings.Repeat("p", 1000)))
		req, err := wc.Recv()
		if err != nil {
			return
		}
		wc.Send(wire.NewMessage("OK").Set("id", req.Get("id")).Set("origin", "abc123"))
		wc.Send(wire.NewMessage("EVENT").Set("attr", strings.Repeat("x", 40)).Set("value", strings.Repeat("y", 40)).Set("op", "put").SetUint("seq", 1))
		for wc.RecvInto(req) == nil { // EXIT, then the close
		}
	}()
	reply, err := c.call(context.Background(), opFor(opSub, Local), nil)
	if err != nil {
		t.Fatalf("SUB: %v", err)
	}
	if ev := <-seen; ev.Attr != strings.Repeat("x", 40) {
		t.Fatalf("event %+v", ev)
	}
	if reply.Verb != "OK" || reply.Get("origin") != "abc123" {
		t.Errorf("the SUB's OK reads %v after the next frame, want origin=abc123", reply)
	}
}
