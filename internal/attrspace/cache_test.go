package attrspace

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/attr"
)

// startCachingLASS runs a CASS and a LASS whose G* verbs forward to it
// through the global cache, and returns both servers plus addresses.
func startCachingLASS(t *testing.T) (cass, lass *Server, cassAddr, lassAddr string) {
	t.Helper()
	cass, cassAddr = startServer(t)
	lass = NewServer()
	lass.EnableGlobalCache(cassAddr, CacheConfig{})
	lassAddr, err := lass.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(lass.Close)
	return cass, lass, cassAddr, lassAddr
}

func TestGlobalForwardingBasics(t *testing.T) {
	_, _, cassAddr, lassAddr := startCachingLASS(t)
	c := dialT(t, lassAddr, "job1")
	ctx := context.Background()

	// Absent globally.
	if _, _, err := c.TryGetAt(ctx, Global, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("TryGetGlobal(ghost) = %v, want ErrNotFound", err)
	}
	// Put through the LASS, read back through the LASS.
	if _, err := c.PutAt(ctx, Global, "license", "granted"); err != nil {
		t.Fatalf("PutGlobal: %v", err)
	}
	if v, _, err := c.TryGetAt(ctx, Global, "license"); err != nil || v != "granted" {
		t.Fatalf("TryGetGlobal = %q, %v", v, err)
	}
	// The value must actually be on the CASS, visible to a direct client.
	direct := dialT(t, cassAddr, "job1")
	if v, _, err := direct.TryGetAt(context.Background(), Local, "license"); err != nil || v != "granted" {
		t.Fatalf("direct CASS TryGet = %q, %v", v, err)
	}
	// Delete through the LASS; both views agree.
	if _, err := c.DeleteAt(ctx, Global, "license"); err != nil {
		t.Fatalf("DeleteGlobal: %v", err)
	}
	if _, _, err := c.TryGetAt(ctx, Global, "license"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after DeleteGlobal: %v, want ErrNotFound", err)
	}
	if _, _, err := direct.TryGetAt(context.Background(), Local, "license"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("direct after DeleteGlobal: %v, want ErrNotFound", err)
	}
}

// TestCacheReadYourWrites is the headline coherence guarantee: after a
// global put is acked through a LASS, a read through the same LASS can
// never return the old value — the write-through applies the CASS seq
// to the cache before the OK leaves.
func TestCacheReadYourWrites(t *testing.T) {
	_, _, _, lassAddr := startCachingLASS(t)
	c := dialT(t, lassAddr, "job1")
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		want := fmt.Sprintf("v%d", i)
		if _, err := c.PutAt(ctx, Global, "counter", want); err != nil {
			t.Fatalf("PutGlobal %d: %v", i, err)
		}
		got, _, err := c.TryGetAt(ctx, Global, "counter")
		if err != nil {
			t.Fatalf("TryGetGlobal %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("stale read after acked put: got %q, want %q", got, want)
		}
	}
}

// TestCacheInvalidationFromDirectWrite checks the subscription path: a
// put straight to the CASS (not through the LASS) must reach the
// LASS's cache via its subscription — eventually consistent, and the
// observed values must never go backwards.
func TestCacheInvalidationFromDirectWrite(t *testing.T) {
	_, _, cassAddr, lassAddr := startCachingLASS(t)
	c := dialT(t, lassAddr, "job1")
	direct := dialT(t, cassAddr, "job1")
	ctx := context.Background()

	if err := direct.Put("phase", "1"); err != nil {
		t.Fatal(err)
	}
	// Prime the cache (fill).
	if v, _, err := c.TryGetAt(ctx, Global, "phase"); err != nil || v != "1" {
		t.Fatalf("prime: %q, %v", v, err)
	}
	// Write behind the cache's back; the invalidation must land.
	if err := direct.Put("phase", "2"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	last := "1"
	for {
		v, _, err := c.TryGetAt(ctx, Global, "phase")
		if err != nil {
			t.Fatalf("TryGetGlobal: %v", err)
		}
		if v < last { // "1"/"2" compare lexically here
			t.Fatalf("cache went backwards: %q after %q", v, last)
		}
		last = v
		if v == "2" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache never observed direct write; still %q", v)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheInvalidationDelete: a direct CASS delete must eventually
// turn cached reads into NOTFOUND.
func TestCacheInvalidationDelete(t *testing.T) {
	_, _, cassAddr, lassAddr := startCachingLASS(t)
	c := dialT(t, lassAddr, "job1")
	direct := dialT(t, cassAddr, "job1")
	ctx := context.Background()

	if _, err := c.PutAt(ctx, Global, "tmp", "x"); err != nil {
		t.Fatal(err)
	}
	if v, _, err := c.TryGetAt(ctx, Global, "tmp"); err != nil || v != "x" {
		t.Fatalf("prime: %q, %v", v, err)
	}
	if _, err := direct.DeleteAt(context.Background(), Local, "tmp"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, err := c.TryGetAt(ctx, Global, "tmp")
		if errors.Is(err, ErrNotFound) {
			return
		}
		if err != nil {
			t.Fatalf("TryGetGlobal: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("cache never observed direct delete")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheBlockingGlobalGet: a GGET for an attribute nobody has put
// yet must block and wake when the put arrives at the CASS.
func TestCacheBlockingGlobalGet(t *testing.T) {
	_, _, cassAddr, lassAddr := startCachingLASS(t)
	c := dialT(t, lassAddr, "job1")
	direct := dialT(t, cassAddr, "job1")

	got := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		v, _, err := c.GetAt(context.Background(), Global, "pid")
		if err != nil {
			errc <- err
			return
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("GetGlobal returned %q before put", v)
	case err := <-errc:
		t.Fatalf("GetGlobal failed early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if err := direct.Put("pid", "777"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "777" {
			t.Fatalf("GetGlobal = %q, want 777", v)
		}
	case err := <-errc:
		t.Fatalf("GetGlobal: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("GetGlobal never woke")
	}
	// And now it is cached: served without an upstream round trip.
	if v, _, err := c.TryGetAt(context.Background(), Global, "pid"); err != nil || v != "777" {
		t.Fatalf("cached read = %q, %v", v, err)
	}
}

func TestCacheBatchAndSnapshot(t *testing.T) {
	_, _, cassAddr, lassAddr := startCachingLASS(t)
	c := dialT(t, lassAddr, "job1")
	ctx := context.Background()

	pairs := []KV{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}, {Key: "c", Value: "3"}}
	if _, err := c.PutBatchAt(ctx, Global, pairs); err != nil {
		t.Fatalf("PutBatchGlobal: %v", err)
	}
	// All three readable through the cache and present upstream.
	for _, p := range pairs {
		if v, _, err := c.TryGetAt(ctx, Global, p.Key); err != nil || v != p.Value {
			t.Fatalf("TryGetGlobal(%s) = %q, %v", p.Key, v, err)
		}
	}
	direct := dialT(t, cassAddr, "job1")
	snap, err := direct.Snapshot()
	if err != nil || len(snap) != 3 {
		t.Fatalf("direct snapshot = %v, %v", snap, err)
	}
	// Global snapshot through the LASS agrees.
	gsnap, err := c.SnapshotAt(ctx, Global)
	if err != nil {
		t.Fatalf("SnapshotGlobal: %v", err)
	}
	if len(gsnap) != 3 || gsnap["a"] != "1" || gsnap["b"] != "2" || gsnap["c"] != "3" {
		t.Fatalf("SnapshotGlobal = %v", gsnap)
	}
}

// TestCacheHitAvoidsUpstream verifies the point of the cache: repeated
// global reads do not touch the CASS. Counted via the CASS's op
// telemetry.
func TestCacheHitAvoidsUpstream(t *testing.T) {
	cass, _, _, lassAddr := startCachingLASS(t)
	c := dialT(t, lassAddr, "job1")
	ctx := context.Background()

	if _, err := c.PutAt(ctx, Global, "k", "v"); err != nil {
		t.Fatal(err)
	}
	before := cass.Telemetry().Counter("attrspace.ops.tryget").Value() +
		cass.Telemetry().Counter("attrspace.ops.get").Value()
	for i := 0; i < 100; i++ {
		if v, _, err := c.TryGetAt(ctx, Global, "k"); err != nil || v != "v" {
			t.Fatalf("TryGetGlobal = %q, %v", v, err)
		}
		if v, _, err := c.GetAt(ctx, Global, "k"); err != nil || v != "v" {
			t.Fatalf("GetGlobal = %q, %v", v, err)
		}
	}
	after := cass.Telemetry().Counter("attrspace.ops.tryget").Value() +
		cass.Telemetry().Counter("attrspace.ops.get").Value()
	if after != before {
		t.Fatalf("cached reads hit the CASS: %d upstream gets", after-before)
	}
}

// mirrored lists the contexts gc holds a mirror of.
func mirrored(gc *GlobalCache) []string {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	names := make([]string, 0, len(gc.ctxs))
	for name := range gc.ctxs {
		names = append(names, name)
	}
	return names
}

// TestLastLocalLeaveReleasesMirror: once every local participant leaves
// a context, its mirror is retired at once, releasing the cache's CASS
// reference, on the default configuration. A second participant's
// leave does not retire the mirror while the first is still joined.
func TestLastLocalLeaveReleasesMirror(t *testing.T) {
	cass, lass, _, lassAddr := startCachingLASS(t)
	a := dialT(t, lassAddr, "leaveme")
	b := dialT(t, lassAddr, "leaveme")
	if _, err := a.PutAt(context.Background(), Global, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if cass.Space().Refs("leaveme") == 0 {
		t.Fatal("cache should hold an upstream reference while in use")
	}
	a.Close()
	waitFor(t, func() bool { return lass.Space().Refs("leaveme") == 1 })
	if names := mirrored(lass.gcache.Load()); len(names) != 1 {
		t.Fatalf("mirrors %v after a leave with a participant left, want leaveme's", names)
	}
	b.Close() // last local participant leaves
	start := time.Now()
	for cass.Space().Refs("leaveme") != 0 {
		if time.Since(start) > time.Second {
			t.Fatal("the last leave did not release the upstream context reference within 1 s")
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("CASS reference released %v after the last local participant left", time.Since(start))
	if names := mirrored(lass.gcache.Load()); len(names) != 0 {
		t.Errorf("mirrors %v left after the last leave", names)
	}
}

// TestDyingBlockingGetLeavesNoMirror: a blocking global GET parks at
// the CASS on the mirror's connection; its own connection to the LASS
// then dies, at varying points of the fill. The leave retires the
// mirror, and the GET's goroutine, still running, must not make a new
// one after it: no mirror and no CASS reference are left behind.
func TestDyingBlockingGetLeavesNoMirror(t *testing.T) {
	cass, lass, _, lassAddr := startCachingLASS(t)
	gc := lass.gcache.Load()
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("dying%d", i)
		c, err := Dial(nil, lassAddr, name)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() {
			_, _, err := c.GetAt(context.Background(), Global, "never")
			got <- err
		}()
		time.Sleep(time.Duration(i%5) * 200 * time.Microsecond)
		c.Close()
		if err := <-got; err == nil {
			t.Fatalf("%s: a GET of an attribute nobody puts returned", name)
		}
		waitFor(t, func() bool { return lass.Space().Refs(name) == 0 })
		start := time.Now()
		for cass.Space().Refs(name) != 0 || len(mirrored(gc)) != 0 {
			if time.Since(start) > time.Second {
				t.Fatalf("%s: mirrors %v, %d CASS references 1 s after the connection died", name, mirrored(gc), cass.Space().Refs(name))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestMirrorRetiredWhileMadeClosesIt: a mirror retired while its
// upstream dial is still in flight — the window a blocking GET's
// mirror can open just before its connection's leave — has no
// connection for the retirement to close; the set-up closes the one it
// makes, so no CASS reference is left behind.
func TestMirrorRetiredWhileMadeClosesIt(t *testing.T) {
	cass, cassAddr := startServer(t)
	gate := make(chan struct{})
	lass := NewServer()
	t.Cleanup(lass.Close)
	var mirrorDial atomic.Bool
	gc := lass.EnableGlobalCache(cassAddr, CacheConfig{Dial: func(addr string) (net.Conn, error) {
		if mirrorDial.Load() {
			<-gate
		}
		return net.Dial("tcp", addr)
	}})
	waitFor(t, func() bool { c, _ := gc.conns[0].live(); return c != nil })
	mirrorDial.Store(true)
	put := make(chan error, 1)
	go func() { _, err := gc.Put(context.Background(), "made", "k", "v"); put <- err }()
	waitFor(t, func() bool { return len(mirrored(gc)) == 1 })
	gc.left("made") // no local participant, the dial still in flight
	close(gate)
	<-put
	start := time.Now()
	for cass.Space().Refs("made") != 0 || len(mirrored(gc)) != 0 {
		if time.Since(start) > time.Second {
			t.Fatalf("mirrors %v, %d CASS references 1 s after a mirror retired while being made", mirrored(gc), cass.Space().Refs("made"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGlobalWithoutCache: G* verbs against a plain server (no upstream)
// answer with an error the client maps to ErrNoGlobal.
func TestGlobalWithoutCache(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job1")
	if _, err := c.PutAt(context.Background(), Global, "a", "b"); !errors.Is(err, ErrNoGlobal) {
		t.Fatalf("PutGlobal on plain server = %v, want ErrNoGlobal", err)
	}
	if _, _, err := c.TryGetAt(context.Background(), Global, "a"); !errors.Is(err, ErrNoGlobal) {
		t.Fatalf("TryGetGlobal on plain server = %v, want ErrNoGlobal", err)
	}
}

// TestSeqCarriedOnReplies: the versioning fields the cache depends on.
func TestSeqCarriedOnReplies(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job1")
	ctx := context.Background()
	s1, err := c.PutV(ctx, "a", "1")
	if err != nil || s1 != 1 {
		t.Fatalf("PutV = %d, %v", s1, err)
	}
	s2, err := c.PutBatchV(ctx, []KV{{Key: "b", Value: "2"}, {Key: "c", Value: "3"}})
	if err != nil || s2 != 3 {
		t.Fatalf("PutBatchV = %d, %v", s2, err)
	}
	v, seq, err := c.TryGetV(ctx, "b")
	if err != nil || v != "2" || seq != 2 {
		t.Fatalf("TryGetV = %q, %d, %v", v, seq, err)
	}
	v, seq, err = c.GetV(ctx, "c")
	if err != nil || v != "3" || seq != 3 {
		t.Fatalf("GetV = %q, %d, %v", v, seq, err)
	}
	ds, err := c.DeleteAt(ctx, Local, "a")
	if err != nil || ds != 4 {
		t.Fatalf("DeleteV = %d, %v", ds, err)
	}
	if ds, err = c.DeleteAt(ctx, Local, "a"); err != nil || ds != 0 {
		t.Fatalf("DeleteV absent = %d, %v", ds, err)
	}
}

// TestEventHandlerSeesEverything: with a synchronous handler installed,
// no event is dropped client-side even under a burst far larger than
// any buffer.
func TestEventHandlerSeesEverything(t *testing.T) {
	srv, addr := startServer(t)
	srv.SetEventBuffer(8) // small: the server drops, and declares, instead
	pub := dialT(t, addr, "job1")
	subc := dialT(t, addr, "job1")

	seen := make(chan Event, 4096)
	if _, err := subc.subscribe(func(ev Event) { seen <- ev }); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := pub.Put("hot", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// The handler must observe the final value: the server drops the
	// oldest updates, never the newest, and declares the drops in the
	// events' Lost.
	deadline := time.After(5 * time.Second)
	var last Event
	for last.Value != fmt.Sprintf("%d", n-1) {
		select {
		case ev := <-seen:
			if ev.Attr == "hot" {
				if ev.Seq <= last.Seq {
					t.Fatalf("event seq regressed: %d after %d", ev.Seq, last.Seq)
				}
				last = ev
			}
		case <-deadline:
			t.Fatalf("final value never seen; last %+v", last)
		}
	}
}

// TestDestroyTearsDownCacheCtx: destroying the context upstream (all
// participants leave) must tear down the cache context so a later use
// re-dials instead of serving stale entries.
func TestDestroyTearsDownCacheCtx(t *testing.T) {
	_, lass, cassAddr, lassAddr := startCachingLASS(t)
	c := dialT(t, lassAddr, "job1")
	ctx := context.Background()

	if _, err := c.PutAt(ctx, Global, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	// Destroy upstream: the cache's own ref is the only one, so
	// closing the last local participant retires the mirror, which
	// drops that ref, and the CASS context dies.
	c.Close()
	waitFor(t, func() bool { return len(mirrored(lass.gcache.Load())) == 0 })
	// Recreate upstream with a different value; a fresh LASS client
	// must see the new value, not a stale cached one.
	direct := dialT(t, cassAddr, "job1")
	if err := direct.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	c2 := dialT(t, lassAddr, "job1")
	if v, _, err := c2.TryGetAt(ctx, Global, "k"); err != nil || v != "v2" {
		t.Fatalf("after re-create, TryGetGlobal = %q, %v (stale cache?)", v, err)
	}
	_ = attr.ErrNotFound
}
