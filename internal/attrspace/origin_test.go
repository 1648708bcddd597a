package attrspace

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/netsim"
)

// The tests of a global write's path as it stands since the shard
// stopped echoing a cache's own writes back to it: what the origin — the
// id the shard gave the mirror's subscription —
// suppresses and what it must not, the rule that replaces the echo as
// the repair of a write of unknown outcome, and the router's ops on
// its pooled connection.

// heldConn is the pooled connection of a tappedPool as the LASS sees it.
// It counts the writes — an op's request is one — and while held keeps
// what the shard answers from reaching the LASS: the bytes wait until
// release, and are dropped if the connection is closed first, which is a
// reply lost in flight. While its writes are held a write waits, after
// it was counted, until releaseWrites — closing the connection does not
// end the wait.
type heldConn struct {
	net.Conn
	writes atomic.Int64

	mu     sync.Mutex
	gate   chan struct{} // non-nil while held
	wgate  chan struct{} // non-nil while writes are held
	closed bool
}

func (h *heldConn) holdWrites() {
	h.mu.Lock()
	h.wgate = make(chan struct{})
	h.mu.Unlock()
}

func (h *heldConn) releaseWrites() {
	h.mu.Lock()
	if h.wgate != nil {
		close(h.wgate)
		h.wgate = nil
	}
	h.mu.Unlock()
}

func (h *heldConn) hold() {
	h.mu.Lock()
	h.gate = make(chan struct{})
	h.mu.Unlock()
}

func (h *heldConn) release() {
	h.mu.Lock()
	if h.gate != nil {
		close(h.gate)
		h.gate = nil
	}
	h.mu.Unlock()
}

func (h *heldConn) Read(p []byte) (int, error) {
	n, err := h.Conn.Read(p)
	h.mu.Lock()
	gate := h.gate
	h.mu.Unlock()
	if gate != nil {
		<-gate
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, net.ErrClosed
	}
	return n, err
}

func (h *heldConn) Write(p []byte) (int, error) {
	h.writes.Add(1)
	h.mu.Lock()
	gate := h.wgate
	h.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return h.Conn.Write(p)
}

func (h *heldConn) Close() error {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.release()
	return h.Conn.Close()
}

// tappedPool is one CASS and a caching LASS over it whose router dials
// its pooled connection — the first dial the cache makes, awaited here —
// through a heldConn under a netsim fault injector; the per-context
// upstream connections, and a pooled connection's successors, are plain
// TCP. No heartbeat and no sweep: nothing writes but the test.
type tappedPool struct {
	cass     *Server
	cassAddr string
	lass     *Server
	gc       *GlobalCache
	sh       *shardConn
	pooled   *heldConn
	chaos    *netsim.Chaos // CutAll cuts the pooled connection and nothing else
}

func startTappedPool(t *testing.T) *tappedPool {
	t.Helper()
	p := &tappedPool{chaos: netsim.NewChaos(netsim.ChaosConfig{Seed: 1})}
	p.cass, p.cassAddr = startServer(t)
	held := make(chan *heldConn, 1)
	tapped := p.chaos.Dial(func(addr string) (net.Conn, error) {
		raw, err := TCPDial(addr)
		if err != nil {
			return nil, err
		}
		h := &heldConn{Conn: raw}
		held <- h
		return h, nil
	})
	var dials atomic.Int64
	p.lass = NewServer()
	p.gc = p.lass.EnableGlobalCache(p.cassAddr, CacheConfig{
		ShardHeartbeat: -1,
		Dial: func(addr string) (net.Conn, error) {
			if dials.Add(1) == 1 {
				return tapped(addr)
			}
			return TCPDial(addr)
		},
	})
	t.Cleanup(p.lass.Close)
	p.sh = p.gc.conns[0]
	p.pooled = <-held
	waitFor(t, func() bool { c, _ := p.sh.live(); return c != nil })
	return p
}

// keep joins name at the CASS for the rest of the test, as the tools of
// a real context do: a context's mirrors come and go without the
// context being destroyed under them.
func (p *tappedPool) keep(t *testing.T, name string) {
	t.Helper()
	dialT(t, p.cassAddr, name)
}

// mirrorOf returns the cache's current mirror of name, nil if none.
func (p *tappedPool) mirrorOf(name string) *cacheCtx {
	p.gc.mu.Lock()
	defer p.gc.mu.Unlock()
	return p.gc.ctxs[name]
}

// subscribed reports whether the CASS holds a subscription whose id, as
// SUB's OK spells it, is origin.
func (p *tappedPool) subscribed(origin string) bool {
	p.cass.mu.Lock()
	defer p.cass.mu.Unlock()
	for c := range p.cass.conns {
		c.mu.Lock()
		sub := c.sub
		c.mu.Unlock()
		if sub != nil && strconv.FormatUint(sub.ID, 36) == origin {
			return true
		}
	}
	return false
}

// atShard reads name/attribute straight from the CASS's space.
func (p *tappedPool) atShard(name, attribute string) string {
	ref := new(attr.Ref)
	if !p.cass.space.JoinExisting(name, ref) {
		return ""
	}
	defer ref.Leave()
	v, _ := ref.TryGet(attribute)
	return v
}

func counter(s *Server, name string) int64 { return s.Telemetry().Counter(name).Value() }

// TestOwnWriteIsNotEchoed: a write through the caching LASS is applied
// to its mirror from the ack and never comes back as an EVENT on the
// cache's own subscription; every other subscriber — a tool at the CASS,
// another LASS's cache — gets it as before.
func TestOwnWriteIsNotEchoed(t *testing.T) {
	cass, lass, cassAddr, lassAddr := startCachingLASS(t)
	c := dialT(t, lassAddr, "job1")
	bg := context.Background()
	const writes = 50
	for i := 0; i < writes; i++ {
		if _, err := c.PutAt(bg, Global, "status", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("PutGlobal: %v", err)
		}
	}
	if _, err := c.PutBatchAt(bg, Global, []KV{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}}); err != nil {
		t.Fatalf("PutBatchGlobal: %v", err)
	}
	if _, err := c.DeleteAt(bg, Global, "a"); err != nil {
		t.Fatalf("DeleteGlobal: %v", err)
	}
	// The cache's subscription is the only one so far, so any EVENT the
	// CASS pushed went to it.
	if n := counter(cass, "attrspace.events.pushed"); n != 0 {
		t.Errorf("the CASS pushed %d events to the cache that made the writes, want 0", n)
	}
	// (Counted when the request's handler is done, which may be after its
	// reply has left.)
	waitFor(t, func() bool { return counter(cass, "attrspace.events.suppressed") >= writes+3 })
	if n := counter(cass, "attrspace.events.suppressed"); n != writes+3 {
		t.Errorf("attrspace.events.suppressed = %d, want %d: one per update of the cache's own", n, writes+3)
	}
	// Read back through the cache: hits, from the acks alone.
	fills := counter(lass, "attrspace.cache.fills")
	if v, _, err := c.TryGetAt(bg, Global, "status"); err != nil || v != fmt.Sprintf("v%d", writes-1) {
		t.Errorf("TryGetGlobal(status) = %q, %v", v, err)
	}
	if v, _, err := c.TryGetAt(bg, Global, "b"); err != nil || v != "2" {
		t.Errorf("TryGetGlobal(b) = %q, %v", v, err)
	}
	if _, _, err := c.TryGetAt(bg, Global, "a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("TryGetGlobal(a) after DeleteGlobal = %v, want ErrNotFound", err)
	}
	if n := counter(lass, "attrspace.cache.fills") - fills; n != 0 {
		t.Errorf("reading its own writes back cost the cache %d upstream fills, want 0", n)
	}

	// A subscriber without an origin and a second LASS still hear of
	// every write the first LASS makes.
	direct := dialT(t, cassAddr, "job1")
	var seen atomic.Value
	if _, err := direct.subscribe(func(ev Event) {
		if ev.Attr == "status" {
			seen.Store(ev.Value)
		}
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	lass2 := NewServer()
	lass2.EnableGlobalCache(cassAddr, CacheConfig{})
	lass2Addr, err := lass2.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(lass2.Close)
	c2 := dialT(t, lass2Addr, "job1")
	if v, _, err := c2.TryGetAt(bg, Global, "status"); err != nil || v != fmt.Sprintf("v%d", writes-1) {
		t.Fatalf("second LASS, priming read = %q, %v", v, err)
	}
	if _, err := c.PutAt(bg, Global, "status", "final"); err != nil {
		t.Fatalf("PutGlobal: %v", err)
	}
	waitFor(t, func() bool { return seen.Load() == "final" })
	waitFor(t, func() bool {
		v, _, err := c2.TryGetAt(bg, Global, "status")
		return err == nil && v == "final"
	})
	// And the second LASS's writes reach the first one's mirror.
	if _, err := c2.PutAt(bg, Global, "status", "from-lass2"); err != nil {
		t.Fatalf("PutGlobal through the second LASS: %v", err)
	}
	waitFor(t, func() bool {
		v, _, err := c.TryGetAt(bg, Global, "status")
		return err == nil && v == "from-lass2"
	})
}

// TestUnknownOutcomeRetiresIncarnation: the echo used to be what
// repaired a mirror after a write the cache never saw acknowledged. With
// the echo gone, such a write retires the mirror, and the next read
// returns what the shard holds — here the new value, because the write
// had been applied — never the entry cached before it.
func TestUnknownOutcomeRetiresIncarnation(t *testing.T) {
	bg := context.Background()
	for _, c := range []struct {
		name string
		// lose makes the write's outcome unknown once the shard has applied
		// it; cancel ends the writer's context.
		lose    func(p *tappedPool, cancel context.CancelFunc)
		wantErr func(error) bool
	}{
		{"pooled connection cut before the reply",
			func(p *tappedPool, _ context.CancelFunc) { p.chaos.CutAll() },
			IsRetryable},
		{"caller's context ended mid-cycle",
			func(p *tappedPool, cancel context.CancelFunc) { cancel() },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p := startTappedPool(t)
			p.keep(t, "job1")
			if _, err := p.gc.Put(bg, "job1", "k", "old"); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if v, _, err := p.gc.TryGet(bg, "job1", "k"); err != nil || v != "old" {
				t.Fatalf("TryGet = %q, %v", v, err)
			}
			first := p.mirrorOf("job1")

			p.pooled.hold()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := p.gc.Put(ctx, "job1", "k", "new")
				done <- err
			}()
			waitFor(t, func() bool { return p.atShard("job1", "k") == "new" })
			c.lose(p, cancel)
			if err := <-done; !c.wantErr(err) {
				t.Fatalf("Put whose reply never came = %v", err)
			}
			p.pooled.release()

			// The first answer the cache gives — once the cut connection's
			// successor is up, until when reads fail typed — is the shard's.
			var v string
			waitFor(t, func() bool {
				got, _, err := p.gc.TryGet(bg, "job1", "k")
				if err != nil && !IsRetryable(err) && !errors.Is(err, ErrShardDown) {
					t.Errorf("TryGet while the pooled connection is coming back: untyped %v", err)
				}
				v = got
				return err == nil
			})
			if v != "new" {
				t.Errorf("TryGet after a write of unknown outcome = %q; the shard holds %q", v, p.atShard("job1", "k"))
			}
			second := p.mirrorOf("job1")
			if second == nil || second == first || second.origin == first.origin {
				t.Errorf("the mirror was not retired: %p (origin %q) → %p", first, first.origin, second)
			}
			if names := mirrored(p.gc); len(names) != 1 || names[0] != "job1" {
				t.Errorf("mirrors %v, want the one new mirror of job1", names)
			}
		})
	}
}

// TestRetiredIncarnationsLateWriteIsEchoed: a mirror's write can
// outlive it — sent, then applied by the shard after the mirror was
// retired and its successor has filled the attribute. The successor's
// subscription has a new id, so to it that write is a foreign one and
// arrives as an EVENT; the same write under the successor's own origin
// would not.
func TestRetiredIncarnationsLateWriteIsEchoed(t *testing.T) {
	p := startTappedPool(t)
	p.keep(t, "job1")
	bg := context.Background()
	if _, err := p.gc.Put(bg, "job1", "k", "v1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	retired := p.mirrorOf("job1")
	retired.teardown()
	if v, _, err := p.gc.TryGet(bg, "job1", "k"); err != nil || v != "v1" {
		t.Fatalf("TryGet through the new mirror = %q, %v", v, err)
	}
	current := p.mirrorOf("job1")
	if current == retired || current.origin == retired.origin || current.origin == "" {
		t.Fatalf("origins: retired %q, current %q", retired.origin, current.origin)
	}
	// Each origin is the id the shard minted for that mirror's
	// subscription, which went with the retired mirror's connection.
	waitFor(t, func() bool { return p.subscribed(current.origin) && !p.subscribed(retired.origin) })

	// The late write, as the shard sees it: a CPUT on a pooled
	// connection naming the retired origin.
	router := dialT(t, p.cassAddr, routerContext)
	cput := func(origin, value string) {
		t.Helper()
		spec := opFor(opPut, scopeCtx)
		if _, err := router.mutate(bg, spec, putReq(spec.req(), "k", value).Set("ctx", "job1").Set("origin", origin)); err != nil {
			t.Fatalf("CPUT origin=%s: %v", origin, err)
		}
	}
	cput(retired.origin, "late")
	waitFor(t, func() bool {
		v, _, err := p.gc.TryGet(bg, "job1", "k")
		return err == nil && v == "late"
	})
	// The control: under the current origin the shard stays silent, which
	// is why only the mirror itself may write under it. (A push is
	// counted once it is written, which may be after it was read.)
	pushed := func() int64 { return counter(p.cass, "attrspace.events.pushed") }
	waitFor(t, func() bool { return pushed() == 1 })
	cput(current.origin, "unseen")
	cput(retired.origin, "seen")
	waitFor(t, func() bool {
		v, _, err := p.gc.TryGet(bg, "job1", "k")
		return err == nil && v == "seen"
	})
	waitFor(t, func() bool { return pushed() >= 2 })
	if n := pushed(); n != 2 {
		t.Errorf("the shard has pushed %d events for two foreign writes and one of the mirror's own origin, want 2", n)
	}
}

// TestShardErrorKeepsMirror: an ERROR the shard itself answered settles
// the write — nothing was applied — so the mirror stays, entries and
// mirror. The shard is told mid-test that it is shard 1 of 2, which
// makes it refuse the context it was serving.
func TestShardErrorKeepsMirror(t *testing.T) {
	p := startTappedPool(t)
	bg := context.Background()
	name := shardedContexts(t, 2)[0]
	if _, err := p.gc.Put(bg, name, "k", "kept"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	cc := p.mirrorOf(name)
	if err := p.cass.SetShard(1, 2); err != nil {
		t.Fatal(err)
	}
	for what, write := range map[string]func() error{
		"Put":      func() error { _, err := p.gc.Put(bg, name, "k", "refused"); return err },
		"PutBatch": func() error { _, err := p.gc.PutBatch(bg, name, []attr.KV{{Key: "k", Value: "refused"}}); return err },
		"Delete":   func() error { _, err := p.gc.Delete(bg, name, "k"); return err },
	} {
		if err := write(); err == nil || !strings.Contains(err.Error(), "wrong shard") || IsRetryable(err) {
			t.Fatalf("%s into a context the shard refuses = %v, want its wrong-shard ERROR", what, err)
		}
	}
	// A ctx-scope put into a context nobody holds is the other ERROR a
	// router can draw.
	_, err := p.sh.put(bg, "tdp.nobody-holds-this", cc.origin, "k", "v")
	if err == nil || !strings.Contains(err.Error(), "no such context") {
		t.Fatalf("put into an unheld context = %v", err)
	}
	cc.wrote(err)

	hits := counter(p.lass, "attrspace.cache.hits")
	if v, _, err := p.gc.TryGet(bg, name, "k"); err != nil || v != "kept" {
		t.Errorf("TryGet after refused writes = %q, %v, want the cached %q", v, err, "kept")
	}
	if counter(p.lass, "attrspace.cache.hits") != hits+1 || p.mirrorOf(name) != cc {
		t.Errorf("a shard ERROR tore the mirror down (%p → %p)", cc, p.mirrorOf(name))
	}
}

// TestRouterCancelledLeaderStillServesFollowers: a caller that leaves
// through its context with its op in flight fails nobody else's. Every
// caller's op is its own request on the pooled connection, so the others
// sent theirs beside it, and their replies still reach them.
func TestRouterCancelledLeaderStillServesFollowers(t *testing.T) {
	p := startTappedPool(t)
	bg := context.Background()
	if _, err := p.gc.Put(bg, "job1", "prime", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	p.pooled.hold()
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	led := make(chan error, 1)
	go func() {
		_, err := p.sh.put(ctx, "job1", "", "leader", "v")
		led <- err
	}()
	waitFor(t, func() bool { return p.atShard("job1", "leader") == "v" })
	const others = 3
	followed := make(chan error, others)
	for i := 0; i < others; i++ {
		key := fmt.Sprintf("follower%d", i)
		go func() {
			_, err := p.sh.put(bg, "job1", "", key, "v")
			followed <- err
		}()
		waitFor(t, func() bool { return p.atShard("job1", key) == "v" })
	}
	cancel()
	if err := <-led; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller = %v, want context.Canceled", err)
	}
	p.pooled.release()
	for i := 0; i < others; i++ {
		if err := <-followed; err != nil {
			t.Errorf("a caller beside a cancelled one: %v", err)
		}
	}
	// Nothing is left registered: the cancelled caller withdrew its
	// request, every other caller took its reply.
	pool, _ := p.sh.live()
	if st := slotState(pool); st.pending != 0 {
		t.Errorf("%d requests still pending on the pooled connection", st.pending)
	}
}

// TestRouterAbandonedOpKeepsItsRequest: a request goes back on the
// shard's free list once it is encoded, not once its reply is in. A
// caller that stops waiting has sent its write as it was made, and the
// next caller fills the same request with its own: the shard holds both
// values, and the free list never held a second request.
func TestRouterAbandonedOpKeepsItsRequest(t *testing.T) {
	p := startTappedPool(t)
	bg := context.Background()
	if _, err := p.gc.Put(bg, "job1", "prime", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	freeReqs := func() int {
		p.sh.mu.Lock()
		defer p.sh.mu.Unlock()
		return len(p.sh.freeReqs)
	}
	p.pooled.hold()
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	abandoned := make(chan error, 1)
	go func() {
		_, err := p.sh.put(ctx, "job1", "", "abandoned", "abandoned-own")
		abandoned <- err
	}()
	waitFor(t, func() bool { return p.atShard("job1", "abandoned") == "abandoned-own" })
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("a caller whose context ended = %v, want context.Canceled", err)
	}
	next := make(chan error, 1)
	go func() {
		_, err := p.sh.put(bg, "job1", "", "next", "next-own")
		next <- err
	}()
	waitFor(t, func() bool { return p.atShard("job1", "next") == "next-own" })
	if n := freeReqs(); n != 1 {
		t.Errorf("%d requests on the free list after two ops one at a time, want 1", n)
	}
	p.pooled.release()
	if err := <-next; err != nil {
		t.Errorf("next: %v", err)
	}
	for _, key := range []string{"abandoned", "next"} {
		if v := p.atShard("job1", key); v != key+"-own" {
			t.Errorf("the shard holds %s = %q, want %q", key, v, key+"-own")
		}
	}
}

// TestRouterErrorsCountFailedOps: attrspace.router.shard.N.errors
// counts the ops that failed on the shard, once each. The shard dies
// while the first of N ops is still being written and the others wait
// to write behind it, every one of them registered on the pooled
// connection: each fails with a retryable loss, the counter moves by N,
// and inflight, which counts ops awaiting a reply, is 0 again.
func TestRouterErrorsCountFailedOps(t *testing.T) {
	p := startTappedPool(t)
	bg := context.Background()
	if _, err := p.gc.Put(bg, "job1", "prime", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	reg := p.lass.Telemetry()
	errCount, inflight := reg.Counter("attrspace.router.shard.0.errors"), reg.Gauge("attrspace.router.shard.0.inflight")
	before, writes := errCount.Value(), p.pooled.writes.Load()
	pool, _ := p.sh.live()
	p.pooled.holdWrites()
	defer p.pooled.releaseWrites()
	const ops = 5
	failed := make(chan error, ops)
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("op%d", i)
		go func() {
			_, err := p.sh.put(bg, "job1", "", key, "v")
			failed <- err
		}()
	}
	waitFor(t, func() bool { return p.pooled.writes.Load() == writes+1 && slotState(pool).pending == ops })
	p.cass.Close()
	waitFor(t, func() bool { c, ever := p.sh.live(); return c == nil && ever })
	p.pooled.releaseWrites()
	for i := 0; i < ops; i++ {
		if err := <-failed; !IsRetryable(err) {
			t.Errorf("an op whose connection died = %v, want a retryable loss", err)
		}
	}
	if n := errCount.Value() - before; n != ops {
		t.Errorf("attrspace.router.shard.0.errors moved by %d for %d failed ops", n, ops)
	}
	if n := inflight.Value(); n != 0 {
		t.Errorf("attrspace.router.shard.0.inflight = %d with nothing in flight", n)
	}
}

// TestRouterConcurrentWriters is the pooled connection under load (run
// it with -race -count=20; make chaos runs it -race -count=2): writers on
// one shard, each reading its own writes back, every op acknowledged
// once and with its own reply.
func TestRouterConcurrentWriters(t *testing.T) {
	p := startTappedPool(t)
	bg := context.Background()
	const writers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for i := 0; i < rounds; i++ {
				want := fmt.Sprintf("v%d", i)
				if _, err := p.gc.Put(bg, "job1", key, want); err != nil {
					t.Errorf("%s: Put: %v", key, err)
					return
				}
				if v, _, err := p.sh.tryGet(bg, "job1", key); err != nil || v != want {
					t.Errorf("%s: read %q, %v from the shard, want %q", key, v, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	const ops = 2 * writers * rounds
	if n := counter(p.lass, "attrspace.router.pooled"); n != ops {
		t.Errorf("attrspace.router.pooled = %d, want %d", n, ops)
	}
	if n := counter(p.cass, "attrspace.events.pushed"); n != 0 {
		t.Errorf("the shard pushed %d events to the only cache there is", n)
	}
}

// TestRouterFirstConnectNotUnderCallersContext: before a shard's first
// connect every op waits for it, each under its own caller's context, so
// a caller cancelled during the wait fails alone.
func TestRouterFirstConnectNotUnderCallersContext(t *testing.T) {
	_, cassAddr := startServer(t)
	var up atomic.Bool
	var dials atomic.Int64
	lass := NewServer()
	gc := lass.EnableGlobalCache(cassAddr, CacheConfig{
		ShardHeartbeat: -1,
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			if !up.Load() {
				return nil, errors.New("the shard is not up yet")
			}
			return TCPDial(addr)
		},
	})
	t.Cleanup(lass.Close)
	sh := gc.conns[0]
	bg := context.Background()

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	first := make(chan error, 1)
	go func() {
		_, err := sh.contexts(ctx)
		first <- err
	}()
	type listing struct {
		names []string
		err   error
	}
	second := make(chan listing, 1)
	go func() {
		names, err := sh.contexts(bg)
		second <- listing{names, err}
	}()
	// Give both callers time to reach the wait (the connect loop refused
	// twice); the outcome below holds wherever they were.
	waitFor(t, func() bool { return dials.Load() >= 2 })
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first caller = %v, want its own context.Canceled", err)
	}
	select {
	case got := <-second:
		t.Fatalf("second caller was answered before the shard was up: %v, %v", got.names, got.err)
	case <-time.After(20 * time.Millisecond):
	}
	up.Store(true)
	select {
	case got := <-second:
		if got.err != nil || len(got.names) != 1 || got.names[0] != routerContext {
			t.Errorf("second caller = %v, %v; want the shard's listing", got.names, got.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second caller never answered")
	}
}

// TestTrailingLossDeclared: every update a subscriber's ring drops is
// declared — delivered plus declared equals published — without another
// publish to carry the declaration: drops that happen while a burst is
// being pushed close it as an EVENT op=lost of their own.
func TestTrailingLossDeclared(t *testing.T) {
	_, addr := startServer(t)
	watcher, writer := dialT(t, addr, "job1"), dialT(t, addr, "job1")
	var delivered, declared, markers atomic.Int64
	if _, err := watcher.subscribe(func(ev Event) {
		declared.Add(int64(ev.Lost))
		switch {
		case ev.Op == "lost":
			markers.Add(1)
			if ev.Attr != "" || ev.Value != "" || ev.Seq != 0 || ev.Lost == 0 {
				t.Errorf("a lost marker carries more, or less, than its count: %+v", ev)
			}
		case strings.HasPrefix(ev.Attr, "e"):
			delivered.Add(1)
		}
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	burst := make([]KV, 1000) // against a ring of 64
	for i := range burst {
		burst[i] = KV{Key: fmt.Sprintf("e%d", i), Value: "v"}
	}
	published := int64(0)
	for round := 0; round < 20; round++ {
		if err := writer.PutBatch(burst); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		published += int64(len(burst))
		// Nothing else is published: the account has to close by itself.
		deadline := time.Now().Add(5 * time.Second)
		for delivered.Load()+declared.Load() != published {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d delivered + %d declared lost of %d published, and no event is coming",
					round, delivered.Load(), declared.Load(), published)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	t.Logf("%d delivered, %d declared lost, %d of the declarations by op=lost markers", delivered.Load(), declared.Load(), markers.Load())
}

// TestGlobalWriteSmoke is the tier-1 guard of what the global_write
// workload of the repository's benchmark measures (make bench-smoke runs
// it): 2,000 PutGlobal, one at a time, through a caching LASS and its
// router to a shard. An echo coming back shows as an event pushed to the
// cache's subscription — the only one there is — and a second sender, or
// an op that bypasses the pooled connection, as router.pooled off the op
// count; either fails here, not in a benchmark.
func TestGlobalWriteSmoke(t *testing.T) {
	lass, shards, _, _ := startShardedPool(t, 2)
	lassAddr := serveUnix(t, lass, nil)
	ctxs := shardedContexts(t, 2)
	bg := context.Background()
	handles := []*Client{dialT(t, lassAddr, ctxs[0]), dialT(t, lassAddr, ctxs[1])}
	const ops = 2000
	for i := 0; i < ops; i++ {
		if _, err := handles[i%2].PutAt(bg, Global, fmt.Sprintf("attr%d", i%64), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("PutGlobal %d: %v", i, err)
		}
	}
	for i, c := range handles {
		// attr<i>'s last writer was op (ops-1)/64*64 + i, on this handle.
		if v, _, err := c.TryGetAt(bg, Global, fmt.Sprintf("attr%d", i)); err != nil || v != fmt.Sprintf("v%d", (ops-1)/64*64+i) {
			t.Errorf("TryGetGlobal through the cache = %q, %v", v, err)
		}
	}
	if n := counter(lass, "attrspace.router.pooled"); n != ops {
		t.Errorf("attrspace.router.pooled = %d, want %d", n, ops)
	}
	if n := counter(lass, "attrspace.cache.fills"); n != 0 {
		t.Errorf("attrspace.cache.fills = %d, want 0: own writes are read from the mirror", n)
	}
	// A shard counts what a request suppressed once its handler is done,
	// which may be after the reply has left.
	var pushed, suppressed int64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		pushed, suppressed = 0, 0
		for _, s := range shards {
			pushed += counter(s, "attrspace.events.pushed")
			suppressed += counter(s, "attrspace.events.suppressed")
		}
		if suppressed >= ops || time.Now().After(deadline) {
			break
		}
	}
	if pushed != 0 || suppressed != ops {
		t.Errorf("shards pushed %d events and suppressed %d, want 0 and %d", pushed, suppressed, ops)
	}
}
