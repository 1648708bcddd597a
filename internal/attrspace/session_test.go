package attrspace

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"tdp/internal/liveness"
	"tdp/internal/wire"
)

// ---------------------------------------------------------------------------
// Scripted server: each accepted connection is handled by the next
// hand-written script in order, pinning down the exact wire exchanges
// a Session performs during guarded retries (probe-before-resend).

type script func(sc *scriptConn)

type scriptConn struct {
	t   *testing.T
	wc  *wire.Conn
	raw net.Conn
}

// expect receives the next frame and requires its verb; returns nil
// (after failing the test) on a mismatch or transport error.
func (sc *scriptConn) expect(verb string) *wire.Message {
	m, err := sc.wc.Recv()
	if err != nil {
		sc.t.Errorf("script: waiting for %s, connection error: %v", verb, err)
		return nil
	}
	if m.Verb != verb {
		sc.t.Errorf("script: got %s, want %s (%v)", m.Verb, verb, m)
		return nil
	}
	return m
}

// reply answers req with verb and the given key/value pairs, echoing
// the request id so the client's reply matching works.
func (sc *scriptConn) reply(req *wire.Message, verb string, kv ...string) {
	if req == nil {
		return
	}
	m := wire.NewMessage(verb).Set("id", req.Get("id"))
	for i := 0; i+1 < len(kv); i += 2 {
		m.Set(kv[i], kv[i+1])
	}
	if err := sc.wc.Send(m); err != nil {
		sc.t.Errorf("script: send %s: %v", verb, err)
	}
}

// hello serves the handshake.
func (sc *scriptConn) hello() {
	sc.reply(sc.expect("HELLO"), "OK", "rev", ProtocolRevision)
}

// drainForbidding reads frames until the peer disconnects, failing the
// test if any of the listed verbs arrives; everything else (e.g. the
// polite EXIT on Close) is acknowledged blandly.
func (sc *scriptConn) drainForbidding(verbs ...string) {
	for {
		m, err := sc.wc.Recv()
		if err != nil {
			return
		}
		for _, v := range verbs {
			if m.Verb == v {
				sc.t.Errorf("script: forbidden %s re-sent: %v", v, m)
			}
		}
		if m.Verb == "EXIT" {
			return
		}
		sc.reply(m, "OK")
	}
}

type scripted struct {
	t    *testing.T
	addr string
	wg   sync.WaitGroup
}

func newScripted(t *testing.T, scripts ...script) *scripted {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	s := &scripted{t: t, addr: l.Addr().String()}
	s.wg.Add(len(scripts))
	go func() {
		for i := 0; i < len(scripts); i++ {
			conn, err := l.Accept()
			if err != nil {
				for ; i < len(scripts); i++ {
					s.wg.Done()
				}
				return
			}
			run := scripts[i]
			go func(c net.Conn) {
				defer s.wg.Done()
				defer c.Close()
				run(&scriptConn{t: s.t, wc: wire.NewConn(c), raw: c})
			}(conn)
		}
	}()
	return s
}

// wait blocks until every script has run to completion, so forbidden-
// verb checks have definitely been applied before assertions.
func (s *scripted) wait() {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.t.Fatal("scripted server: scripts did not complete")
	}
}

func scriptSession(t *testing.T, addr string) *Session {
	t.Helper()
	s := NewSession(SessionConfig{
		Addr:        addr,
		Context:     "script",
		Backoff:     liveness.Schedule{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond},
		MaxAttempts: 50,
		ConnectWait: 5 * time.Second,
	})
	t.Cleanup(func() { s.Close() })
	return s
}

// The four probe tests run at both scopes: a lost GPUT ack is probed
// with GTRYGET and judged by the CASS seqs GPUT acks carry, exactly as
// a lost PUT's is by TRYGET and the context's seqs.
func verbAt(op opKind, scope Scope) string { return opFor(op, scope).verb }

// TestSessionPutProbeLanded: the connection dies with a put ack in
// flight, but the write actually landed. The session must discover
// that via the probe on the next connection and NOT re-send the put.
func TestSessionPutProbeLanded(t *testing.T) {
	for _, at := range slotScopes {
		scope := at.scope
		put, tryget := verbAt(opPut, scope), verbAt(opTryGet, scope)
		t.Run(at.name, func(t *testing.T) {
			srv := newScripted(t,
				func(sc *scriptConn) { // conn 0: take the put, die before acking
					sc.hello()
					if sc.expect(put) != nil {
						sc.raw.Close()
					}
				},
				func(sc *scriptConn) { // conn 1: probe sees our value → landed
					sc.hello()
					m := sc.expect(tryget)
					if m != nil && m.Get("attr") != "k" {
						sc.t.Errorf("probe for %q, want k", m.Get("attr"))
					}
					sc.reply(m, "VALUE", "attr", "k", "value", "hello", "seq", "4")
					sc.drainForbidding(put)
				},
			)
			s := scriptSession(t, srv.addr)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if seq, err := s.PutAt(ctx, scope, "k", "hello"); err != nil || seq != 4 {
				t.Fatalf("PutAt = seq %d, %v; want the landed write's seq 4", seq, err)
			}
			s.Close()
			srv.wait()
			if _, retries, _ := s.Stats(); retries == 0 {
				t.Error("no retry recorded despite the injected cut")
			}
		})
	}
}

// TestSessionPutProbeSuperseded: while our ack was lost, another
// writer advanced the attribute. Re-sending would clobber the newer
// value with a stale one; the session must treat the put as
// superseded and return success without re-sending.
func TestSessionPutProbeSuperseded(t *testing.T) {
	for _, at := range slotScopes {
		scope := at.scope
		put, tryget := verbAt(opPut, scope), verbAt(opTryGet, scope)
		t.Run(at.name, func(t *testing.T) {
			srv := newScripted(t,
				func(sc *scriptConn) {
					sc.hello()
					if sc.expect(put) != nil {
						sc.raw.Close()
					}
				},
				func(sc *scriptConn) { // probe: newer value, newer seq → superseded
					sc.hello()
					m := sc.expect(tryget)
					sc.reply(m, "VALUE", "attr", "k", "value", "newer", "seq", "9")
					sc.drainForbidding(put)
				},
			)
			s := scriptSession(t, srv.addr)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := s.PutAt(ctx, scope, "k", "stale"); err != nil {
				t.Fatalf("PutAt: %v", err)
			}
			s.Close()
			srv.wait()
		})
	}
}

// TestSessionPutProbeResend: the probe finds no trace of the write
// (NOTFOUND), so the session re-sends it on the new connection.
func TestSessionPutProbeResend(t *testing.T) {
	for _, at := range slotScopes {
		scope := at.scope
		put, tryget := verbAt(opPut, scope), verbAt(opTryGet, scope)
		t.Run(at.name, func(t *testing.T) {
			srv := newScripted(t,
				func(sc *scriptConn) {
					sc.hello()
					if sc.expect(put) != nil {
						sc.raw.Close()
					}
				},
				func(sc *scriptConn) {
					sc.hello()
					sc.reply(sc.expect(tryget), "NOTFOUND")
					m := sc.expect(put)
					if m != nil && (m.Get("attr") != "k" || m.Get("value") != "v") {
						sc.t.Errorf("re-sent %s %v, want k=v", put, m)
					}
					sc.reply(m, "OK", "seq", "2")
					sc.drainForbidding()
				},
			)
			s := scriptSession(t, srv.addr)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if seq, err := s.PutAt(ctx, scope, "k", "v"); err != nil || seq != 2 {
				t.Fatalf("PutAt = seq %d, %v; want the re-sent put's seq 2", seq, err)
			}
			s.Close()
			srv.wait()
		})
	}
}

// TestSessionDeleteProbeLanded: a delete whose ack was lost but which
// landed (probe says NOTFOUND) must not be re-sent.
func TestSessionDeleteProbeLanded(t *testing.T) {
	for _, at := range slotScopes {
		scope := at.scope
		del, tryget := verbAt(opDelete, scope), verbAt(opTryGet, scope)
		t.Run(at.name, func(t *testing.T) {
			srv := newScripted(t,
				func(sc *scriptConn) {
					sc.hello()
					if sc.expect(del) != nil {
						sc.raw.Close()
					}
				},
				func(sc *scriptConn) {
					sc.hello()
					sc.reply(sc.expect(tryget), "NOTFOUND")
					sc.drainForbidding(del)
				},
			)
			s := scriptSession(t, srv.addr)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := s.DeleteAt(ctx, scope, "k"); err != nil {
				t.Fatalf("DeleteAt: %v", err)
			}
			s.Close()
			srv.wait()
		})
	}
}

// ---------------------------------------------------------------------------
// Pending-reply hygiene.

// TestClientFailDrainsPendings is the regression test for the async
// pending-reply leak: replies outstanding when the connection dies
// (here a GetAsync and a blocking Put, both in flight) must each
// receive a prompt retryable error, and the pending map must end
// empty — no stranded channel entries.
func TestClientFailDrainsPendings(t *testing.T) {
	srv := newScripted(t, func(sc *scriptConn) {
		sc.hello()
		sc.expect("GET") // swallow; never reply
		sc.expect("PUT") // both now in flight; kill the transport
		sc.raw.Close()
	})
	c, err := Dial(nil, srv.addr, "leak")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	res, err := c.GetAsync("never-set")
	if err != nil {
		t.Fatalf("GetAsync: %v", err)
	}
	putErr := make(chan error, 1)
	go func() { putErr <- c.Put("k", "v") }()

	select {
	case r := <-res:
		if r.Err == nil || !IsRetryable(r.Err) {
			t.Errorf("GetAsync result error = %v, want retryable", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetAsync reply channel never delivered after connection loss (leaked pending)")
	}
	select {
	case err := <-putErr:
		if err == nil || !IsRetryable(err) {
			t.Errorf("Put error = %v, want retryable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put never returned after connection loss (leaked pending)")
	}
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Errorf("pending map holds %d entries after fail, want 0", n)
	}
	srv.wait()
}

// ---------------------------------------------------------------------------
// Graceful drain.

// TestServerShutdownDrain: Shutdown announces CLOSE, after which the
// client refuses new requests with ErrServerDraining; a blocked GET
// outstanding across the drain resolves with a retryable error rather
// than hanging; Shutdown itself completes within its context.
func TestServerShutdownDrain(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr, "drain")
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	blocked, err := c.GetAsync("never-put")
	if err != nil {
		t.Fatalf("GetAsync: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// Wait for the CLOSE frame to be processed (racing writes against
	// it would see the connection torn down before the announcement),
	// then require that new sends are turned away as draining — a
	// retryable classification a Session rides through.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		draining := c.draining
		c.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never observed the drain announcement")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Put("k2", "v2"); !errors.Is(err, ErrServerDraining) {
		t.Fatalf("post-CLOSE Put error = %v, want ErrServerDraining", err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned")
	}
	select {
	case r := <-blocked:
		if r.Err == nil || !IsRetryable(r.Err) {
			t.Errorf("blocked GET across drain: error = %v, want retryable", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked GET never resolved across the drain")
	}
}

// TestSessionRidesThroughDrain: a Session connected to a server that
// drains and is replaced reconnects and keeps serving without caller-
// visible failures.
func TestSessionRidesThroughDrain(t *testing.T) {
	r := newRestartable(t)
	keep := r.space.Join("drainride")
	defer keep.Leave()

	s := NewSession(SessionConfig{
		Addr:        r.addr,
		Context:     "drainride",
		Backoff:     liveness.Schedule{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond},
		MaxAttempts: -1,
		ConnectWait: 5 * time.Second,
	})
	defer s.Close()
	if _, err := s.PutAt(context.Background(), Local, "before", "1"); err != nil {
		t.Fatalf("Put before drain: %v", err)
	}
	r.drain(time.Second)
	r.restart()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.PutAt(ctx, Local, "after", "2"); err != nil {
		t.Fatalf("Put after drain+restart: %v", err)
	}
	for _, k := range []string{"before", "after"} {
		if _, _, err := s.TryGetAt(context.Background(), Local, k); err != nil {
			t.Errorf("TryGet(%s) after drain: %v", k, err)
		}
	}
}

// TestSessionGateEpochRestart pins down the incarnation rule and why
// install() gates event delivery until the rebase has run. The context
// was destroyed and recreated while the session was away, so its seqs
// restarted from 1: a live event from the new incarnation that lands
// between SUB and the resync would be judged against the previous
// incarnation's per-attribute marks and silently dropped — and since the
// resync's reply predates that write, nothing would ever replay it. The
// gate holds such events until rebase has seen SUB's new incarnation,
// told consumers the old one is gone and replayed the new one from seq
// 0; they then apply against the new incarnation's marks.
func TestSessionGateEpochRestart(t *testing.T) {
	_, addr := startServer(t)
	s := NewSession(SessionConfig{
		Dial: func(addr string) (net.Conn, error) {
			return nil, errors.New("no server in this test")
		},
		Addr:        "nowhere",
		Context:     "gate",
		Backoff:     liveness.Schedule{Initial: time.Hour, Max: time.Hour},
		MaxAttempts: -1,
	})
	defer s.Close()
	m := newMirror()
	s.setEventHandler(m.handle)

	// Incarnation 1, delivered live on the first connection.
	first := &evGate{s: s, shut: true}
	s.rebase(first, subMark{inc: 1}, true)
	for i, a := range []string{"x", "y", "z"} {
		first.handle(Event{Attr: a, Value: "old", Op: "put", Seq: uint64(i + 1)})
	}

	// Reconnect to incarnation 2, which holds x at seq 1.
	c := dialT(t, addr, "gate")
	if err := c.Put("x", "new"); err != nil {
		t.Fatal(err)
	}
	gate := &evGate{s: s, c: c, shut: true}
	// A live event for y (seq 2 in the new incarnation, stale against
	// incarnation 1's mark y=2) arrives before the rebase has run.
	gate.handle(Event{Attr: "y", Value: "new", Op: "put", Seq: 2})
	s.rebase(gate, subMark{inc: 2}, false)

	got, _, _ := m.snapshot()
	want := map[string]string{"x": "new", "y": "new"}
	if !sameMap(got, want) {
		t.Fatalf("mirror after the context was recreated = %v, want %v\n%v", got, want, m.events())
	}
	// Seen again, incarnation 2 is the same context: no destroy, a delta.
	s.rebase(&evGate{s: s, c: c, shut: true}, subMark{inc: 2}, false)
	if got, _, _ := m.snapshot(); !sameMap(got, want) {
		t.Errorf("mirror after a reconnect to the same incarnation = %v, want %v", got, want)
	}
}

// TestFullResyncOlderThanLiveEvents: a full-resync snapshot says an
// attribute is gone only if it is at least as new as what consumers have
// seen of that attribute. A snapshot can be applied after live events
// that outran its reply; its silence about attributes written since must
// not turn into deletes versioned below them.
func TestFullResyncOlderThanLiveEvents(t *testing.T) {
	r := replica{inc: 1, entries: make(map[string]rentry)}
	r.apply("old", "v", 1, false)
	r.apply("new", "v", 5, false)
	var got []string
	emit := func(ev Event) { got = append(got, fmt.Sprintf("%s %s@%d", ev.Op, ev.Attr, ev.Seq)) }
	// Taken at seq 2, applied late: "old" really was deleted by then,
	// "new" did not exist yet.
	r.applyFull(map[string]Versioned{}, 2, emit)
	if want := []string{"delete old@2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("stale full resync emitted %v, want %v", got, want)
	}
	got = nil
	r.applyFull(map[string]Versioned{}, 9, emit)
	if want := []string{"delete new@9"}; !reflect.DeepEqual(got, want) {
		t.Errorf("current full resync emitted %v, want %v", got, want)
	}
	if r.seq != 9 || r.inc != 1 {
		t.Errorf("replica at seq %d of incarnation %d, want 9 of 1", r.seq, r.inc)
	}
}

// TestSessionRepairsDeclaredLoss: a subscriber whose server ring
// overflows is told how many updates it lost, and a Session repairs the
// gap — a resync from seq 0, because the ring drops the oldest queued
// updates — so its consumer ends with the server's picture.
func TestSessionRepairsDeclaredLoss(t *testing.T) {
	srv, addr := startServer(t)
	srv.SetEventBuffer(1)
	keep := srv.Space().Join("lossy")
	defer keep.Leave()
	s := NewSession(SessionConfig{Addr: addr, Context: "lossy"})
	defer s.Close()
	m := newMirror()
	s.setEventHandler(m.handle)
	if err := s.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 0; i < 500; i++ {
		if err := keep.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	auth, err := keep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got, _, _ := m.snapshot(); !sameMap(got, auth); got, _, _ = m.snapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("mirror holds %d of the server's %d attributes", len(got), len(auth))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, resyncs, viol := m.snapshot(); resyncs == 0 || len(viol) > 0 {
		t.Errorf("%d resyncs, seq violations %v", resyncs, viol)
	}
	if n := counter(srv, "attrspace.events.lost"); n == 0 {
		t.Error("the ring of 1 dropped nothing: the test did not overflow it")
	}
}
