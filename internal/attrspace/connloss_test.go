package attrspace

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"tdp/internal/wire"
)

// ---------------------------------------------------------------------------
// Scripted server: each accepted connection is handled by the next
// hand-written script in order, pinning down the exact wire exchanges
// of a connection that dies under its callers.

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

// wait blocks until every script has run to completion, so the
// scripts' own checks have been applied before assertions.
func (s *scripted) wait() {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.t.Fatal("scripted server: scripts did not complete")
	}
}

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
	// retryable classification the shard router's reconnect rides
	// through.
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
