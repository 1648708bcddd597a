package interop

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/wire"
)

// TestTransportV2ClientAgainstV1Server is the transport-interop
// acceptance run: a current (v2) client stack — caps offer, mux,
// delta resync, chunked snapshots, heartbeats — driven against a
// server that grants none of it, exactly like a daemon fleet upgraded
// before its attribute servers. Every operation must transparently
// fall back to the v1 protocol, including a full reconnect + resync
// cycle through a Session.
func TestTransportV2ClientAgainstV1Server(t *testing.T) {
	space := attr.NewSpace()
	keep := space.Join("mix")
	defer keep.Leave()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	v1 := attrspace.NewServerWithSpace(space)
	v1.SetCaps() // pre-v2 behavior: no caps granted, SNAPD/PING unknown
	go v1.Serve(l)

	// Plain client: the full v1 surface, plus graceful rejection of the
	// v2-only verbs.
	c, err := attrspace.Dial(nil, addr, "mix")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for _, cap := range []string{wire.CapMux, wire.CapSnapd, wire.CapChunk, wire.CapPing} {
		if c.HasCap(cap) {
			t.Errorf("v1 server granted %s", cap)
		}
	}
	for i := 0; i < 600; i++ { // above the chunking threshold, served inline
		if err := c.Put(fmt.Sprintf("a%03d", i), "v"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	snap, _, err := c.SnapshotSeq(context.Background())
	if err != nil || len(snap) != 600 {
		t.Fatalf("SnapshotSeq = %d entries, %v; want 600", len(snap), err)
	}
	if _, _, _, err := c.SnapshotDelta(context.Background(), 1); err == nil {
		t.Fatal("SnapshotDelta succeeded against a v1 server")
	}
	c.Close()

	// Session: subscribe, lose the server, reconnect, and resync — the
	// delta path must quietly fall back to the full snapshot diff.
	s := attrspace.NewSession(attrspace.SessionConfig{
		Addr: addr, Context: "mix", Seed: 1,
		Heartbeat:   50 * time.Millisecond, // inert without the ping cap
		ConnectWait: 10 * time.Second,
	})
	defer s.Close()
	if err := s.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if err := s.PutCtx(ctx, "live", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}

	v1.Close()
	// A write the session misses while disconnected; only the resync
	// can deliver it.
	if _, err := keep.PutSeq("missed", "yes"); err != nil {
		t.Fatalf("PutSeq: %v", err)
	}
	var l2 net.Listener
	for i := 0; i < 200; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	v2 := attrspace.NewServerWithSpace(space)
	v2.SetCaps()
	go v2.Serve(l2)
	defer v2.Close()

	// The session serves operations as soon as the new connection is
	// installed and resyncs right after, so the resync is waited for
	// like the recovery itself, not read once behind it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := s.TryGetCtx(ctx, "missed")
		_, _, resyncs := s.Stats()
		if err == nil && v == "yes" && resyncs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never recovered against the v1 server: missed = %q, %v; resyncs = %d, want >= 1 (full-snapshot fallback)", v, err, resyncs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.GaveUp() {
		t.Fatal("session gave up")
	}
}
