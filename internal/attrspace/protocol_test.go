package attrspace

import (
	"context"
	"net"
	"testing"
	"time"

	"tdp/internal/wire"
)

// rawConn opens a raw framed connection to the server, bypassing the
// Client, for protocol-level adversarial tests.
func rawConn(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { raw.Close() })
	return wire.NewConn(raw)
}

func TestProtocolSurvivesGarbageThenDisconnect(t *testing.T) {
	// A client that sends a valid frame with an unknown verb, then
	// slams the connection, must not disturb other sessions.
	srv, addr := startServer(t)
	good := dialT(t, addr, "ctx")
	good.Put("k", "v")

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	wc := wire.NewConn(raw)
	wc.Send(wire.NewMessage("HELLO").Set("context", "junk").Set("rev", ProtocolRevision))
	wc.Recv()
	wc.Send(wire.NewMessage("WAT").Set("id", "9"))
	if reply, err := wc.Recv(); err != nil || reply.Verb != "ERROR" {
		t.Fatalf("unknown verb reply: %v %v", reply, err)
	}
	raw.Close()

	// The junk context's refcount drains.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Space().Refs("junk") != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Space().Refs("junk") != 0 {
		t.Error("abandoned connection leaked a context reference")
	}
	// The good session is unaffected.
	if v, _, err := good.TryGetAt(context.Background(), Local, "k"); err != nil || v != "v" {
		t.Errorf("good session disturbed: %q %v", v, err)
	}
}

func TestProtocolMalformedFrameDisconnectsOnlyThatClient(t *testing.T) {
	_, addr := startServer(t)
	good := dialT(t, addr, "ctx")

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// Valid length header, garbage payload.
	raw.Write([]byte{0, 0, 0, 3, 'z', 'z', 'z'})
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		// Some servers might reply; ours just drops the connection.
		t.Log("server replied to malformed frame (acceptable)")
	}
	raw.Close()

	if err := good.Put("still", "alive"); err != nil {
		t.Errorf("healthy client affected by another's malformed frame: %v", err)
	}
}

func TestProtocolDoubleSubscribeRejected(t *testing.T) {
	_, addr := startServer(t)
	wc := rawConn(t, addr)
	wc.Send(wire.NewMessage("HELLO").Set("context", "c").Set("rev", ProtocolRevision).Set("id", "0"))
	wc.Recv()
	wc.Send(wire.NewMessage("PUT").Set("id", "p").Set("attr", "k").Set("value", "v"))
	wc.Recv()
	wc.Send(wire.NewMessage("SUB").Set("id", "1"))
	// The OK names the context's incarnation and the subscription's id,
	// base 36, and the seq the subscription starts after.
	if reply, _ := wc.Recv(); reply.Verb != "OK" || uintField(reply, "inc", 36) == 0 ||
		uintField(reply, "origin", 36) == 0 || reply.Get("seq") != "1" {
		t.Fatalf("first SUB: %v", reply)
	}
	wc.Send(wire.NewMessage("SUB").Set("id", "2"))
	if reply, _ := wc.Recv(); reply.Verb != "ERROR" {
		t.Errorf("second SUB: %v", reply)
	}
}

func TestProtocolInterleavedGetsShareConnection(t *testing.T) {
	// Raw check of the id-multiplexing that backs tdp_async_get: two
	// GETs outstanding, answered out of order, replies carry the right
	// ids.
	_, addr := startServer(t)
	producer := dialT(t, addr, "c")
	wc := rawConn(t, addr)
	wc.Send(wire.NewMessage("HELLO").Set("context", "c").Set("rev", ProtocolRevision).Set("id", "0"))
	wc.Recv()
	wc.Send(wire.NewMessage("GET").Set("id", "g1").Set("attr", "first"))
	wc.Send(wire.NewMessage("GET").Set("id", "g2").Set("attr", "second"))

	producer.Put("second", "2") // satisfy the later request first
	reply, err := wc.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if reply.Get("id") != "g2" || reply.Get("value") != "2" {
		t.Errorf("first reply = %v, want g2", reply)
	}
	producer.Put("first", "1")
	reply, err = wc.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if reply.Get("id") != "g1" || reply.Get("value") != "1" {
		t.Errorf("second reply = %v, want g1", reply)
	}
}
