package mrnet

import (
	"fmt"
	"net"
	"testing"
	"time"

	"tdp/internal/paradyn"
)

// TestNodeUplinkBatchesAfterAck verifies the REGISTER handshake on a
// node→node link: the child registers as kind=node, the parent node
// acks with a bare OK, and the child's drain cycles switch to TBATCH
// frames — while reduction results stay exactly what per-sample frames
// produced.
func TestNodeUplinkBatchesAfterAck(t *testing.T) {
	fe := newFE(t)
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	parent, err := NewNode(Config{
		Name: "parent", Listener: pl, ParentAddr: fe.Addr(), ExpectedChildren: 1,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("parent: %v", err)
	}
	defer parent.Close()

	ll, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	leaf, err := NewNode(Config{
		Name: "leaf", Listener: ll, ParentAddr: parent.Addr(), ExpectedChildren: 2,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("leaf: %v", err)
	}
	defer leaf.Close()

	for i := 0; i < 2; i++ {
		fakeDaemon(t, leaf.Addr(), fmt.Sprintf("d%d", i), map[string]paradyn.FuncStats{
			"work": {Calls: 7, TimeMicros: 70},
		}, "exit(0)")
	}
	if err := fe.WaitDone(1, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}

	// The leaf's uplink must have switched to TBATCH (the parent is a
	// node and acks; the real front-end upstream of the parent never
	// does, so the parent keeps sending one frame per sample).
	deadline := time.Now().Add(2 * time.Second)
	for {
		leaf.mu.Lock()
		batched := leaf.upAcked
		leaf.mu.Unlock()
		if batched {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leaf uplink never switched to TBATCH")
		}
		time.Sleep(2 * time.Millisecond)
	}
	parent.mu.Lock()
	parentBatched := parent.upAcked
	parent.mu.Unlock()
	if parentBatched {
		t.Error("parent uplink to the plain front-end switched to TBATCH; the front-end never acks")
	}

	// Reduction is unchanged by the framing: 2 daemons x 7 calls.
	stats := fe.AllStats()
	if stats["work"].Calls != 14 || stats["work"].TimeMicros != 140 {
		t.Errorf("work = %+v, want 14 calls / 140us through the batched uplink", stats["work"])
	}
}
