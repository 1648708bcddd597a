package mrnet

import (
	"fmt"
	"net"
	"testing"
	"time"

	"tdp/internal/paradyn"
	"tdp/internal/telemetry"
)

// TestNodeUplinkUpgradesToMux verifies the REGISTER handshake on a
// node→node link: the child registers as kind=node, the parent node
// acks with a bare OK, and the child's sample uplink moves onto the
// flow-controlled samples stream — while reduction results stay exactly
// what the bare connection produced.
func TestNodeUplinkUpgradesToMux(t *testing.T) {
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
	leafReg := telemetry.NewRegistry()
	leaf, err := NewNode(Config{
		Name: "leaf", Listener: ll, ParentAddr: parent.Addr(), ExpectedChildren: 2,
		FlushInterval: 2 * time.Millisecond, Registry: leafReg,
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

	// The leaf's uplink must have upgraded (the parent is a node and
	// acks; the real front-end upstream of the parent never does, so
	// the parent's own uplink stays plain).
	deadline := time.Now().Add(2 * time.Second)
	for {
		leaf.mu.Lock()
		upgraded := leaf.upMux != nil
		leaf.mu.Unlock()
		if upgraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leaf uplink never upgraded to mux")
		}
		time.Sleep(2 * time.Millisecond)
	}
	parent.mu.Lock()
	parentUpgraded := parent.upMux != nil
	parent.mu.Unlock()
	if parentUpgraded {
		t.Error("parent uplink to the plain front-end upgraded; the front-end never acks")
	}

	// Reduction is unchanged by the transport: 2 daemons x 7 calls.
	stats := fe.AllStats()
	if stats["work"].Calls != 14 || stats["work"].TimeMicros != 140 {
		t.Errorf("work = %+v, want 14 calls / 140us through the muxed uplink", stats["work"])
	}
	// The leaf's registry carries the mux gauge once samples flowed.
	snap := leafReg.Snapshot()
	if g, ok := snap.Gauges["wire.mux.streams"]; !ok || g < 1 {
		t.Errorf("wire.mux.streams gauge = %d, %v; want >= 1", g, ok)
	}
}
