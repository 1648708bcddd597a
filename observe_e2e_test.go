package tdp_test

// End-to-end test of the observability plane (DESIGN.md §11): daemons
// publish telemetry streams through an mrnet reduction node to a
// paradyn front-end, the node's aggregated subtree is exposed through
// an attribute-space server's `STATS scope=tree`, and a monitoring
// client (what tdptop drives) reads one merged snapshot of the pool.

import (
	"context"
	"net"
	"testing"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/mrnet"
	"tdp/internal/paradyn"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

func TestObservabilityPlaneEndToEnd(t *testing.T) {
	// Front-end: ingests SAMPLEs and TSAMPLEs.
	feListener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fe, err := paradyn.NewFrontEnd(paradyn.FrontEndConfig{Listener: feListener, AutoRun: true})
	if err != nil {
		t.Fatalf("NewFrontEnd: %v", err)
	}
	defer fe.Close()

	// One reduction node interposed between daemons and front-end.
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	node, err := mrnet.NewNode(mrnet.Config{
		Name:             "mrnet-root",
		Listener:         nl,
		ParentAddr:       fe.Addr(),
		ExpectedChildren: 2,
		FlushInterval:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	// Two daemons publish cumulative telemetry streams.
	for i, val := range []int64{5, 7} {
		raw, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatalf("dial node: %v", err)
		}
		defer raw.Close()
		wc := wire.NewConn(raw)
		name := []string{"d0", "d1"}[i]
		if err := wc.Send(wire.NewMessage("REGISTER").Set("daemon", name).Set("host", name+"-host")); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		ts := wire.TelemetrySample{Kind: wire.KindCounter, Name: "app.ops", Value: val}
		m, err := ts.Message()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := wc.Send(m); err != nil {
			t.Fatalf("tsample %s: %v", name, err)
		}
		go func() { wc.Recv() }() // drain the multicast RUN
	}

	// Attribute-space server (the CASS of the deployment) exposes the
	// node's rolled-up subtree through STATS scope=tree.
	srv := attrspace.NewServer()
	srv.SetTelemetry(telemetry.NewRegistry(), telemetry.NewTracer("cassd"))
	srv.SetStatsChildren(func() []telemetry.Snapshot {
		return []telemetry.Snapshot{node.TreeSnapshot()}
	})
	cassAddr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	// The monitoring client (tdptop's poll loop) sees one merged pool
	// snapshot: the daemons' streams and the tree's own topology
	// streams next to the CASS's registry.
	c, err := attrspace.Dial(nil, cassAddr, "default")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, snap, err := c.ServerStats(context.Background(), "tree")
		if err != nil {
			t.Fatalf("ServerStatsScope: %v", err)
		}
		if snap.Counters["app.ops"] == 12 && snap.Counters["mrnet.tree.daemons"] == 2 {
			if snap.Counters["attrspace.ops.stats"] == 0 {
				t.Errorf("pool snapshot lost the CASS's own registry: %v", snap.Counters)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool snapshot never converged: %v", snap.Counters)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The same streams reached the front-end via the reduction uplink.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if fe.PoolSnapshot().Counters["app.ops"] == 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front-end pool snapshot never converged: %v", fe.PoolSnapshot().Counters)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
