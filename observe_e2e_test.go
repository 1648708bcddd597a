package tdp_test

// End-to-end test of the observability plane (DESIGN.md §11): daemons
// answer telemetry polls through an mrnet reduction node, the node's
// rolled-up subtree is exposed through an attribute-space server's
// `STATS scope=tree`, a monitoring client (what tdptop drives) reads
// one merged snapshot of the pool, and the paradyn front-end reads the
// same rollup by polling the node over its uplink.

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
	// Front-end: ingests SAMPLEs and polls its registrant (the node).
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

	// Two daemons count, and answer the node's polls from their
	// registries.
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
		reg := telemetry.NewRegistry()
		reg.Counter("app.ops").Add(val)
		go func() {
			for {
				m, err := wc.Recv()
				if err != nil {
					return
				}
				if m.Verb == "STATS" {
					wc.Send(paradyn.StatsReply(m, name, reg.Snapshot()))
				}
			}
		}()
	}
	if err := fe.WaitDaemons(1, 5*time.Second); err != nil {
		t.Fatal(err)
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
	// snapshot: the daemons' counters and the tree's own topology next
	// to the CASS's registry.
	c, err := attrspace.Dial(nil, cassAddr, "default")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	_, snap, err := c.ServerStats(context.Background(), "tree")
	if err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
	if snap.Counters["app.ops"] != 12 || snap.Counters["mrnet.tree.daemons"] != 2 {
		t.Errorf("pool snapshot = %v, want app.ops 12 over 2 daemons", snap.Counters)
	}
	if snap.Counters["attrspace.ops.stats"] == 0 {
		t.Errorf("pool snapshot lost the CASS's own registry: %v", snap.Counters)
	}

	// The front-end's poll of its one registrant reads the same rollup.
	pool := fe.PoolSnapshot()
	if pool.Counters["app.ops"] != 12 || pool.Counters["mrnet.tree.daemons"] != 2 {
		t.Fatalf("front-end pool snapshot = %v", pool.Counters)
	}
}
