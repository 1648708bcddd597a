package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/mrnet"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// TestStatsPollsAnMRNetNode: `tdpattr -scope tree stats` against an
// mrnet node, which takes STATS or REGISTER as a connection's first
// message and nothing else, prints the node's rollup.
func TestStatsPollsAnMRNetNode(t *testing.T) {
	// The node's parent: a front-end that takes its REGISTER and nothing
	// more.
	fe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	go func() {
		for {
			c, err := fe.Accept()
			if err != nil {
				return
			}
			go wire.NewConn(c).Recv()
		}
	}()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	reg.Counter("app.ops").Add(7)
	node, err := mrnet.NewNode(mrnet.Config{Name: "mrnet-leaf", Listener: l, ParentAddr: fe.Addr().String(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	var b strings.Builder
	if err := stats(&b, node.Addr(), "tree", 5*time.Second); err != nil {
		t.Fatalf("stats: %v", err)
	}
	out := b.String()
	for _, want := range []string{"# daemon mrnet-leaf", "app.ops", "mrnet.tree.depth"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

// TestStatsJoinsNoContext: against a CASS shard that does not own the
// context "default", stats still answers, and the space it polled has
// no context afterwards.
func TestStatsJoinsNoContext(t *testing.T) {
	space := attr.NewSpace()
	srv := attrspace.NewServerWithSpace(space)
	if err := srv.SetShard(1, 2); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if c, err := attrspace.Dial(nil, addr, "default"); err == nil {
		c.Close()
		t.Fatal("the shard accepted HELLO for default; the test needs one that refuses it")
	}

	var b strings.Builder
	if err := stats(&b, addr, "", 5*time.Second); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(b.String(), "attrspace.ops.stats") {
		t.Errorf("stats output has no attrspace.ops.stats:\n%s", b.String())
	}
	if ctxs := space.Contexts(); len(ctxs) != 0 {
		t.Errorf("polling created contexts %v", ctxs)
	}
}
