package main

import (
	"fmt"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/mrnet"
	"tdp/internal/paradyn"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// TestOnceAgainstMRNetRoot: `tdptop -once` against an mrnet root over
// TCP polls the tree and shows hosts, hosts down, tree depth and the
// daemons' counters.
func TestOnceAgainstMRNetRoot(t *testing.T) {
	// The root's parent: a front-end that only listens.
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
	root, err := mrnet.NewNode(mrnet.Config{Name: "mrnet-root", Listener: l, ParentAddr: fe.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	// Three daemons answer polls; one dies.
	conns := make([]net.Conn, 3)
	for i := range conns {
		raw, err := net.Dial("tcp", root.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		conns[i] = raw
		wc := wire.NewConn(raw)
		name := fmt.Sprintf("d%d", i)
		if err := wc.Send(wire.NewMessage("REGISTER").Set("daemon", name).Set("host", name)); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		reg.Counter("app.ops").Add(int64(10 * (i + 1)))
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
	deadline := time.Now().Add(5 * time.Second)
	for root.ChildCount() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	root.TreeSnapshot() // the last reply d2 gives before it dies
	conns[2].Close()
	for root.Registry().Counter("mrnet.hosts.down").Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	var b strings.Builder
	if err := top(&b, root.Addr(), "tree", 0, true, nil); err != nil {
		t.Fatalf("top: %v", err)
	}
	out := b.String()
	for _, want := range []string{"tdptop — mrnet-root", "hosts 2 (1 down)", "tree depth 1", "app.ops"} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// The dead daemon's last count stays in the rollup: 10 + 20 + 30.
	if !regexp.MustCompile(`app\.ops\s+60\s`).MatchString(out) {
		t.Errorf("frame missing app.ops 60:\n%s", out)
	}
}

// TestPollAttrspaceServerJoinsNoContext: the same poll against an
// attribute space server is a bare STATS before any HELLO, so it joins —
// and creates — no context.
func TestPollAttrspaceServerJoinsNoContext(t *testing.T) {
	space := attr.NewSpace()
	srv := attrspace.NewServerWithSpace(space)
	srv.SetTelemetry(telemetry.NewRegistry(), telemetry.NewTracer("cassd"))
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	for id := 1; id <= 2; id++ {
		daemon, snap, err := poll(wc, "tree", id)
		if err != nil {
			t.Fatalf("poll %d: %v", id, err)
		}
		if daemon != "cassd" || snap.Counters["attrspace.ops.stats"] == 0 {
			t.Errorf("poll %d: daemon %q, counters %v", id, daemon, snap.Counters)
		}
	}
	if ctxs := space.Contexts(); len(ctxs) != 0 {
		t.Errorf("polling created contexts %v", ctxs)
	}
}
