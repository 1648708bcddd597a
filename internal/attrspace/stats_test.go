package attrspace

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"tdp/internal/proxy"
	"tdp/internal/telemetry"
)

// TestStatsRoundTrip exercises the STATS verb over a real TCP
// connection: after a handful of operations the snapshot must show
// non-zero per-verb counters, populated latency histograms, and the
// wire byte counters.
func TestStatsRoundTrip(t *testing.T) {
	srv, addr := startServer(t)
	srv.SetTelemetry(nil, telemetry.NewTracer("lass-under-test"))
	c := dialT(t, addr, "job")

	if err := c.Put("pid", "1234"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, _, err := c.TryGetAt(context.Background(), Local, "pid"); err != nil {
		t.Fatalf("TryGet: %v", err)
	}
	if _, _, err := c.GetAt(context.Background(), Local, "pid"); err != nil {
		t.Fatalf("Get: %v", err)
	}

	daemon, snap, err := c.ServerStats(context.Background(), "")
	if err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
	if daemon != "lass-under-test" {
		t.Errorf("daemon = %q", daemon)
	}
	for _, counter := range []string{
		"attrspace.ops.hello", "attrspace.ops.put",
		"attrspace.ops.tryget", "attrspace.ops.get",
		"wire.rx.bytes", "wire.tx.bytes",
	} {
		if snap.Counters[counter] == 0 {
			t.Errorf("counter %s = 0, want non-zero (snapshot %v)", counter, snap.Counters)
		}
	}
	h, ok := snap.Histograms["attrspace.latency.put"]
	if !ok || h.Count == 0 {
		t.Fatalf("put latency histogram empty: %+v", snap.Histograms)
	}
	if q := h.Quantile(0.99); q <= 0 {
		t.Errorf("p99 put latency = %g, want > 0", q)
	}

	// STATS itself counts: a second call sees the first.
	_, snap2, err := c.ServerStats(context.Background(), "")
	if err != nil {
		t.Fatalf("second ServerStats: %v", err)
	}
	if snap2.Counters["attrspace.ops.stats"] < 1 {
		t.Errorf("ops.stats = %d, want >= 1", snap2.Counters["attrspace.ops.stats"])
	}
}

// TestStatsScopeTree: with SetStatsChildren installed, STATS
// scope=tree merges child snapshots into the daemon's own — counters
// sum, gauges max, histograms merge — while plain STATS stays local.
func TestStatsScopeTree(t *testing.T) {
	srv, addr := startServer(t)
	srv.SetTelemetry(nil, telemetry.NewTracer("cass-root"))

	childHist := telemetry.NewHistogram([]float64{1, 10})
	childHist.Observe(5)
	srv.SetStatsChildren(func() []telemetry.Snapshot {
		return []telemetry.Snapshot{
			{
				Counters: map[string]int64{"paradyn.samples.sent": 40},
				Gauges:   map[string]int64{"mrnet.tree.depth": 3},
			},
			{
				Counters:   map[string]int64{"paradyn.samples.sent": 2},
				Gauges:     map[string]int64{"mrnet.tree.depth": 7},
				Histograms: map[string]telemetry.HistogramSnapshot{"lat": childHist.Snapshot()},
			},
		}
	})

	c := dialT(t, addr, "job")
	if err := c.Put("pid", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}

	daemon, tree, err := c.ServerStats(context.Background(), "tree")
	if err != nil {
		t.Fatalf("ServerStatsScope: %v", err)
	}
	if daemon != "cass-root" {
		t.Errorf("daemon = %q", daemon)
	}
	if got := tree.Counters["paradyn.samples.sent"]; got != 42 {
		t.Errorf("tree counter = %d, want 42 (children summed)", got)
	}
	if got := tree.Gauges["mrnet.tree.depth"]; got != 7 {
		t.Errorf("tree gauge = %d, want 7 (max across children)", got)
	}
	if h := tree.Histograms["lat"]; h.Count != 1 {
		t.Errorf("tree hist = %+v, want the child's observation", h)
	}
	// The daemon's own registry is in there too.
	if tree.Counters["attrspace.ops.put"] == 0 {
		t.Error("tree snapshot lost the daemon's own counters")
	}

	// Plain STATS is unaffected by the installed children.
	_, own, err := c.ServerStats(context.Background(), "")
	if err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
	if _, ok := own.Counters["paradyn.samples.sent"]; ok {
		t.Error("plain STATS merged children")
	}

	// Uninstall: scope=tree degrades to the local snapshot.
	srv.SetStatsChildren(nil)
	_, local, err := c.ServerStats(context.Background(), "tree")
	if err != nil {
		t.Fatalf("ServerStatsScope after uninstall: %v", err)
	}
	if _, ok := local.Counters["paradyn.samples.sent"]; ok {
		t.Error("uninstalled children still merged")
	}
}

// TestStatsNeedsNoHello: a monitoring client may probe a server
// without joining any context (and without bumping refcounts).
func TestStatsNeedsNoHello(t *testing.T) {
	srv, addr := startServer(t)
	_ = srv
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	c := newClient(raw)
	defer c.Close()
	if _, _, err := c.ServerStats(context.Background(), ""); err != nil {
		t.Fatalf("STATS without HELLO: %v", err)
	}
}

// TestTracePropagationTwoHop reproduces the acceptance scenario: a
// front-end issues one traced operation that touches the CASS
// directly and the LASS through the RM's CONNECT proxy. Both daemons
// must log spans under the same trace ID — the proxy forwards the
// reserved _tid/_sid fields untouched because it splices bytes.
func TestTracePropagationTwoHop(t *testing.T) {
	// CASS beside the front-end.
	cass, cassAddr := startServer(t)
	cass.SetTelemetry(nil, telemetry.NewTracer("cassd"))
	// LASS on the "execution host".
	lass, lassAddr := startServer(t)
	lass.SetTelemetry(nil, telemetry.NewTracer("lassd"))

	// The RM's dynamic CONNECT proxy in front of the LASS.
	px := proxy.NewServer(func(addr string) (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, nil)
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	go px.Serve(pl)
	defer px.Close()
	proxyAddr := pl.Addr().String()

	// Front-end clients: direct to the CASS, proxied to the LASS.
	feTracer := telemetry.NewTracer("frontend")
	cassClient := dialT(t, cassAddr, "job")
	cassClient.SetTelemetry(telemetry.NewRegistry(), feTracer)
	lassClient, err := Dial(func(string) (net.Conn, error) {
		return proxy.DialVia(func(a string) (net.Conn, error) { return net.Dial("tcp", a) }, proxyAddr, lassAddr)
	}, lassAddr, "job")
	if err != nil {
		t.Fatalf("Dial via proxy: %v", err)
	}
	defer lassClient.Close()
	lassClient.SetTelemetry(telemetry.NewRegistry(), feTracer)

	// One logical front-end operation spanning both daemons.
	op := feTracer.StartSpan("frontend.put")
	ctx := telemetry.NewContext(context.Background(), op)
	if _, err := cassClient.PutAt(ctx, Local, "frontend_addr", "1.2.3.4:2090"); err != nil {
		t.Fatalf("Put to CASS: %v", err)
	}
	if _, err := lassClient.PutAt(ctx, Local, "pid", "77"); err != nil {
		t.Fatalf("Put to LASS via proxy: %v", err)
	}
	op.End()
	tid := op.TraceID()

	// A server ends its span after it has written the reply, so the
	// reply can get here first.
	waitFor(t, func() bool {
		return len(cass.Tracer().SpansForTrace(tid)) > 0 && len(lass.Tracer().SpansForTrace(tid)) > 0
	})
	cassSpans := cass.Tracer().SpansForTrace(tid)
	lassSpans := lass.Tracer().SpansForTrace(tid)
	if len(cassSpans) != 1 || len(lassSpans) != 1 {
		t.Fatalf("spans for trace %s: cass=%d lass=%d, want 1 each\ncass log: %v\nlass log: %v",
			tid, len(cassSpans), len(lassSpans), cass.Tracer().Spans(), lass.Tracer().Spans())
	}
	if cassSpans[0].Actor != "cassd" || lassSpans[0].Actor != "lassd" {
		t.Errorf("actors = %q, %q", cassSpans[0].Actor, lassSpans[0].Actor)
	}
	if !strings.HasPrefix(cassSpans[0].Name, "attrspace.put") || lassSpans[0].Fields["attr"] != "pid" {
		t.Errorf("span details wrong: %+v / %+v", cassSpans[0], lassSpans[0])
	}
	// The server spans' parents are the per-call client spans, which
	// share the front-end root as their ancestor via the trace ID; the
	// front-end span log holds root + the two client call spans.
	if got := len(feTracer.SpansForTrace(tid)); got != 3 {
		t.Errorf("front-end spans = %d, want 3 (root + 2 client calls)", got)
	}
	for _, rec := range []telemetry.SpanRecord{cassSpans[0], lassSpans[0]} {
		if rec.ParentID == "" {
			t.Errorf("server span has no parent: %+v", rec)
		}
	}
}

// TestUntracedRequestsRecordNoSpans: without _tid on the wire the
// server span log stays empty — tracing is strictly opt-in per
// operation.
func TestUntracedRequestsRecordNoSpans(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr, "job")
	if err := c.Put("a", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if n := srv.Tracer().Len(); n != 0 {
		t.Errorf("span log has %d spans, want 0: %v", n, srv.Tracer().Spans())
	}
}

// TestMonitorPublisher: the server self-publishes registry metrics as
// tdp.monitor.* attributes so tools can observe it with a plain Get.
func TestMonitorPublisher(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr, "job")
	if err := c.Put("pid", "9"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	stop := srv.StartMonitorPublisher("job", "lass", 10*time.Millisecond)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, _, err := c.GetAt(ctx, Local, telemetry.MonitorPrefix+"lass.attrspace.ops.put")
	if err != nil {
		t.Fatalf("Get monitor attribute: %v", err)
	}
	if v == "0" || v == "" {
		t.Errorf("published put counter = %q, want non-zero", v)
	}
	// Histogram quantiles publish too.
	if _, _, err := c.GetAt(ctx, Local, telemetry.MonitorPrefix+"lass.attrspace.latency.put.p99"); err != nil {
		t.Fatalf("Get monitor p99: %v", err)
	}
}
