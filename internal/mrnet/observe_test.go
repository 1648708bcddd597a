package mrnet

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/netsim"
	"tdp/internal/proxy"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// testSink is a minimal front-end stand-in: it accepts connections,
// answers every REGISTER with RUN, and counts every message it
// receives — the "front-end socket loop" whose rate the reduction
// tree must keep independent of daemon count.
type testSink struct {
	l     net.Listener
	msgs  atomic.Int64
	conns atomic.Int64

	mu    sync.Mutex
	verbs map[string]int
}

func newTestSink(t *testing.T) *testSink {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &testSink{l: l, verbs: make(map[string]int)}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			go func() {
				wc := wire.NewConn(c)
				defer c.Close()
				for {
					m, err := wc.Recv()
					if err != nil {
						return
					}
					s.msgs.Add(1)
					s.mu.Lock()
					s.verbs[m.Verb]++
					s.mu.Unlock()
					if m.Verb == "REGISTER" {
						wc.Send(wire.NewMessage("RUN"))
					}
				}
			}()
		}
	}()
	return s
}

func (s *testSink) addr() string { return s.l.Addr().String() }

func (s *testSink) verbCount(verb string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verbs[verb]
}

// registerDaemon dials addr and registers under name. It does not
// wait for RUN — with ExpectedChildren gating the upstream dial, RUN
// only flows once the last sibling registers — so callers that need
// it use awaitRun after registering everyone.
func registerDaemon(t *testing.T, addr, name, host string) *wire.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("%s: dial: %v", name, err)
	}
	wc := wire.NewConn(raw)
	if err := wc.Send(wire.NewMessage("REGISTER").
		Set("daemon", name).Set("host", host).SetInt("pid", 1)); err != nil {
		t.Fatalf("%s: register: %v", name, err)
	}
	return wc
}

func awaitRun(t *testing.T, wc *wire.Conn) {
	t.Helper()
	if m, err := wc.Recv(); err != nil || m.Verb != "RUN" {
		t.Fatalf("expected RUN, got %v, %v", m, err)
	}
}

func sendTSample(t *testing.T, wc *wire.Conn, ts wire.TelemetrySample) {
	t.Helper()
	m, err := ts.Message()
	if err != nil {
		t.Fatalf("tsample encode: %v", err)
	}
	if err := wc.Send(m); err != nil {
		t.Fatalf("tsample send: %v", err)
	}
}

// TestRegisterErrorFrames: malformed or duplicate registrations get an
// explicit ERROR reply, never a silent drop; resume replaces.
func TestRegisterErrorFrames(t *testing.T) {
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	node, err := NewNode(Config{
		Name: "agg", Listener: l, ParentAddr: "127.0.0.1:1",
		ExpectedChildren: 100, FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	expectError := func(m *wire.Message, fragment string) {
		t.Helper()
		raw, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer raw.Close()
		wc := wire.NewConn(raw)
		if err := wc.Send(m); err != nil {
			t.Fatalf("send: %v", err)
		}
		reply, err := wc.Recv()
		if err != nil {
			t.Fatalf("no ERROR reply for %s (connection dropped silently): %v", m.Verb, err)
		}
		if reply.Verb != "ERROR" || !strings.Contains(reply.Get("error"), fragment) {
			t.Fatalf("reply = %s %q, want ERROR containing %q", reply.Verb, reply.Get("error"), fragment)
		}
	}

	expectError(wire.NewMessage("PUT").Set("name", "x"), "expected REGISTER")
	expectError(wire.NewMessage("REGISTER").Set("host", "h"), "without daemon name")

	// A valid registration, then a duplicate of it.
	raw, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	first := wire.NewConn(raw)
	if err := first.Send(wire.NewMessage("REGISTER").Set("daemon", "d0").Set("host", "h")); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Sent is not registered: the duplicate must not overtake it, or it
	// is the one accepted and no ERROR ever comes.
	for deadline := time.Now().Add(5 * time.Second); node.ChildCount() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("first registration never landed")
		}
	}
	expectError(wire.NewMessage("REGISTER").Set("daemon", "d0").Set("host", "h"), "duplicate")

	// resume=1 replaces the live registration: accepted, and the old
	// connection is closed by the node.
	raw2, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw2.Close()
	second := wire.NewConn(raw2)
	if err := second.Send(wire.NewMessage("REGISTER").
		Set("daemon", "d0").Set("host", "h").Set("resume", "1")); err != nil {
		t.Fatalf("resume register: %v", err)
	}
	done := make(chan struct{})
	go func() { first.Recv(); close(done) }()
	select {
	case <-done: // old conn closed — resume accepted
	case <-time.After(2 * time.Second):
		t.Fatal("resume registration did not replace the old connection")
	}
	if node.ChildCount() != 1 {
		t.Errorf("ChildCount = %d, want 1 after resume", node.ChildCount())
	}
}

// TestStatsScopeTreeOverWire: a connection that opens with STATS is a
// monitoring client; scope=tree returns the merged subtree rollup in
// the same STATSV shape the attrspace servers use.
func TestStatsScopeTreeOverWire(t *testing.T) {
	sink := newTestSink(t)
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	node, err := NewNode(Config{
		Name: "agg", Listener: l, ParentAddr: sink.addr(),
		ExpectedChildren: 2, FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	d0 := registerDaemon(t, node.Addr(), "d0", "h0")
	defer d0.Close()
	d1 := registerDaemon(t, node.Addr(), "d1", "h1")
	defer d1.Close()
	awaitRun(t, d0)
	awaitRun(t, d1)
	sendTSample(t, d0, wire.TelemetrySample{Kind: wire.KindCounter, Name: "app.ops", Value: 30})
	sendTSample(t, d1, wire.TelemetrySample{Kind: wire.KindCounter, Name: "app.ops", Value: 12})
	sendTSample(t, d1, wire.TelemetrySample{Kind: wire.KindGaugeMax, Name: "app.depth", Value: 9})

	waitFor(t, 5*time.Second, func() bool {
		return node.Registry().Counter("mrnet.stream.updates").Value() == 3
	}, "stream updates absorbed")

	raw, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	if err := wc.Send(wire.NewMessage("STATS").Set("id", "7").Set("scope", "tree")); err != nil {
		t.Fatalf("STATS: %v", err)
	}
	reply, err := wc.Recv()
	if err != nil {
		t.Fatalf("STATSV: %v", err)
	}
	if reply.Verb != "STATSV" || reply.Get("id") != "7" || reply.Get("daemon") != "agg" {
		t.Fatalf("reply = %v", reply)
	}
	snap, err := telemetry.ParseSnapshot([]byte(reply.Get("json")))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if snap.Counters["app.ops"] != 42 {
		t.Errorf("app.ops = %d, want 42 (30+12)", snap.Counters["app.ops"])
	}
	if snap.Gauges["app.depth"] != 9 {
		t.Errorf("app.depth = %d, want 9", snap.Gauges["app.depth"])
	}
	if snap.Counters["mrnet.tree.daemons"] != 2 {
		t.Errorf("mrnet.tree.daemons = %d, want 2", snap.Counters["mrnet.tree.daemons"])
	}

	// The same connection can poll repeatedly.
	if err := wc.Send(wire.NewMessage("STATS").Set("scope", "tree")); err != nil {
		t.Fatalf("second STATS: %v", err)
	}
	if reply, err = wc.Recv(); err != nil || reply.Verb != "STATSV" {
		t.Fatalf("second STATSV: %v %v", reply, err)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFanIn256ThreeLevel is the scaling acceptance test: 256 daemons
// under a 3-level reduction tree deliver aggregated counter and
// histogram streams, and the front-end receives fewer messages than
// there are daemons — its socket-loop rate depends on the number of
// distinct streams, not the pool size.
func TestFanIn256ThreeLevel(t *testing.T) {
	const (
		daemons = 256
		rounds  = 4
		perOps  = 25 // cumulative step; final per-daemon value rounds*perOps
	)
	sink := newTestSink(t)
	tree, err := BuildReductionTree(TreeConfig{
		ParentAddr: sink.addr(),
		Daemons:    daemons,
		FanOut:     8,
		Levels:     3,
		// Flushes are driven manually below, so the sink's message
		// count is a function of flush rounds alone.
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("BuildReductionTree: %v", err)
	}
	defer tree.Close()
	if got := len(tree.LeafAddrs()); got != 32 {
		t.Fatalf("leaves = %d, want 32", got)
	}
	if got := len(tree.Nodes()); got != 37 { // 32 + 4 + 1
		t.Fatalf("nodes = %d, want 37", got)
	}

	var (
		connMu sync.Mutex
		conns  []*wire.Conn
	)
	t.Cleanup(func() {
		connMu.Lock()
		defer connMu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	var wg sync.WaitGroup
	leafAddrs := tree.LeafAddrs()
	errs := make(chan error, daemons)
	for i := 0; i < daemons; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := net.Dial("tcp", leafAddrs[i%len(leafAddrs)])
			if err != nil {
				errs <- fmt.Errorf("d%d: dial: %v", i, err)
				return
			}
			wc := wire.NewConn(raw)
			connMu.Lock()
			conns = append(conns, wc)
			connMu.Unlock()
			if err := wc.Send(wire.NewMessage("REGISTER").
				Set("daemon", fmt.Sprintf("d%d", i)).
				Set("host", fmt.Sprintf("h%d", i%16)).
				SetInt("pid", i)); err != nil {
				errs <- fmt.Errorf("d%d: register: %v", i, err)
				return
			}
			if m, err := wc.Recv(); err != nil || m.Verb != "RUN" {
				errs <- fmt.Errorf("d%d: expected RUN, got %v, %v", i, m, err)
				return
			}
			// Cumulative counter stream plus one histogram publication.
			for k := 1; k <= rounds; k++ {
				m, _ := wire.TelemetrySample{
					Kind: wire.KindCounter, Name: "app.ops", Value: int64(k * perOps),
				}.Message()
				if err := wc.Send(m); err != nil {
					errs <- fmt.Errorf("d%d: tsample: %v", i, err)
					return
				}
			}
			h := telemetry.NewHistogram([]float64{1, 10, 100})
			h.Observe(float64(i % 20))
			m, _ := wire.TelemetrySample{Kind: wire.KindHist, Name: "app.lat", Hist: h.Snapshot()}.Message()
			if err := wc.Send(m); err != nil {
				errs <- fmt.Errorf("d%d: hist: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every leaf absorbed its share: 8 daemons x (rounds counter
	// publications + 1 histogram).
	for _, leaf := range tree.Nodes()[5:] {
		waitFor(t, 10*time.Second, func() bool {
			return leaf.Registry().Counter("mrnet.stream.updates").Value() == 8*(rounds+1)
		}, fmt.Sprintf("leaf absorption (node %s)", leaf.cfg.Name))
	}

	// Drive flushes bottom-up until the root rollup converges.
	nodes := tree.Nodes() // root first; iterate in reverse for bottom-up
	var snap telemetry.Snapshot
	waitFor(t, 10*time.Second, func() bool {
		for i := len(nodes) - 1; i >= 0; i-- {
			nodes[i].flush()
		}
		snap = tree.Root().TreeSnapshot()
		return snap.Counters["app.ops"] == daemons*rounds*perOps &&
			snap.Histograms["app.lat"].Count == daemons
	}, "root rollup convergence")

	if got := snap.Counters["mrnet.tree.daemons"]; got != daemons {
		t.Errorf("mrnet.tree.daemons = %d, want %d", got, daemons)
	}
	if got := snap.Gauges["mrnet.tree.depth"]; got != 3 {
		t.Errorf("mrnet.tree.depth = %d, want 3", got)
	}
	if snap.Counters["mrnet.stream.updates"] == 0 {
		t.Error("aggregated rollup missing the nodes' own stream metrics")
	}

	// The root's rollup converging says the root has absorbed
	// everything, not that it has flushed since or that the front-end
	// has read the flush: drive the root until a TSAMPLE has arrived.
	waitFor(t, 5*time.Second, func() bool {
		tree.Root().flush()
		return sink.verbCount("TSAMPLE") > 0
	}, "a TSAMPLE at the front-end")

	// The front-end held one connection and received fewer messages
	// than there are daemons, though the daemons injected >1500: the
	// uplink rate tracks distinct streams, not pool size.
	if got := sink.conns.Load(); got != 1 {
		t.Errorf("front-end connections = %d, want 1", got)
	}
	if got := sink.msgs.Load(); got >= daemons {
		t.Errorf("front-end received %d messages for %d daemons; aggregation should keep this below one per daemon", got, daemons)
	}
}

// TestChaosSpanPropagation drives traced telemetry through a 2-level
// tree while a chaos dialer cuts connections on every hop. Daemons
// and nodes reconnect with resume semantics; afterwards every span's
// parent must resolve (no orphaned spans) and the aggregated counter
// and lost totals observed at the root must be monotone.
func TestChaosSpanPropagation(t *testing.T) {
	const (
		nDaemons = 8
		rounds   = 120
		step     = 10
	)
	sink := newTestSink(t)
	treeChaos := netsim.NewChaos(netsim.ChaosConfig{Seed: 7, CutAfterBytes: 64 << 10})
	tree, err := BuildReductionTree(TreeConfig{
		ParentAddr:    sink.addr(),
		Daemons:       nDaemons,
		FanOut:        4,
		Levels:        2,
		FlushInterval: 2 * time.Millisecond,
		Dial:          treeChaos.Dial(func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }),
	})
	if err != nil {
		t.Fatalf("BuildReductionTree: %v", err)
	}
	defer tree.Close()

	daemonChaos := netsim.NewChaos(netsim.ChaosConfig{Seed: 11, CutAfterBytes: 4 << 10})
	dial := daemonChaos.Dial(func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) })

	tracers := make([]*telemetry.Tracer, nDaemons)
	leafAddrs := tree.LeafAddrs()
	var wg sync.WaitGroup
	for i := 0; i < nDaemons; i++ {
		tracers[i] = telemetry.NewTracer(fmt.Sprintf("d%d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("d%d", i)
			addr := leafAddrs[i%len(leafAddrs)]
			var wc *wire.Conn
			connect := func(resume bool) bool {
				for a := 0; a < 200; a++ {
					raw, err := dial(addr)
					if err != nil {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					c := wire.NewConn(raw)
					reg := wire.NewMessage("REGISTER").Set("daemon", name).Set("host", "h").SetInt("pid", i)
					if resume {
						reg.Set("resume", "1")
					}
					if c.Send(reg) != nil {
						c.Close()
						continue
					}
					if !resume {
						if m, err := c.Recv(); err != nil || m.Verb != "RUN" {
							c.Close()
							continue
						}
					}
					wc = c
					return true
				}
				return false
			}
			if !connect(false) {
				t.Errorf("%s: never connected", name)
				return
			}
			defer func() { wc.Close() }()
			for k := 1; k <= rounds; {
				sp := tracers[i].StartSpan("publish")
				m, _ := wire.TelemetrySample{
					Kind: wire.KindCounter, Name: "chaos.ops", Value: int64(k * step),
				}.Message()
				m.SetTrace(sp.TraceID(), sp.SpanID())
				err := wc.Send(m)
				sp.End()
				if err != nil {
					wc.Close()
					if !connect(true) {
						t.Errorf("%s: reconnect failed", name)
						return
					}
					continue // re-send the same cumulative value
				}
				k++
				time.Sleep(time.Millisecond)
			}
		}(i)
	}

	// While daemons publish, watch the root rollup: cumulative streams
	// must never run backwards, reconnects and retires included.
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	var monErr error
	go func() {
		defer monWG.Done()
		var lastOps, lastLost int64
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			snap := tree.Root().TreeSnapshot()
			ops := snap.Counters["chaos.ops"]
			lost := snap.Counters["mrnet.stream.lost"]
			if ops < lastOps && monErr == nil {
				monErr = fmt.Errorf("chaos.ops ran backwards: %d -> %d", lastOps, ops)
			}
			if lost < lastLost && monErr == nil {
				monErr = fmt.Errorf("mrnet.stream.lost ran backwards: %d -> %d", lastLost, lost)
			}
			lastOps, lastLost = ops, lost
		}
	}()

	// A couple of mass cuts mid-run for good measure.
	time.Sleep(50 * time.Millisecond)
	daemonChaos.CutAll()
	time.Sleep(50 * time.Millisecond)
	treeChaos.CutAll()

	wg.Wait()
	want := int64(nDaemons * rounds * step)
	waitFor(t, 15*time.Second, func() bool {
		return tree.Root().TreeSnapshot().Counters["chaos.ops"] == want
	}, "chaos rollup convergence")
	close(stop)
	monWG.Wait()
	if monErr != nil {
		t.Error(monErr)
	}

	// Span closure: every recorded span's parent resolves somewhere in
	// the union of daemon and node span logs.
	all := make(map[string]struct{})
	var records []telemetry.SpanRecord
	collect := func(tr *telemetry.Tracer) {
		for _, rec := range tr.Spans() {
			all[rec.SpanID] = struct{}{}
			records = append(records, rec)
		}
	}
	for _, tr := range tracers {
		collect(tr)
	}
	for _, n := range tree.Nodes() {
		collect(n.Tracer())
	}
	orphans := 0
	for _, rec := range records {
		if rec.ParentID == "" {
			continue
		}
		if _, ok := all[rec.ParentID]; !ok {
			orphans++
		}
	}
	if orphans > 0 {
		t.Errorf("%d orphaned spans (parent not recorded anywhere)", orphans)
	}
	rootSpans := tree.Root().Tracer().Spans()
	if len(rootSpans) == 0 {
		t.Error("no spans recorded at the root: trace context did not propagate through the tree")
	}
	if daemonChaos.Stats().Cuts == 0 {
		t.Error("chaos injector never cut a daemon connection; test exercised nothing")
	}
}

// TestTreeViaProxy routes every parent-ward hop through the CONNECT
// proxy, the way internal nodes behind a head node would reach the
// front-end (§2.4).
func TestTreeViaProxy(t *testing.T) {
	sink := newTestSink(t)

	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ps := newProxyServer(t, proxyLn)

	tree, err := BuildReductionTree(TreeConfig{
		ParentAddr:    sink.addr(),
		Daemons:       2,
		FanOut:        2,
		Levels:        2,
		ProxyAddr:     proxyLn.Addr().String(),
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("BuildReductionTree: %v", err)
	}
	defer tree.Close()

	d0 := registerDaemon(t, tree.LeafAddrs()[0], "d0", "h0")
	defer d0.Close()
	d1 := registerDaemon(t, tree.LeafAddrs()[0], "d1", "h1")
	defer d1.Close()
	awaitRun(t, d0)
	awaitRun(t, d1)
	sendTSample(t, d0, wire.TelemetrySample{Kind: wire.KindCounter, Name: "app.ops", Value: 5})
	sendTSample(t, d1, wire.TelemetrySample{Kind: wire.KindCounter, Name: "app.ops", Value: 7})

	waitFor(t, 10*time.Second, func() bool {
		return tree.Root().TreeSnapshot().Counters["app.ops"] == 12
	}, "rollup through the proxy")
	waitFor(t, 10*time.Second, func() bool {
		return sink.verbCount("TSAMPLE") > 0
	}, "TSAMPLE at the front-end via proxy")
	tunnels, _ := ps.Stats()
	if tunnels < 2 { // leaf->root and root->front-end
		t.Errorf("proxy tunnels = %d, want >= 2", tunnels)
	}
}

func newProxyServer(t *testing.T, l net.Listener) *proxy.Server {
	t.Helper()
	ps := proxy.NewServer(func(addr string) (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, nil)
	go ps.Serve(l)
	t.Cleanup(ps.Close)
	return ps
}
