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
	"tdp/internal/paradyn"
	"tdp/internal/proxy"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// testSink is a minimal front-end stand-in: it accepts connections,
// answers every REGISTER with RUN, counts every message it receives —
// the "front-end socket loop" whose rate the reduction tree must keep
// independent of daemon count — and polls the tree through the latest
// connection, as the front-end does.
type testSink struct {
	l     net.Listener
	msgs  atomic.Int64
	conns atomic.Int64

	mu      sync.Mutex
	verbs   map[string]int
	root    *wire.Conn
	replies chan *wire.Message
}

func newTestSink(t *testing.T) *testSink {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	// replies holds STATSV frames until poll reads them; only poll asks,
	// one STATS at a time, so a handful of slots never fills.
	s := &testSink{l: l, verbs: make(map[string]int), replies: make(chan *wire.Message, 4)}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			wc := wire.NewConn(c)
			s.mu.Lock()
			s.root = wc
			s.mu.Unlock()
			go func() {
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
					switch m.Verb {
					case "REGISTER":
						wc.Send(wire.NewMessage("RUN"))
					case "STATSV":
						s.replies <- m
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

// poll sends STATS scope=tree up the root's connection and returns the
// rollup its STATSV carries.
func (s *testSink) poll(t *testing.T) telemetry.Snapshot {
	t.Helper()
	s.mu.Lock()
	root := s.root
	s.mu.Unlock()
	if root == nil {
		t.Fatal("poll: the root has not connected")
	}
	if err := root.Send(wire.NewMessage("STATS").Set("scope", "tree")); err != nil {
		t.Fatalf("poll: %v", err)
	}
	select {
	case m := <-s.replies:
		snap, err := telemetry.ParseSnapshot([]byte(m.Get("json")))
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		return snap
	case <-time.After(10 * time.Second):
		t.Fatal("poll: no STATSV from the root")
		return telemetry.Snapshot{}
	}
}

// testDaemon is a registered daemon connection that answers every
// STATS from its own registry, as paradynd does. hang makes it stop
// reading (a hung daemon) until the returned release is called; its
// tracer records one span per traced poll it answers.
type testDaemon struct {
	wc     *wire.Conn
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	gate   atomic.Pointer[chan struct{}] // non-nil while hung
	run    chan struct{}                 // closed at the first RUN
}

func (d *testDaemon) hang() (release func()) {
	gate := make(chan struct{})
	d.gate.Store(&gate)
	return func() {
		d.gate.Store(nil)
		close(gate)
	}
}

// startDaemon registers name at addr (resume=1 when resume) and serves
// its polls from reg until the connection closes; nil reg makes one.
func startDaemon(t *testing.T, addr, name string, reg *telemetry.Registry, resume bool) *testDaemon {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("%s: dial: %v", name, err)
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	d := &testDaemon{wc: wire.NewConn(raw), reg: reg, tracer: telemetry.NewTracer(name), run: make(chan struct{})}
	t.Cleanup(func() { raw.Close() })
	m := wire.NewMessage("REGISTER").Set("daemon", name).Set("host", name+"-host").SetInt("pid", 1)
	if resume {
		m.Set("resume", "1")
	}
	if err := d.wc.Send(m); err != nil {
		t.Fatalf("%s: register: %v", name, err)
	}
	go d.serve(name)
	return d
}

func (d *testDaemon) serve(name string) {
	var ran sync.Once
	for {
		m, err := d.wc.Recv()
		if err != nil {
			return
		}
		switch m.Verb {
		case "RUN":
			ran.Do(func() { close(d.run) })
		case "STATS":
			if gate := d.gate.Load(); gate != nil {
				<-*gate
			}
			if tid, sid := m.Trace(); tid != "" {
				d.tracer.StartChild("daemon.stats", tid, sid).End()
			}
			d.wc.Send(paradyn.StatsReply(m, name, d.reg.Snapshot()))
		}
	}
}

// awaitRun waits for the node's RUN, which flows only once the node's
// last expected sibling has registered.
func (d *testDaemon) awaitRun(t *testing.T) {
	t.Helper()
	select {
	case <-d.run:
	case <-time.After(5 * time.Second):
		t.Fatal("no RUN")
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
// monitoring client; scope=tree polls the children and returns the
// merged subtree rollup in the same STATSV shape the attrspace servers
// use.
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

	d0 := startDaemon(t, node.Addr(), "d0", nil, false)
	d1 := startDaemon(t, node.Addr(), "d1", nil, false)
	d0.awaitRun(t)
	d1.awaitRun(t)
	d0.reg.Counter("app.ops").Add(30)
	d1.reg.Counter("app.ops").Add(12)
	d1.reg.Gauge("app.depth").Set(9)

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

	// The same connection can poll repeatedly, and each poll reads the
	// daemons afresh.
	d0.reg.Counter("app.ops").Add(8)
	if err := wc.Send(wire.NewMessage("STATS").Set("scope", "tree")); err != nil {
		t.Fatalf("second STATS: %v", err)
	}
	if reply, err = wc.Recv(); err != nil || reply.Verb != "STATSV" {
		t.Fatalf("second STATSV: %v %v", reply, err)
	}
	if snap, _ = telemetry.ParseSnapshot([]byte(reply.Get("json"))); snap.Counters["app.ops"] != 50 {
		t.Errorf("second poll app.ops = %d, want 50", snap.Counters["app.ops"])
	}
	// The node's uplink answers the same poll: the front-end's view.
	if got := sink.poll(t).Counters["app.ops"]; got != 50 {
		t.Errorf("front-end poll app.ops = %d, want 50", got)
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
// under a 3-level reduction tree, each with a counter and a histogram,
// are read by front-end polls that each cost the front-end one reply —
// it receives fewer messages than there are daemons, however many
// polls it makes.
func TestFanIn256ThreeLevel(t *testing.T) {
	const (
		daemons = 256
		rounds  = 4
		perOps  = 25 // cumulative step; final per-daemon value rounds*perOps
	)
	sink := newTestSink(t)
	tree, err := BuildReductionTree(TreeConfig{
		ParentAddr:    sink.addr(),
		Daemons:       daemons,
		FanOut:        8,
		Levels:        3,
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

	leafAddrs := tree.LeafAddrs()
	ds := make([]*testDaemon, daemons)
	for i := range ds {
		ds[i] = startDaemon(t, leafAddrs[i%len(leafAddrs)], fmt.Sprintf("d%d", i), nil, false)
	}
	for i, d := range ds {
		d.awaitRun(t)
		h := d.reg.Histogram("app.lat", []float64{1, 10, 100})
		h.Observe(float64(i % 20))
	}

	// Every round advances each daemon's cumulative counter and is read
	// by one poll at the front-end.
	var snap telemetry.Snapshot
	for k := 1; k <= rounds; k++ {
		for _, d := range ds {
			d.reg.Counter("app.ops").Add(perOps)
		}
		snap = sink.poll(t)
		if got := snap.Counters["app.ops"]; got != int64(daemons*k*perOps) {
			t.Fatalf("round %d: app.ops = %d, want %d", k, got, daemons*k*perOps)
		}
	}
	if got := snap.Histograms["app.lat"].Count; got != daemons {
		t.Errorf("app.lat count = %d, want %d", got, daemons)
	}
	if got := snap.Counters["mrnet.tree.daemons"]; got != daemons {
		t.Errorf("mrnet.tree.daemons = %d, want %d", got, daemons)
	}
	if got := snap.Gauges["mrnet.tree.depth"]; got != 3 {
		t.Errorf("mrnet.tree.depth = %d, want 3", got)
	}
	if got := snap.Counters["mrnet.poll.stale"]; got != 0 {
		t.Errorf("mrnet.poll.stale = %d, want 0", got)
	}
	if snap.Counters["wire.rx.msgs"] == 0 {
		t.Error("aggregated rollup missing the nodes' own registries")
	}

	// The front-end held one connection and received fewer messages
	// than there are daemons: one reply per poll, not one per daemon.
	if got := sink.conns.Load(); got != 1 {
		t.Errorf("front-end connections = %d, want 1", got)
	}
	if got := sink.msgs.Load(); got >= daemons {
		t.Errorf("front-end received %d messages for %d daemons; aggregation should keep this below one per daemon", got, daemons)
	}
}

// TestChaosSpanPropagation polls a 2-level tree while a chaos dialer
// cuts connections on every hop. Daemons and nodes reconnect with
// resume semantics; afterwards every span's parent must resolve (no
// orphaned spans along mrnet.poll) and the aggregated counter and stale
// totals observed at the root must be monotone.
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

	// Each daemon counts on its own clock and answers polls from its
	// registry on whatever connection it has, reconnecting (resume) when
	// a cut kills it, until stop.
	stop := make(chan struct{})
	tracers := make([]*telemetry.Tracer, nDaemons)
	regs := make([]*telemetry.Registry, nDaemons)
	leafAddrs := tree.LeafAddrs()
	var wg sync.WaitGroup
	for i := 0; i < nDaemons; i++ {
		name := fmt.Sprintf("d%d", i)
		tracers[i] = telemetry.NewTracer(name)
		regs[i] = telemetry.NewRegistry()
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			ops := regs[i].Counter("chaos.ops")
			for k := 0; k < rounds; k++ {
				ops.Add(step)
				time.Sleep(time.Millisecond)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			addr := leafAddrs[i%len(leafAddrs)]
			for resume := false; ; resume = true {
				select {
				case <-stop:
					return
				default:
				}
				raw, err := dial(addr)
				if err != nil {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				wc := wire.NewConn(raw)
				reg := wire.NewMessage("REGISTER").Set("daemon", name).Set("host", "h").SetInt("pid", i)
				if resume {
					reg.Set("resume", "1")
				}
				go func() { <-stop; raw.Close() }()
				if wc.Send(reg) != nil {
					raw.Close()
					continue
				}
				for {
					m, err := wc.Recv()
					if err != nil {
						break
					}
					if m.Verb != "STATS" {
						continue
					}
					tid, sid := m.Trace()
					sp := tracers[i].StartChild("daemon.stats", tid, sid)
					err = wc.Send(paradyn.StatsReply(m, name, regs[i].Snapshot()))
					sp.End()
					if err != nil {
						break
					}
				}
				raw.Close()
			}
		}(i)
	}

	// While daemons count, poll the root: cumulative counters must never
	// run backwards, reconnects and retires included.
	var monWG sync.WaitGroup
	monWG.Add(1)
	var monErr error
	monStop := make(chan struct{})
	go func() {
		defer monWG.Done()
		var lastOps, lastStale int64
		for {
			select {
			case <-monStop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			snap := tree.Root().TreeSnapshot()
			ops := snap.Counters["chaos.ops"]
			stale := snap.Counters["mrnet.poll.stale"]
			if ops < lastOps && monErr == nil {
				monErr = fmt.Errorf("chaos.ops ran backwards: %d -> %d", lastOps, ops)
			}
			if stale < lastStale && monErr == nil {
				monErr = fmt.Errorf("mrnet.poll.stale ran backwards: %d -> %d", lastStale, stale)
			}
			lastOps, lastStale = ops, stale
		}
	}()

	// A couple of mass cuts mid-run for good measure.
	time.Sleep(50 * time.Millisecond)
	daemonChaos.CutAll()
	time.Sleep(50 * time.Millisecond)
	treeChaos.CutAll()

	want := int64(nDaemons * rounds * step)
	waitFor(t, 15*time.Second, func() bool {
		return tree.Root().TreeSnapshot().Counters["chaos.ops"] == want
	}, "chaos rollup convergence")
	close(monStop)
	monWG.Wait()
	close(stop)
	wg.Wait()
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
	orphans, hops := 0, 0
	for _, rec := range records {
		if rec.ParentID == "" {
			continue
		}
		hops++
		if _, ok := all[rec.ParentID]; !ok {
			orphans++
		}
	}
	if orphans > 0 {
		t.Errorf("%d orphaned spans (parent not recorded anywhere)", orphans)
	}
	if hops == 0 {
		t.Error("no child spans: the poll's trace context did not propagate down the tree")
	}
	if len(tree.Root().Tracer().Spans()) == 0 {
		t.Error("no mrnet.poll spans recorded at the root")
	}
	if daemonChaos.Stats().Cuts == 0 {
		t.Error("chaos injector never cut a daemon connection; test exercised nothing")
	}
}

// TestTreeViaProxy routes every parent-ward hop through the CONNECT
// proxy, the way internal nodes behind a head node would reach the
// front-end (§2.4); the front-end's poll travels down the same tunnels.
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

	d0 := startDaemon(t, tree.LeafAddrs()[0], "d0", nil, false)
	d1 := startDaemon(t, tree.LeafAddrs()[0], "d1", nil, false)
	d0.awaitRun(t)
	d1.awaitRun(t)
	d0.reg.Counter("app.ops").Add(5)
	d1.reg.Counter("app.ops").Add(7)

	if got := sink.poll(t).Counters["app.ops"]; got != 12 {
		t.Errorf("app.ops through the proxy = %d, want 12", got)
	}
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
