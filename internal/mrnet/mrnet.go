// Package mrnet implements a software multicast/reduction network for
// scalable tools — the auxiliary-service kind the paper requires the
// resource manager to be able to launch ("software multicast/reduction
// networks are crucial to scalable tool use", §2, citing MRNet). With
// hundreds of daemons, a front-end cannot hold one connection per
// daemon; a tree of internal nodes multicasts control downstream and
// reduces data upstream.
//
// A Node interposes transparently on the paradyn front-end protocol:
//
//   - downstream it acts like a front-end: accepts daemon REGISTER
//     messages, forwards the RUN command, receives SAMPLE/DONE;
//   - upstream it acts like a single daemon: registers itself as an
//     aggregate, forwards reduced samples, and reports DONE when every
//     child is done.
//
// Reduction sums per-function call counts and times across children —
// exactly the merge the front-end would do, moved into the tree.
// Nodes compose: a node's parent may be another node, forming trees of
// any fan-in and depth.
//
// Telemetry goes up the tree only when asked. A node answers `STATS
// scope=tree` on any connection, its uplink included, by sending STATS
// down to every live child and merging each child's last snapshot
// with its own registry and topology (live daemons under it, tree
// depth) — telemetry.MergeSnapshots, the same rollup a caching LASS
// does over its shards. A child that does not answer within the bound
// (paradyn.PollWait) is merged from its last reply and counted in
// mrnet.poll.stale. Child failure surfaces as a synthetic host_down
// profile sample plus an mrnet.hosts.down counter. A node that loses its
// parent reconnects with resume semantics; the parent replaces its entry
// by name.
package mrnet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"tdp/internal/liveness"
	"tdp/internal/paradyn"
	"tdp/internal/telemetry"
	"tdp/internal/toolapi"
	"tdp/internal/wire"
)

// DialFunc opens the upstream connection (to the parent node or the
// real front-end).
type DialFunc func(addr string) (net.Conn, error)

// Config parameterizes a Node.
type Config struct {
	// Name identifies this node in its upstream registration.
	Name string
	// Listener accepts downstream (daemon or child-node) connections.
	Listener net.Listener
	// ParentAddr is the upstream address (front-end or parent node).
	ParentAddr string
	// Dial opens the upstream connection; nil uses TCP.
	Dial DialFunc
	// FlushInterval is how often reduced samples flow upstream.
	// Zero means 5ms.
	FlushInterval time.Duration
	// ExpectedChildren, when > 0, delays the upstream REGISTER until
	// that many children have registered, so the aggregate announces
	// itself once, completely. Zero registers upstream immediately.
	ExpectedChildren int
	// Registry is the node's own telemetry; nil creates a private one.
	// Every poll merges it into the node's rollup.
	Registry *telemetry.Registry
	// Tracer records the node's spans (one mrnet.poll per poll); nil
	// creates one named after the node.
	Tracer *telemetry.Tracer
}

// Node is one process of the reduction network.
type Node struct {
	cfg    Config
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	stale  *telemetry.Counter // mrnet.poll.stale: children merged from an old reply

	// flushMu serialises flush from taking the changed profile totals
	// through writing them: a cycle on the ticker goroutine that holds
	// taken totals must not be overtaken by the handler's final flush +
	// DONE, or the parent sees DONE before the last sample.
	flushMu sync.Mutex

	mu           sync.Mutex
	afterTake    func(taken int) // test hook: runs in flush between taking the changed totals and sending them
	up           *wire.Conn
	upAcked      bool // a parent node acked the registration: each drain cycle leaves as one TBATCH frame
	reconnecting bool
	children     map[string]*childState
	totals       map[string]paradyn.FuncStats
	synthetic    map[string]paradyn.FuncStats // host_down and friends
	fnsDirty     bool                         // a profile sample arrived since the last reduce
	doneCount    int
	exitAgg      string
	closed       bool
	ranSent      bool
	runRecvd     bool
	upReadyOnce  sync.Once
	upReady      chan struct{}
	sessionDone  chan struct{}
	stop         chan struct{} // closed by Close: ends a pending reconnect
	wg           sync.WaitGroup
}

type childState struct {
	name string
	kind string // "daemon" or "node"
	conn *wire.Conn
	// latest per-function sample from this child; reduction recomputes
	// totals from the latest value of every child, so repeated samples
	// do not double-count.
	latest map[string]paradyn.FuncStats
	peer   *paradyn.Peer // telemetry: the child's last snapshot and pending poll
	done   bool
	gone   bool // connection died before DONE (host down)
}

// ErrNoParent is returned when the node cannot reach its parent.
var ErrNoParent = errors.New("mrnet: cannot reach parent")

// NewNode starts a node. It begins accepting children immediately and
// connects upstream (immediately, or after ExpectedChildren register).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Listener == nil {
		return nil, errors.New("mrnet: Config.Listener is required")
	}
	if cfg.ParentAddr == "" {
		return nil, errors.New("mrnet: Config.ParentAddr is required")
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	if cfg.Name == "" {
		cfg.Name = "mrnet-node"
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.NewTracer(cfg.Name)
	}
	n := &Node{
		cfg:         cfg,
		reg:         cfg.Registry,
		tracer:      cfg.Tracer,
		stale:       cfg.Registry.Counter("mrnet.poll.stale"),
		children:    make(map[string]*childState),
		totals:      make(map[string]paradyn.FuncStats),
		synthetic:   make(map[string]paradyn.FuncStats),
		upReady:     make(chan struct{}),
		sessionDone: make(chan struct{}),
		stop:        make(chan struct{}),
	}
	if cfg.ExpectedChildren <= 0 {
		if err := n.connectUpstream(false); err != nil {
			cfg.Listener.Close()
			return nil, err
		}
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.flushLoop()
	return n, nil
}

// Addr returns the address daemons (or child nodes) should dial.
func (n *Node) Addr() string { return n.cfg.Listener.Addr().String() }

// Registry returns the node's own telemetry registry.
func (n *Node) Registry() *telemetry.Registry { return n.reg }

// Tracer returns the node's span tracer.
func (n *Node) Tracer() *telemetry.Tracer { return n.tracer }

// connectUpstream dials the parent and registers, stating the node's
// subtree depth so the parent's polls wait long enough for it. With
// resume set the registration replaces a prior session (after a
// reconnect) and the node resends its profile totals.
func (n *Node) connectUpstream(resume bool) error {
	raw, err := n.cfg.Dial(n.cfg.ParentAddr)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoParent, err)
	}
	up := wire.NewConn(raw)
	up.InstrumentRegistry(n.reg)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		up.Close()
		return errors.New("mrnet: node closed")
	}
	children := len(n.children)
	depth := n.depthLocked()
	n.mu.Unlock()
	reg := wire.NewMessage("REGISTER").
		Set("daemon", n.cfg.Name).
		Set("host", "mrnet").
		Set("kind", "node").
		Set("executable", fmt.Sprintf("aggregate(%d children)", children)).
		SetInt("pid", 0).
		SetInt("rank", 0).
		SetInt("depth", int(depth))
	if resume {
		reg.Set("resume", "1")
	}
	if err := up.Send(reg); err != nil {
		up.Close()
		return err
	}
	n.mu.Lock()
	n.up = up
	n.upAcked = false
	n.reconnecting = false
	if resume {
		// The new parent session starts from nothing: resend every
		// function total on the next flush.
		clear(n.totals)
		n.fnsDirty = true
	}
	n.mu.Unlock()
	n.upReadyOnce.Do(func() { close(n.upReady) })
	// Upstream RUN handling: multicast to children; a STATS is a poll of
	// the subtree. A receive error means the parent is gone; hand off to
	// the reconnect path.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			m, err := up.Recv()
			if err != nil {
				n.upstreamLost(up)
				return
			}
			switch m.Verb {
			case "OK":
				// Only a parent node acks a kind=node registration (the
				// front-end never does — a peer kind, not a version):
				// from here each drain cycle collapses into one TBATCH
				// frame.
				n.mu.Lock()
				if n.up == up {
					n.upAcked = true
				}
				n.mu.Unlock()
			case "RUN":
				n.multicastRun()
			case "STATS":
				go n.replyStats(up, m)
			}
		}
	}()
	return nil
}

// upstreamLost reacts to a dead parent connection: drop it and start the
// background reconnect loop (n.up is nil while one runs, so at most one
// does).
func (n *Node) upstreamLost(up *wire.Conn) {
	n.mu.Lock()
	if n.closed || n.up != up {
		n.mu.Unlock()
		return
	}
	n.up = nil
	n.upAcked = false
	n.reconnecting = true
	n.mu.Unlock()
	up.Close() // wakes a flush blocked writing to the dead parent
	n.reg.Counter("mrnet.up.reconnects").Inc()
	n.wg.Add(1)
	go n.reconnectLoop()
}

// reconnectLoop re-registers upstream, with resume semantics, until it
// succeeds or Close stops it.
func (n *Node) reconnectLoop() {
	defer n.wg.Done()
	sched := liveness.Schedule{Initial: 10 * time.Millisecond, Max: 500 * time.Millisecond}
	liveness.Retry(liveness.System, n.stop, sched, func() error { return n.connectUpstream(true) })
}

// multicastRun forwards the front-end's RUN to every child, including
// children that register later.
func (n *Node) multicastRun() {
	n.mu.Lock()
	n.runRecvd = true
	conns := make([]*wire.Conn, 0, len(n.children))
	for _, c := range n.children {
		if !c.gone {
			conns = append(conns, c.conn)
		}
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Send(wire.NewMessage("RUN"))
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.cfg.Listener.Accept()
		if err != nil {
			return
		}
		go n.handleChild(c)
	}
}

// rejectChild replies with an ERROR frame naming the reason, then
// closes — a malformed registration must not be a silent drop.
func rejectChild(wc *wire.Conn, raw net.Conn, reason string) {
	wc.Send(wire.NewMessage("ERROR").Set("error", reason))
	raw.Close()
}

func (n *Node) handleChild(raw net.Conn) {
	wc := wire.NewConn(raw)
	wc.InstrumentRegistry(n.reg)
	first, err := wc.Recv()
	if err != nil {
		raw.Close()
		return
	}
	// A connection may open with STATS instead of REGISTER: a
	// monitoring client (tdptop) polling the subtree rollup.
	if first.Verb == "STATS" {
		n.serveStatsConn(wc, raw, first)
		return
	}
	if first.Verb != "REGISTER" {
		rejectChild(wc, raw, fmt.Sprintf("mrnet: expected REGISTER, got %s", first.Verb))
		return
	}
	name := first.Get("daemon")
	if name == "" {
		rejectChild(wc, raw, "mrnet: REGISTER without daemon name")
		return
	}
	kind := first.Get("kind")
	if kind == "" {
		kind = "daemon"
	}
	resume := first.Get("resume") == "1"
	child := &childState{
		name:   name,
		kind:   kind,
		conn:   wc,
		latest: make(map[string]paradyn.FuncStats),
	}
	var oldPeer *paradyn.Peer
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		raw.Close()
		return
	}
	if old, ok := n.children[name]; ok {
		if old.done || (!resume && !old.gone) {
			n.mu.Unlock()
			rejectChild(wc, raw, fmt.Sprintf("mrnet: duplicate registration for %q", name))
			return
		}
		// Reconnect (resume, or replacing a downed host): the entry is
		// replaced by name, starting from the old function totals and
		// last snapshot so the rollup stays monotone until the child's
		// next reply overwrites them — nothing double-counts.
		child.latest = old.latest
		oldPeer = old.peer
		old.conn.Close()
	}
	child.peer = paradyn.NewPeer(first, oldPeer)
	n.children[name] = child
	count := len(n.children)
	runAlready := n.runRecvd
	needUpstream := n.up == nil && !n.reconnecting && n.cfg.ExpectedChildren > 0 && count >= n.cfg.ExpectedChildren
	n.mu.Unlock()

	// A child node's uplink is batched; the bare OK tells it so (plain
	// daemons never see an ack).
	if kind == "node" {
		wc.Send(wire.NewMessage("OK"))
	}

	if needUpstream {
		if err := n.connectUpstream(false); err != nil {
			// Parent unreachable right now: keep absorbing children and
			// retry in the background. The retry registers with resume
			// semantics, which a parent that never saw us treats as a
			// fresh registration.
			n.mu.Lock()
			if !n.closed && n.up == nil && !n.reconnecting {
				n.reconnecting = true
				n.wg.Add(1)
				go n.reconnectLoop()
			}
			n.mu.Unlock()
		}
	}
	if runAlready {
		wc.Send(wire.NewMessage("RUN"))
	}

	// The receive loop owns its message and dispatches synchronously, so
	// RecvInto's map reuse applies: at fan-in rates (64 daemons × one
	// sample per cycle) the per-message allocation is measurable.
	m := new(wire.Message)
	for {
		if err := wc.RecvInto(m); err != nil {
			n.childGone(child)
			child.peer.Drop()
			raw.Close()
			return
		}
		switch m.Verb {
		case "SAMPLE":
			calls, _ := strconv.ParseInt(m.Get("calls"), 10, 64)
			us, _ := strconv.ParseInt(m.Get("time_us"), 10, 64)
			n.mu.Lock()
			child.latest[m.Get("fn")] = paradyn.FuncStats{Calls: calls, TimeMicros: us}
			n.fnsDirty = true
			n.mu.Unlock()
		case "TBATCH":
			// One whole drain cycle from a batching child: its dirty
			// profile functions in one frame.
			profs, err := wire.ParseTBatch(m)
			if err != nil {
				wc.Send(wire.NewMessage("ERROR").Set("error", err.Error()))
				continue
			}
			n.mu.Lock()
			for _, p := range profs {
				child.latest[p.Fn] = paradyn.FuncStats{Calls: p.Calls, TimeMicros: p.TimeUS}
			}
			if len(profs) > 0 {
				n.fnsDirty = true
			}
			n.mu.Unlock()
		case "STATSV":
			child.peer.Answer(m)
		case "STATS":
			// m is reused by the next receive: the reply goroutine takes
			// a copy of what it needs.
			req := wire.NewMessage("STATS").Set("scope", m.Get("scope")).Set("id", m.Get("id"))
			req.SetTrace(m.Trace())
			go n.replyStats(wc, req)
		case "DONE":
			child.peer.Answer(m) // its json= is the child's final snapshot
			n.mu.Lock()
			if !child.done {
				child.done = true
				n.doneCount++
				if n.exitAgg == "" {
					n.exitAgg = m.Get("status")
				} else if m.Get("status") != n.exitAgg {
					n.exitAgg = "mixed"
				}
			}
			allDone := n.cfg.ExpectedChildren > 0 && n.doneCount >= n.cfg.ExpectedChildren
			n.mu.Unlock()
			if allDone {
				n.flush()
				n.sendDone()
			}
		}
	}
}

// childGone handles a connection that died before DONE: the host is
// down. Its profile totals stay in the reduction (monotone); its
// telemetry is retired (counters and histograms keep counting, gauges
// drop out); the failure surfaces as an mrnet.hosts.down counter and a
// synthetic host_down function sample that sums up the tree like any
// profile entry.
func (n *Node) childGone(child *childState) {
	n.mu.Lock()
	if n.closed || child.done || child.gone || n.children[child.name] != child {
		n.mu.Unlock()
		return
	}
	child.gone = true
	// Under n.mu, so a re-registration (handleChild) takes the retired
	// snapshot, never the live one.
	child.peer.Retire()
	s := n.synthetic["host_down"]
	s.Calls++
	n.synthetic["host_down"] = s
	n.fnsDirty = true
	n.mu.Unlock()
	n.reg.Counter("mrnet.hosts.down").Inc()
}

// serveStatsConn answers STATS queries on a connection that never
// registered — a monitoring client. It loops until the client hangs
// up.
func (n *Node) serveStatsConn(wc *wire.Conn, raw net.Conn, first *wire.Message) {
	m := first
	for {
		n.replyStats(wc, m)
		next, err := wc.Recv()
		if err != nil || next.Verb != "STATS" {
			raw.Close()
			return
		}
		m = next
	}
}

// replyStats answers one STATS message: scope=tree polls the subtree,
// anything else returns the node's own registry. The reply shape
// (STATSV daemon= json=) matches the attrspace servers, so one
// monitoring client can poll either.
func (n *Node) replyStats(wc *wire.Conn, m *wire.Message) {
	var snap telemetry.Snapshot
	if m.Get("scope") == "tree" {
		snap = n.poll(m.Trace())
	} else {
		snap = n.reg.Snapshot()
	}
	wc.Send(paradyn.StatsReply(m, n.cfg.Name, snap))
}

// TreeSnapshot polls the whole subtree and returns its merged
// telemetry — what `STATS scope=tree` serves.
func (n *Node) TreeSnapshot() telemetry.Snapshot { return n.poll("", "") }

// poll sends STATS down every live child (continuing the caller's trace
// tid/sid, or starting one), waits for the replies within the bound the
// children's depth earns, and merges. A child that misses the bound is
// merged from its last reply and counted in mrnet.poll.stale.
func (n *Node) poll(tid, sid string) telemetry.Snapshot {
	var sp *telemetry.Span
	if tid != "" {
		sp = n.tracer.StartChild("mrnet.poll", tid, sid)
	} else {
		sp = n.tracer.StartSpan("mrnet.poll")
	}
	defer sp.End()
	var waits []<-chan struct{}
	n.mu.Lock()
	for _, c := range n.children {
		if !c.done && !c.gone {
			waits = append(waits, c.peer.Ask(c.conn, sp.TraceID(), sp.SpanID()))
		}
	}
	depth := n.depthLocked()
	n.mu.Unlock()
	if stale := paradyn.Await(waits, paradyn.PollWait*time.Duration(depth)); stale > 0 {
		n.stale.Add(int64(stale))
	}
	return n.merge()
}

// depthLocked is the node's subtree depth: one more than its deepest
// live child node's (a daemon counts 0). Callers hold n.mu.
func (n *Node) depthLocked() int64 {
	var deepest int64
	for _, c := range n.children {
		if !c.gone {
			deepest = max(deepest, c.peer.Depth())
		}
	}
	return deepest + 1
}

// merge folds every child's last snapshot (a gone child's retired one,
// a finished child's final one) with the node's own registry and
// topology: mrnet.tree.daemons counts its live daemon children, so the
// root's sums the pool; mrnet.tree.depth is its subtree depth, so the
// root's is the tree's.
func (n *Node) merge() telemetry.Snapshot {
	n.mu.Lock()
	parts := make([]telemetry.Snapshot, 0, len(n.children)+2)
	var daemons int64
	for _, c := range n.children {
		parts = append(parts, c.peer.Last())
		if c.kind == "daemon" && !c.gone {
			daemons++
		}
	}
	depth := n.depthLocked()
	n.mu.Unlock()
	parts = append(parts, n.reg.Snapshot(), telemetry.Snapshot{
		Counters: map[string]int64{paradyn.TreeDaemons: daemons},
		Gauges:   map[string]int64{paradyn.TreeDepth: depth},
	})
	return telemetry.MergeSnapshots(parts...)
}

// reduce recomputes per-function totals from every child's latest
// sample plus the node's synthetic entries (host_down).
func (n *Node) reduce() map[string]paradyn.FuncStats {
	totals := make(map[string]paradyn.FuncStats)
	for fn, s := range n.synthetic {
		totals[fn] = s
	}
	for _, c := range n.children {
		for fn, s := range c.latest {
			t := totals[fn]
			t.Calls += s.Calls
			t.TimeMicros += s.TimeMicros
			totals[fn] = t
		}
	}
	return totals
}

func (n *Node) flushLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.FlushInterval)
	defer ticker.Stop()
	for range ticker.C {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		n.flush()
	}
}

// flush sends upstream, in one corked burst, every function whose
// reduced value changed. With the parent gone it leaves the totals for
// the reconnect resync.
func (n *Node) flush() {
	n.flushMu.Lock()
	defer n.flushMu.Unlock()
	n.mu.Lock()
	up := n.up
	batch := n.upAcked
	afterTake := n.afterTake
	if up == nil || n.closed || !n.fnsDirty {
		n.mu.Unlock()
		return
	}
	// Recomputing the profile reduction walks every child's latest map;
	// cycles where no SAMPLE arrived skip the walk, since the totals
	// cannot have changed.
	n.fnsDirty = false
	reduced := n.reduce()
	var dirty []string
	for fn, s := range reduced {
		if n.totals[fn] != s {
			n.totals[fn] = s
			dirty = append(dirty, fn)
		}
	}
	n.mu.Unlock()
	if afterTake != nil {
		afterTake(len(dirty))
	}
	if len(dirty) == 0 {
		return
	}
	sort.Strings(dirty)
	// A slow parent throttles this node through the socket: the write
	// that ends a cycle blocks until the parent reads, so no more than
	// one cycle's frames are ever buffered here.
	var err error
	if batch {
		// tbatch uplink: the cycle's dirty profile functions leave as
		// one TBATCH frame, so a reduction level costs one frame per
		// cycle rather than one per function.
		profs := make([]wire.BatchProfileSample, 0, len(dirty))
		for _, fn := range dirty {
			s := reduced[fn]
			profs = append(profs, wire.BatchProfileSample{Fn: fn, Calls: s.Calls, TimeUS: s.TimeMicros})
		}
		err = up.Send(wire.EncodeTBatch(profs))
	} else {
		up.Cork()
		for _, fn := range dirty {
			s := reduced[fn]
			if err = up.Send(wire.NewMessage("SAMPLE").
				Set("fn", fn).
				Set("calls", strconv.FormatInt(s.Calls, 10)).
				Set("time_us", strconv.FormatInt(s.TimeMicros, 10))); err != nil {
				break
			}
		}
		if uerr := up.Uncork(); err == nil {
			err = uerr
		}
	}
	if err != nil {
		n.upstreamLost(up)
	}
}

func (n *Node) sendDone() {
	n.mu.Lock()
	up := n.up
	status := n.exitAgg
	done := n.ranSent
	n.ranSent = true
	n.mu.Unlock()
	if up == nil || done {
		return
	}
	// Every child is finished, so the merge is exact without a poll: the
	// node's DONE carries it as its final snapshot.
	up.Send(paradyn.WithSnapshot(wire.NewMessage("DONE").Set("status", status), n.merge()))
	// A flush cycle on another goroutine may hold the uplink corked, and
	// a corked Send only buffers: write DONE out before saying it was
	// sent, or the Close that SessionDone releases can beat the Uncork.
	up.Flush()
	close(n.sessionDone)
}

// SessionDone returns a channel closed once every expected child has
// reported DONE and the aggregate DONE has been written upstream. Use
// it to shut the node down without racing the final flush.
func (n *Node) SessionDone() <-chan struct{} { return n.sessionDone }

// ChildCount reports registered children.
func (n *Node) ChildCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.children)
}

// DoneCount reports children that sent DONE.
func (n *Node) DoneCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.doneCount
}

// Close tears the node down (children and upstream).
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.stop)
	children := make([]*childState, 0, len(n.children))
	for _, c := range n.children {
		children = append(children, c)
	}
	up := n.up
	n.mu.Unlock()
	n.cfg.Listener.Close()
	for _, c := range children {
		c.conn.Close()
	}
	if up != nil {
		up.Close()
	}
}

// AuxService adapts a single reduction node to the RM auxiliary
// service interface (toolapi.AuxFactory): the resource manager's
// starter launches it with the front-end address as the parent, and
// the tool daemon is given the node's address instead — transparent
// interposition. fanIn is how many daemons the node waits for before
// registering upstream and how many DONEs complete the session (1 for
// a sequential job's single daemon).
func AuxService(fanIn int) func(env toolapi.Env, args []string, parentAddr string) (string, func(), error) {
	if fanIn < 1 {
		fanIn = 1
	}
	return func(env toolapi.Env, args []string, parentAddr string) (string, func(), error) {
		if parentAddr == "" {
			return "", nil, errors.New("mrnet: aux service needs a front-end address (set +FrontendAddr)")
		}
		var l net.Listener
		var err error
		var dial DialFunc
		if env.Dial != nil {
			// Simulated network: bind on the execution host.
			dial = func(addr string) (net.Conn, error) { return env.Dial(addr) }
		}
		l, err = listenFor(env)
		if err != nil {
			return "", nil, err
		}
		name := fmt.Sprintf("mrnet-%s", env.Context)
		node, err := NewNode(Config{
			Name:             name,
			Listener:         l,
			ParentAddr:       parentAddr,
			Dial:             dial,
			ExpectedChildren: fanIn,
			// A named registry/tracer: the RM-launched node's own
			// telemetry reaches the front-end's polls like any daemon's.
			Registry: telemetry.NewRegistry(),
			Tracer:   telemetry.NewTracer(name),
		})
		if err != nil {
			return "", nil, err
		}
		shutdown := func() {
			// Let the session's final reduction and DONE drain before
			// tearing the node down.
			select {
			case <-node.SessionDone():
			case <-time.After(5 * time.Second):
			}
			node.Close()
		}
		return node.Addr(), shutdown, nil
	}
}

// listenFor binds a listener on the execution host: loopback TCP by
// default; the host's simulated network when the machine lives there.
func listenFor(env toolapi.Env) (net.Listener, error) {
	if env.NetListen != nil {
		return env.NetListen()
	}
	return net.Listen("tcp", "127.0.0.1:0")
}
