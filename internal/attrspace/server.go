// Package attrspace implements the TDP attribute space servers and
// their client. A LASS (Local Attribute Space Server) runs on every
// execution host; the CASS (Central Attribute Space Server) runs on
// the host with the tool front-end (paper §2.1, Figure 2). Both are
// the same server — the distinction is purely where they run and who
// connects — so one implementation serves both roles.
//
// The protocol is framed wire.Messages. A client says HELLO (context,
// protocol revision, and whether it could share a ring) and then sends
// requests; the request verbs — each an operation at a scope: the
// connection's context, an explicit ctx, or the global space behind a
// caching LASS — are the op table in ops.go, and DESIGN §12 describes
// the whole protocol. The server answers:
//
//	OK       id=<n> [seq=<s>]  (SUB's also inc=<i> origin=<o>: base-36 ids)
//	VALUE    id=<n> attr=<a> value=<v> seq=<s>
//	NOTFOUND id=<n> attr=<a>
//	SNAPV    id=<n> n=<count> k0=.. v0=.. k1=..
//	STATSV   id=<n> daemon=<name> json=<telemetry snapshot>
//	ERROR    id=<n> error=<text>
//	EVENT    attr=<a> value=<v> op=<put|delete|destroy> seq=<n> [lost=<d>]
//	EVENT    op=lost lost=<d>      closes a burst: drops none of its EVENTs declared
//	CLOSE    reason=<r>    GOAWAY: server draining; no new requests,
//	                       in-flight replies land
//
// Every reply carries the request id, so a client may keep many
// blocking GETs outstanding on one connection — this is what makes the
// paper's tdp_async_get natural to implement. Mutating acks and VALUE
// replies carry the per-context sequence number of the write they
// report (seq), which is what versions the LASS read cache; EVENT may
// carry lost=<d>, the number of updates the server's subscription had
// to drop for this subscriber since the last event, and a burst that
// ends with drops still undeclared ends with an EVENT op=lost that
// carries nothing else. Requests may carry
// the reserved _tid/_sid span-tracing fields (wire.FieldTraceID); the
// server then records its share of the operation in its span log under
// the caller's trace ID, which is how one Put can be followed
// front-end → CASS → proxy → LASS.
package attrspace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/attr"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// verbMetrics caches one verb's hot-path metric handles.
type verbMetrics struct {
	ops *telemetry.Counter
	lat *telemetry.Histogram
}

// telemetryHandles is an immutable snapshot of the server's telemetry
// wiring. The request path loads it through one atomic pointer read —
// no mutex — so concurrent requests never contend on observation, and
// SetTelemetry swaps the whole bundle at once (registry, tracer, and
// the per-verb handles derived from the registry stay consistent).
type telemetryHandles struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	verbs  []verbMetrics // by opSpec.idx; read-only after construction
	gConns *telemetry.Gauge

	// Event fan-out accounting (the asynchronous subscriber path).
	evPushed   *telemetry.Counter // events written to subscribers
	evSuppress *telemetry.Counter // updates withheld from the subscription of the cache that wrote them
	evLost     *telemetry.Counter // updates dropped on subscription overflow
	evDepth    *telemetry.Gauge   // last observed subscription depth (high-water hint)

	// Global read-cache accounting (the LASS→CASS forwarding path).
	cacheHits  *telemetry.Counter
	cacheMiss  *telemetry.Counter
	cacheFills *telemetry.Counter
	cacheInval *telemetry.Counter // entries invalidated by upstream events
	cacheFlush *telemetry.Counter // whole-context flushes (lost events, teardown)

	shm shmMetrics // ring promotions (SHMREQ … SHMRDY), server half
}

// Server is one attribute space server instance (a LASS or the CASS).
type Server struct {
	space *attr.Space

	// mu guards connection lifecycle (listeners/conns/closed) and
	// serializes SetTelemetry stores. It is NOT taken on the request
	// fast path — per-request observation goes through tel.
	mu        sync.Mutex
	listeners []net.Listener // every Serve'd listener (tcp and/or unix)
	conns     map[*serverConn]struct{}
	draining  bool // Shutdown in progress; Serve exits cleanly

	// closed is set under mu when Close begins; connections read it
	// without mu and answer nothing from then on (see reply).
	closed atomic.Bool

	// noShm withholds ring promotion from every connection; see SetShm.
	noShm atomic.Bool

	// inflight counts requests currently inside their synchronous
	// dispatch (reply not yet written). Blocked GETs hand off to a
	// goroutine and leave the count — a drain must not wait for a get
	// that may block forever; closing the connection cancels it.
	inflight atomic.Int64

	// tel is the current telemetry bundle; never nil after NewServer.
	tel    atomic.Pointer[telemetryHandles]
	logger atomic.Pointer[telemetry.Logger]

	// statsKids, when set, supplies child snapshots folded into a
	// `STATS scope=tree` reply. See SetStatsChildren.
	statsKids atomic.Pointer[func() []telemetry.Snapshot]

	// evBuf sizes the delivery channel of subscriptions created by SUB;
	// see SetEventBuffer.
	evBuf atomic.Int32

	// gcache, when non-nil, serves the global-scope verbs: this
	// server is a LASS with an upstream CASS. See EnableGlobalCache.
	gcache atomic.Pointer[GlobalCache]

	// shard, when non-nil, makes this server one partition of a sharded
	// CASS: HELLO (and the ctx-scope verbs) refuse contexts whose hash places
	// them on a different shard. See SetShard.
	shard atomic.Pointer[shardSpec]
}

// shardSpec is a server's position in a sharded CASS pool.
type shardSpec struct {
	idx, total int
}

// NewServer returns a server around a fresh attribute space.
func NewServer() *Server {
	return NewServerWithSpace(attr.NewSpace())
}

// NewServerWithSpace returns a server around an existing space, which
// lets tests and the in-process fast path share state with the server.
func NewServerWithSpace(space *attr.Space) *Server {
	s := &Server{
		space: space,
		conns: make(map[*serverConn]struct{}),
	}
	s.evBuf.Store(DefaultEventBuffer)
	s.SetTelemetry(telemetry.NewRegistry(), telemetry.NewTracer("attrspace"))
	return s
}

// SetShm sets whether this server lets same-host connections be
// promoted to a shared-memory ring (the default). Off — the -shm=false
// flag of lassd/cassd — no HELLO is told a ring is possible, so every
// client stays on its socket for the life of its connection.
func (s *Server) SetShm(on bool) { s.noShm.Store(!on) }

// SetShard declares this server to be shard idx of a total-way
// partitioned CASS (the cassd -shard i/n flag). From then on HELLO and
// the C* verbs refuse contexts whose name hashes to a different shard
// — a misrouted client gets a "wrong shard" error instead of silently
// splitting one context's attributes across two daemons. Contexts
// under InfraContextPrefix are exempt: router health probes and
// monitor self-publication must exist on every shard.
func (s *Server) SetShard(idx, total int) error {
	if total < 1 || idx < 0 || idx >= total {
		return fmt.Errorf("attrspace: shard %d/%d out of range", idx, total)
	}
	s.shard.Store(&shardSpec{idx: idx, total: total})
	return nil
}

// shardRefuses returns the "wrong shard" error, naming the owner, when
// this server's shard assignment excludes the named context.
func (s *Server) shardRefuses(name string) error {
	sp := s.shard.Load()
	if sp == nil || strings.HasPrefix(name, InfraContextPrefix) {
		return nil
	}
	if owner := ShardIndex(name, sp.total); owner != sp.idx {
		return fmt.Errorf("wrong shard: context %q belongs to shard %d", name, owner)
	}
	return nil
}

// DefaultEventBuffer is the number of undelivered updates a
// subscription holds when SetEventBuffer was not called.
const DefaultEventBuffer = 64

// SetEventBuffer sizes the delivery channel of subscriptions created by
// subsequent SUB requests: the number of updates a subscriber may fall
// behind by before the oldest is dropped and declared to it
// (Event.Lost); see attr.Subscription.
func (s *Server) SetEventBuffer(n int) {
	if n < 1 {
		n = 1
	}
	s.evBuf.Store(int32(n))
}

// SetTelemetry installs the registry this server counts into and the
// tracer holding its span log. Either may be nil to keep the current
// one. The tracer's actor name is what distinguishes a CASS from a
// LASS in cross-daemon traces; cmd/cassd passes NewTracer("cassd").
// Safe to call at any time: in-flight requests finish against the old
// bundle, subsequent requests (and subsequently accepted connections)
// observe into the new one.
func (s *Server) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := &telemetryHandles{}
	if cur := s.tel.Load(); cur != nil {
		*h = *cur
	}
	if reg != nil {
		h.reg = reg
		h.verbs = make([]verbMetrics, len(opTable))
		for i := range opTable {
			if spec := &opTable[i]; !spec.quiet {
				h.verbs[i] = verbMetrics{ops: reg.Counter(spec.opsName), lat: reg.Histogram(spec.latName, nil)}
			}
		}
		h.gConns = reg.Gauge("attrspace.conns")
		h.evPushed = reg.Counter("attrspace.events.pushed")
		h.evSuppress = reg.Counter("attrspace.events.suppressed")
		h.evLost = reg.Counter("attrspace.events.lost")
		h.evDepth = reg.Gauge("attrspace.events.depth")
		h.cacheHits = reg.Counter("attrspace.cache.hits")
		h.cacheMiss = reg.Counter("attrspace.cache.misses")
		h.cacheFills = reg.Counter("attrspace.cache.fills")
		h.cacheInval = reg.Counter("attrspace.cache.invalidations")
		h.cacheFlush = reg.Counter("attrspace.cache.flushes")
		h.shm = newShmMetrics(reg)
	}
	if tracer != nil {
		h.tracer = tracer
	}
	s.tel.Store(h)
}

// SetStatsChildren installs a callback that supplies the telemetry
// snapshots of this daemon's children (e.g. the aggregated subtree of
// an mrnet reduction root, or downstream LASSes known to a CASS). A
// `STATS scope=tree` request merges them with the daemon's own
// registry — counters sum, gauges take the maximum, histograms merge —
// so one request yields the whole subtree's picture. Nil uninstalls;
// plain STATS is unaffected.
func (s *Server) SetStatsChildren(fn func() []telemetry.Snapshot) {
	if fn == nil {
		s.statsKids.Store(nil)
		return
	}
	s.statsKids.Store(&fn)
}

// Telemetry returns the server's metrics registry.
func (s *Server) Telemetry() *telemetry.Registry {
	return s.tel.Load().reg
}

// Tracer returns the server's span log.
func (s *Server) Tracer() *telemetry.Tracer {
	return s.tel.Load().tracer
}

// SetLogger installs the leveled logger used for connection-level
// diagnostics and serve errors. The default (nil) discards, which is
// what tests want.
func (s *Server) SetLogger(l *telemetry.Logger) {
	s.logger.Store(l)
}

func (s *Server) log() *telemetry.Logger {
	return s.logger.Load()
}

// Space returns the underlying attribute space.
func (s *Server) Space() *attr.Space { return s.space }

// Stats returns operation counters since start. It reads through the
// same atomically-snapshotted handle bundle the request path uses, so
// it never races a concurrent SetTelemetry and always reports one
// registry's counters consistently.
func (s *Server) Stats() (puts, gets, tryGets, deletes int64) {
	verbs := s.tel.Load().verbs
	count := func(op opKind) int64 { return verbs[opFor(op, Local).idx].ops.Value() }
	return count(opPut), count(opGet), count(opTryGet), count(opDelete)
}

// Serve accepts connections on l until Close is called or the listener
// fails. It blocks; run it in a goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed.Load() || s.draining
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sc := &serverConn{srv: s, wc: wire.NewConn(c), raw: c}
		// Re-read the current registry per accept, so connections made
		// after SetTelemetry count into the new registry.
		tel := s.tel.Load()
		sc.wc.InstrumentRegistry(tel.reg)
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		tel.gConns.Set(int64(len(s.conns)))
		s.mu.Unlock()
		s.log().Debugf("attrspace: accepted %v", c.RemoteAddr())
		go sc.run()
	}
}

// Close stops the listener and disconnects every client.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.closed.Store(true)
	ls := s.listeners
	s.listeners = nil
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.raw.Close()
	}
	if gc := s.gcache.Load(); gc != nil {
		gc.Close()
	}
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, announces the drain to every connected client with a
// GOAWAY-style CLOSE verb, waits for in-flight synchronous replies to
// finish (bounded by ctx), then closes everything. Blocked GETs are not
// waited for — they may block indefinitely by design — and are
// cancelled by the final close, erroring their callers. Returns
// ctx.Err() when the deadline cut the drain short, nil otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed.Load() || s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ls := s.listeners
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		// Best effort: a peer that is already gone fails the send and
		// will be reaped by its own read loop.
		c.wc.Send(wire.NewMessage("CLOSE").Set("reason", "drain"))
	}
	var err error
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-tick.C:
			continue
		}
		break
	}
	s.Close()
	return err
}

func (s *Server) dropConn(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.tel.Load().gConns.Set(int64(len(s.conns)))
	s.mu.Unlock()
}

// StartMonitorPublisher periodically self-publishes this server's
// registry metrics as attributes named
// "tdp.monitor.<daemon>.<metric>" into contextName, so tools observe
// the daemon with the same Get/Snapshot they use for everything else
// (the paper's own mechanism, turned on the daemons). Histograms
// publish their count and p50/p99 estimates. The publisher holds a
// context reference until stop is called, so the published attributes
// outlive transient clients.
func (s *Server) StartMonitorPublisher(contextName, daemon string, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	ref := s.space.Join(contextName)
	done := make(chan struct{})
	var once sync.Once
	publish := func() { ref.PutBatch(MonitorPairs(daemon, s.tel.Load().reg.Snapshot())) }
	publish()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				publish()
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			ref.Leave()
		})
	}
}

// MonitorPairs renders a registry snapshot as the attributes a daemon
// publishes about itself, each named MonitorPrefix + daemon + "." + the
// metric: counters and gauges their value, histograms ".count", ".p50"
// and ".p99". Both publishers — a server's and a tdp.Handle's — put
// exactly these, as one batch.
func MonitorPairs(daemon string, snap telemetry.Snapshot) []KV {
	prefix := telemetry.MonitorPrefix + daemon + "."
	pairs := make([]KV, 0, len(snap.Counters)+len(snap.Gauges)+3*len(snap.Histograms))
	for name, v := range snap.Counters {
		pairs = append(pairs, KV{Key: prefix + name, Value: strconv.FormatInt(v, 10)})
	}
	for name, v := range snap.Gauges {
		pairs = append(pairs, KV{Key: prefix + name, Value: strconv.FormatInt(v, 10)})
	}
	for name, h := range snap.Histograms {
		pairs = append(pairs,
			KV{Key: prefix + name + ".count", Value: strconv.FormatInt(h.Count, 10)},
			KV{Key: prefix + name + ".p50", Value: strconv.FormatFloat(h.Quantile(0.5), 'g', 6, 64)},
			KV{Key: prefix + name + ".p99", Value: strconv.FormatFloat(h.Quantile(0.99), 'g', 6, 64)})
	}
	return pairs
}

// serverConn is one client session.
type serverConn struct {
	srv *Server
	wc  *wire.Conn
	raw net.Conn

	mu    sync.Mutex
	ref   *attr.Ref // joined context, nil until HELLO
	sub   *attr.Subscription
	shmOK bool // HELLO said a ring is possible and no SHMREQ has used that up

	// quit ends the connection after the current request: EXIT, or a
	// HELLO of another protocol revision. Owned by the read loop.
	quit bool

	// ctxRef is the reference every ctx-scope request joins its context
	// through and leaves before the next is read, made by the first. Owned
	// by the read loop: a ctx-scope op never blocks, so none outlives its
	// dispatch.
	ctxRef *attr.Ref

	// Promotion state, owned by the read loop: the segment created for
	// SHMREQ, its file, and when that was, until SHMRDY (or teardown, if
	// the connection dies in between) takes them.
	shmSeg   *wire.ShmSegment
	shmPath  string
	shmStart time.Time
}

func (c *serverConn) run() {
	srv := c.srv
	defer srv.dropConn(c)
	defer c.wc.ReleaseRead() // EXIT ends the loop with the stream still good
	// Per-connection context cancels blocked GETs when the peer goes
	// away. It ends before the connection leaves its context, so a
	// blocking global GET still running makes no mirror after the leave
	// (GlobalCache.left).
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		c.mu.Lock()
		ref, sub := c.ref, c.sub
		c.ref, c.sub = nil, nil
		c.mu.Unlock()
		if sub != nil && ref != nil {
			ref.Unsubscribe(sub)
		}
		if ref != nil {
			name := ref.Context()
			ref.Leave()
			if gc := srv.gcache.Load(); gc != nil {
				gc.left(name)
			}
		}
		if c.takeShmSegment() != nil {
			// The connection died between SHMREQ and SHMRDY.
			srv.tel.Load().shm.failed.Inc()
		}
		// Closing the socket also kills the doorbell after a cutover,
		// which wakes anything parked on the ring.
		c.raw.Close()
	}()

	// One request message is reused across the connection's whole
	// life: every handler finishes with the message before the next
	// receive, so nothing retains it. A read's request is decoded in
	// place (readInPlace), its strings views of the read buffer that the
	// next receive overwrites; the few that outlive its handler — the
	// blocking GET's, a cache fill's, a span's — are cloned where they
	// are kept.
	m := new(wire.Message)
	for {
		if err := c.wc.RecvView(m, readInPlace); err != nil {
			return // disconnect
		}
		// The inflight window covers only the synchronous part of the
		// dispatch: once dispatch returns, any still-pending reply
		// belongs to a blocked GET goroutine, which a drain deliberately
		// does not wait for.
		srv.inflight.Add(1)
		c.dispatch(ctx, m)
		srv.inflight.Add(-1)
		if c.quit {
			return
		}
	}
}

// readInPlace is the server's RecvView rule: the requests of the op
// table's value rows (get and tryget at every scope).
func readInPlace(verb string) bool {
	spec := opByVerb[verb]
	return spec != nil && spec.reply == asValue
}

// takeShmSegment ends the window between SHMREQ and SHMRDY: it returns
// the segment created for this connection, nil if there is none, and
// unlinks its file — both ends hold mappings by now, or never will.
func (c *serverConn) takeShmSegment() *wire.ShmSegment {
	seg := c.shmSeg
	if seg != nil {
		os.Remove(c.shmPath)
		c.shmSeg, c.shmPath = nil, ""
	}
	return seg
}

// request is one dispatched request: its op-table row, the message (valid
// until the handler returns), the target its scope resolved to, and the
// observation to end when the reply is out. Handlers take it by value,
// so a request costs no allocation of its own.
type request struct {
	spec *opSpec
	m    *wire.Message
	id   string
	t    target
	obs  observation
}

// observation times one request and holds its span; end records both.
// The zero value (a quiet row) records nothing.
type observation struct {
	lat   *telemetry.Histogram
	start time.Time
	sp    *telemetry.Span
}

func (o observation) end() {
	if o.lat != nil {
		o.lat.Since(o.start)
	}
	o.sp.End()
}

// observe counts a request and opens its latency sample and — when the
// caller sent trace IDs — this daemon's span for it. Lock-free: one
// atomic load and a slice index.
func (c *serverConn) observe(spec *opSpec, m *wire.Message) observation {
	if spec.quiet {
		return observation{}
	}
	tel := c.srv.tel.Load()
	vm := tel.verbs[spec.idx]
	vm.ops.Inc()
	o := observation{lat: vm.lat, start: time.Now()}
	if tid, sid := m.Trace(); tid != "" {
		// The span outlives m, which may be a view of the read buffer.
		o.sp = tel.tracer.StartChild(spec.span, strings.Clone(tid), strings.Clone(sid))
		if a := m.Get("attr"); a != "" {
			o.sp.Set("attr", strings.Clone(a))
		}
	}
	return o
}

// target is where a context-bound operation lands: a joined context in
// this server's own space (connection and ctx scopes), or the
// connection's context in the global space behind the cache.
type target struct {
	ref  *attr.Ref
	gc   *GlobalCache
	name string // context name, global scope only
}

func (t target) put(ctx context.Context, attribute, value string) (uint64, error) {
	if t.gc != nil {
		return t.gc.Put(ctx, t.name, attribute, value)
	}
	return t.ref.PutSeq(attribute, value)
}

func (t target) putBatch(ctx context.Context, pairs []attr.KV) (uint64, error) {
	if t.gc != nil {
		return t.gc.PutBatch(ctx, t.name, pairs)
	}
	return t.ref.PutBatchSeq(pairs)
}

func (t target) tryGet(ctx context.Context, attribute string) (string, uint64, error) {
	if t.gc != nil {
		return t.gc.TryGet(ctx, t.name, attribute)
	}
	return t.ref.TryGetSeq(attribute)
}

func (t target) get(ctx context.Context, attribute string) (string, uint64, error) {
	if t.gc != nil {
		return t.gc.Get(ctx, t.name, attribute)
	}
	return t.ref.GetSeq(ctx, attribute)
}

func (t target) delete(ctx context.Context, attribute string) (uint64, error) {
	if t.gc != nil {
		return t.gc.Delete(ctx, t.name, attribute)
	}
	return t.ref.DeleteSeq(attribute)
}

func (t target) snapshot(ctx context.Context) (map[string]string, error) {
	if t.gc != nil {
		return t.gc.Snapshot(ctx, t.name)
	}
	return t.ref.Snapshot()
}

// resolve checks a scope's precondition and finds the operation's
// target. The ctx scope joins its context through the connection's
// ctxRef for the request's duration (leave reports that), and only when
// somebody already holds it — the shard router's per-context
// subscription connection provides that reference — so a ctx-scope op
// can never create a context as a side
// effect or apply a write to one that everyone has already left. The
// reference of a mutation acts for the request's origin, if it names
// one: what it writes is not echoed to the subscription of that id.
func (c *serverConn) resolve(spec *opSpec, m *wire.Message) (t target, leave bool, err error) {
	srv := c.srv
	switch spec.scope {
	case scopeDaemon:
		return t, false, nil
	case scopeCtx:
		name := m.Get("ctx")
		if name == "" {
			return t, false, errors.New("ctxop: missing ctx")
		}
		if err := srv.shardRefuses(name); err != nil {
			return t, false, err
		}
		if c.ctxRef == nil {
			c.ctxRef = new(attr.Ref)
		}
		if !srv.space.JoinExisting(name, c.ctxRef) {
			return t, false, fmt.Errorf("ctxop: no such context %q", name)
		}
		if spec.origin {
			c.ctxRef.SetOrigin(uintField(m, "origin", 36))
		}
		return target{ref: c.ctxRef}, true, nil
	}
	c.mu.Lock()
	ref := c.ref
	c.mu.Unlock()
	if ref == nil {
		return t, false, errors.New("HELLO required")
	}
	if spec.scope == Local {
		return target{ref: ref}, false, nil
	}
	gc := srv.gcache.Load()
	if gc == nil {
		return t, false, errors.New(noGlobalText)
	}
	return target{gc: gc, name: ref.Context()}, false, nil
}

// dispatch handles one request: find its row, count it, resolve its
// scope, run its operation's handler.
func (c *serverConn) dispatch(ctx context.Context, m *wire.Message) {
	spec := opByVerb[m.Verb]
	if spec == nil {
		c.unknownVerb(m)
		return
	}
	r := request{spec: spec, m: m, id: m.Get("id"), obs: c.observe(spec, m)}
	t, leave, err := c.resolve(spec, m)
	if err != nil {
		c.fail(r, err)
		return
	}
	r.t = t
	spec.handle(c, ctx, r)
	if leave {
		if n := t.ref.Suppressed(); n > 0 {
			c.srv.tel.Load().evSuppress.Add(int64(n))
		}
		t.ref.Leave()
	}
}

// unknownVerb answers a verb that is not in the op table.
func (c *serverConn) unknownVerb(m *wire.Message) {
	c.reply(wire.NewMessage("ERROR").Set("id", m.Get("id")).
		Set("error", fmt.Sprintf("unknown verb %q", m.Verb)))
}

// fail answers r with err and ends it.
func (c *serverConn) fail(r request, err error) {
	c.replyErr(r.id, err)
	r.obs.end()
}

// replySeq acknowledges a mutation with the seq it was assigned, or
// reports its error, and ends the request.
func (c *serverConn) replySeq(r request, seq uint64, err error) {
	if err != nil {
		c.fail(r, err)
		return
	}
	c.reply(wire.NewMessage("OK").Set("id", r.id).SetUint("seq", seq))
	r.obs.end()
}

// replyValue answers a read — VALUE, NOTFOUND for an absent attribute,
// or the error — and ends the request.
func (c *serverConn) replyValue(r request, attribute, v string, seq uint64, err error) {
	switch {
	case errors.Is(err, attr.ErrNotFound):
		c.reply(wire.NewMessage("NOTFOUND").Set("id", r.id).Set("attr", attribute))
	case err != nil:
		c.replyErr(r.id, err)
	default:
		c.reply(wire.NewMessage("VALUE").Set("id", r.id).Set("attr", attribute).
			Set("value", v).SetUint("seq", seq))
	}
	r.obs.end()
}

func (c *serverConn) opHello(_ context.Context, r request) {
	defer r.obs.end()
	srv := c.srv
	if r.m.Get("rev") != ProtocolRevision {
		c.replyErr(r.id, errors.New(revisionMismatch))
		c.quit = true
		return
	}
	name := r.m.Get("context")
	if err := srv.shardRefuses(name); err != nil {
		c.replyErr(r.id, err)
		return
	}
	// shm is the one environmental fact HELLO settles: may this
	// connection be promoted to a ring — the client asked, both builds
	// can mmap, and the transport is provably same-host. Saying yes maps
	// nothing: the connection stays on the socket until the client asks
	// for its ring (SHMREQ).
	shm := r.m.Get("shm") == "1" && !srv.noShm.Load() && wire.ShmSupported() && sameHostConn(c.raw)
	c.mu.Lock()
	already := c.ref != nil
	if !already {
		c.ref = srv.space.Join(name)
		c.shmOK = shm
	}
	c.mu.Unlock()
	if already {
		c.replyErr(r.id, errors.New("already joined"))
		return
	}
	ok := wire.NewMessage("OK").Set("id", r.id).Set("rev", ProtocolRevision)
	if shm {
		ok.Set("shm", "1")
	}
	c.reply(ok)
}

func (c *serverConn) opExit(context.Context, request) { c.quit = true }

// opShmReq is promotion, step one: the client has taken enough replies
// over the socket to pay for a ring and asks for one. Create the
// segment and answer with its path. The request uses up HELLO's shm —
// a connection is promoted once or never — and a creation failure (full
// tmpfs, exotic fs) is an ERROR that leaves the client on the socket.
func (c *serverConn) opShmReq(_ context.Context, r request) {
	c.mu.Lock()
	granted := c.shmOK
	c.shmOK = false
	c.mu.Unlock()
	if !granted {
		c.unknownVerb(r.m)
		return
	}
	c.shmStart = time.Now()
	seg, path, err := createShmSegment()
	if err != nil {
		c.srv.tel.Load().shm.failed.Inc()
		c.replyErr(r.id, err)
		return
	}
	c.shmSeg, c.shmPath = seg, path
	c.reply(wire.NewMessage("OK").Set("id", r.id).Set("shmfile", path))
}

// opShmRdy is step two: the client has mapped the segment, and this
// frame is the last framed byte it will ever write to the socket — it
// swapped its write side onto the ring behind it. We are the read loop,
// between two RecvIntos, so the read side swaps here; the OK and the
// write-side swap are one step (SendSwap), because event and
// blocked-GET goroutines write whenever they like: the OK reaches the
// socket even under pushEvents' open cork, and whatever they send after
// it reaches the ring. A SHMRDY that carries an error reports a segment
// the client could not map.
func (c *serverConn) opShmRdy(_ context.Context, r request) {
	seg := c.takeShmSegment()
	if seg == nil {
		c.unknownVerb(r.m) // no SHMREQ before it
		return
	}
	shm := c.srv.tel.Load().shm
	if text := r.m.Get("error"); text != "" {
		shm.failed.Inc()
		c.replyErr(r.id, errors.New(text))
		return
	}
	ep := seg.Endpoint(true, c.raw)
	ep.Activate()
	c.wc.SwapRead(ep)
	shm.done(c.shmStart, c.wc.SendSwap(wire.NewMessage("OK").Set("id", r.id), ep))
}

// opPing is the wire-level liveness probe. Answered inline on the read
// loop — which is the point: a client's heartbeat must get through even
// while bulk replies stream from side goroutines.
func (c *serverConn) opPing(_ context.Context, r request) {
	c.reply(wire.NewMessage("PONG").Set("id", r.id))
	r.obs.end()
}

// opStats reports on the daemon, not on any attribute space, so
// monitoring tools can probe a server without joining (and without
// bumping refcounts).
func (c *serverConn) opStats(_ context.Context, r request) {
	srv := c.srv
	tel := srv.tel.Load()
	snap := tel.reg.Snapshot()
	if r.m.Get("scope") == "tree" {
		if fn := srv.statsKids.Load(); fn != nil {
			snap = telemetry.MergeSnapshots(append([]telemetry.Snapshot{snap}, (*fn)()...)...)
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		c.replyErr(r.id, err)
	} else {
		c.reply(wire.NewMessage("STATSV").
			Set("id", r.id).
			Set("daemon", tel.tracer.Actor()).
			Set("json", string(data)))
	}
	r.obs.end()
}

func (c *serverConn) opPut(ctx context.Context, r request) {
	seq, err := r.t.put(ctx, r.m.Get("attr"), r.m.Get("value"))
	c.replySeq(r, seq, err)
}

func (c *serverConn) opMPut(ctx context.Context, r request) {
	pairs, err := decodeBatch(r.m)
	var seq uint64
	if err == nil {
		seq, err = r.t.putBatch(ctx, pairs)
	}
	c.replySeq(r, seq, err)
}

func (c *serverConn) opDelete(ctx context.Context, r request) {
	seq, err := r.t.delete(ctx, r.m.Get("attr"))
	c.replySeq(r, seq, err)
}

// opTryGet never blocks, which is why the ctx scope spells its only
// read this way (CGET): the router's pooled connection must never stall
// behind an op that could wait forever.
func (c *serverConn) opTryGet(ctx context.Context, r request) {
	attribute := r.m.Get("attr")
	v, seq, err := r.t.tryGet(ctx, attribute)
	c.replyValue(r, attribute, v, seq, err)
}

func (c *serverConn) opGet(ctx context.Context, r request) {
	attribute := r.m.Get("attr")
	// Fast path: when the attribute is already present (in the context,
	// or in the global cache) the GET cannot block, so answer inline and
	// skip the per-request goroutine — the common case once a job is
	// running.
	if v, seq, err := r.t.tryGet(ctx, attribute); err == nil {
		c.replyValue(r, attribute, v, seq, nil)
		return
	}
	// Blocking get: serve it on its own goroutine so this session keeps
	// processing other requests (the multiplexing that makes async gets
	// possible on a single connection). The latency histogram therefore
	// includes the time spent blocked — the number a tool writer actually
	// experiences. The request was decoded in place: what the goroutine
	// takes must be its own.
	r.id, attribute = strings.Clone(r.id), strings.Clone(attribute)
	go func() {
		v, seq, err := r.t.get(ctx, attribute)
		c.replyValue(r, attribute, v, seq, err)
	}()
}

// opSnapshot dumps a context. The versioned form — each entry with its
// write seq (s<i>), the reply with the context seq, chunked when large —
// is what tdp.Handle.WatchUpdates re-reads the context with after a
// declared loss (SNAP seqs=1, through Client.SnapshotSeq), skipping the
// events the read already covers, and what the router's scatter-gather
// reads (CSNAP, always); the plain form is the tool-facing
// tdp_snapshot.
func (c *serverConn) opSnapshot(ctx context.Context, r request) {
	if r.t.gc == nil && (r.spec.scope == scopeCtx || r.m.Get("seqs") == "1") {
		c.sendVersioned(r)
		return
	}
	snap, err := r.t.snapshot(ctx)
	if err != nil {
		c.fail(r, err)
		return
	}
	c.reply(snapReply(r.id, snap))
	r.obs.end()
}

// snapReply renders a plain snapshot: SNAPV n k0 v0 k1 v1 …
func snapReply(id string, snap map[string]string) *wire.Message {
	reply := wire.NewMessage("SNAPV").Set("id", id).SetInt("n", len(snap))
	i := 0
	for k, v := range snap {
		idx := strconv.Itoa(i)
		reply.Set("k"+idx, k).Set("v"+idx, v)
		i++
	}
	return reply
}

// opSnapMany is the multi-context snapshot: scatter-gather across the
// CASS shards. Strict by design — any unreachable context fails the
// request, because a snapshot that silently omits contexts reads as
// "they are empty".
func (c *serverConn) opSnapMany(ctx context.Context, r request) {
	defer r.obs.end()
	names, err := readNames(r.m)
	if err != nil {
		c.replyErr(r.id, fmt.Errorf("gsnapm: %w", err))
		return
	}
	snaps, err := r.t.gc.SnapshotMany(ctx, names)
	// One pair per context, the value a JSON object of its attributes.
	docs := make(map[string]string, len(snaps))
	for name, snap := range snaps {
		if err != nil {
			break
		}
		var data []byte
		data, err = json.Marshal(snap)
		docs[name] = string(data)
	}
	if err != nil {
		c.replyErr(r.id, err)
		return
	}
	c.reply(snapReply(r.id, docs))
}

// opContexts lists context names: this daemon's own (CCTXS, what a
// shard answers the router with), or the deduplicated union over every
// reachable shard (GCTXS). The union is best-effort by design — a down
// shard hides its contexts but does not hide the survivors'.
func (c *serverConn) opContexts(ctx context.Context, r request) {
	var names []string
	if r.t.gc != nil {
		names, _ = r.t.gc.GlobalContexts(ctx)
	} else {
		names = c.srv.space.Contexts()
	}
	c.reply(setNames(wire.NewMessage("OK").Set("id", r.id), names))
	r.obs.end()
}

func (c *serverConn) opSub(_ context.Context, r request) {
	defer r.obs.end()
	c.mu.Lock()
	already := c.sub != nil
	var err error
	if !already {
		c.sub, err = r.t.ref.Subscribe(int(c.srv.evBuf.Load()))
	}
	sub := c.sub
	c.mu.Unlock()
	if already {
		err = errors.New("already subscribed")
	}
	if err != nil {
		c.replyErr(r.id, err)
		return
	}
	go c.pushEvents(sub)
	c.reply(wire.NewMessage("OK").Set("id", r.id).Set("inc", strconv.FormatUint(sub.Inc, 36)).
		Set("seq", strconv.FormatUint(sub.Seq, 10)).Set("origin", strconv.FormatUint(sub.ID, 36)))
}

// decodeBatch extracts the k0/v0..k(n-1)/v(n-1) pairs of an MPUT. The
// count must be sane before any per-pair work happens: a hostile n
// cannot cost more than the fields actually present.
func decodeBatch(m *wire.Message) ([]attr.KV, error) {
	n, ok := m.Lookup("n")
	if !ok {
		return nil, errors.New("mput: missing n")
	}
	count, err := strconv.Atoi(n)
	if err != nil || count < 0 || count > len(m.Fields) {
		return nil, fmt.Errorf("mput: bad n %q", n)
	}
	pairs := make([]attr.KV, 0, count)
	for i := 0; i < count; i++ {
		k, ok := indexed(m, 'k', i)
		if !ok {
			return nil, fmt.Errorf("mput: missing k%d", i)
		}
		v, ok := indexed(m, 'v', i)
		if !ok {
			return nil, fmt.Errorf("mput: missing v%d", i)
		}
		pairs = append(pairs, attr.KV{Key: k, Value: v})
	}
	return pairs, nil
}

// SnapChunkEntries is the entry-count threshold above which versioned
// snapshot replies are split into part/more chunks. 256 entries keep
// each frame well under 64KiB for typical attribute sizes while leaving
// few enough parts that chunking overhead is negligible.
const SnapChunkEntries = 256

func appendEntries(m *wire.Message, entries []entry) {
	for i, e := range entries {
		idx := strconv.Itoa(i)
		m.Set("k"+idx, e.k).Set("v"+idx, e.v).Set("s"+idx, strconv.FormatUint(e.seq, 10))
	}
}

// sendVersioned answers r with its context's full versioned snapshot as
// SNAPV replies and ends the request. Up to SnapChunkEntries go out as
// one message. Larger replies are split into parts of SnapChunkEntries
// each and sent from their own goroutine, so the read loop keeps
// servicing the connection — PING heartbeats and events interleave
// with the replay, one frame at a time, instead of queueing behind it.
func (c *serverConn) sendVersioned(r request) {
	snap, ctxSeq, err := r.t.ref.SnapshotSeq()
	if err != nil {
		c.fail(r, err)
		return
	}
	entries := make([]entry, 0, len(snap))
	for k, v := range snap {
		entries = append(entries, entry{k: k, v: v.Value, seq: v.Seq})
	}
	seqStr := strconv.FormatUint(ctxSeq, 10)
	if len(entries) <= SnapChunkEntries {
		m := wire.NewMessage("SNAPV").Set("id", r.id).SetInt("n", len(entries)).Set("seq", seqStr)
		appendEntries(m, entries)
		c.reply(m)
		r.obs.end()
		return
	}
	go func() {
		defer r.obs.end()
		total := len(entries)
		for lo := 0; lo < total; lo += SnapChunkEntries {
			hi := min(lo+SnapChunkEntries, total)
			m := wire.NewMessage("SNAPV").Set("id", r.id).SetInt("n", hi-lo).
				Set("seq", seqStr).SetInt("part", lo/SnapChunkEntries).SetInt("total", total)
			if hi < total {
				m.Set("more", "1")
			}
			appendEntries(m, entries[lo:hi])
			if err := c.wc.Send(m); err != nil {
				c.srv.log().Debugf("attrspace: chunked SNAPV to %v failed: %v", c.raw.RemoteAddr(), err)
				return
			}
		}
	}()
}

// pushEvents forwards subscription updates to the peer. The client's
// read loop never waits for its consumer — a full Events channel drops
// and declares (Event.Lost) — so a subscriber that lags does not push
// back on the socket and never stalls the request/reply path. Bursts
// (a batched put, a publisher faster than the network) go out under one
// Cork, so a burst leaves in a single write. A burst sends only what
// was queued when it began, at most the subscription's buffer plus the
// update that opened it: replies on the connection queue behind the
// cork, and a publisher that keeps the channel full must not hold them
// there for an unbounded write.
// A burst samples the subscription's drop count twice. Drops since the
// last sample ride its first EVENT as a lost=<delta> field, so a
// mirroring consumer knows its picture has a gap; drops that happened
// while the burst was being sent are declared by a value-less EVENT
// op=lost that closes it — a stream's last burst has no next EVENT to
// wait for.
func (c *serverConn) pushEvents(sub *attr.Subscription) {
	tel := c.srv.tel.Load()
	updates := sub.Updates()
	var reported uint64
	// undeclared returns the drops since the sample before.
	undeclared := func() (lost uint64) {
		if l := sub.Lost(); l > reported {
			lost, reported = l-reported, l
			tel.evLost.Add(int64(lost))
		}
		return lost
	}
	for u := range updates {
		lost := undeclared()
		tel.evDepth.Set(int64(len(updates)))
		c.wc.Cork()
		err := c.sendEvent(u, lost)
		sent := 1
		for n := len(updates); n > 0 && err == nil; n-- {
			u, ok := <-updates
			if !ok {
				break
			}
			err = c.sendEvent(u, 0)
			sent++
		}
		if err == nil {
			if lost = undeclared(); lost > 0 {
				err = c.wc.Send(wire.NewMessage("EVENT").
					Set("op", "lost").Set("lost", strconv.FormatUint(lost, 10)))
				sent++
			}
		}
		if uerr := c.wc.Uncork(); err == nil {
			err = uerr
		}
		if err != nil {
			return
		}
		tel.evPushed.Add(int64(sent))
	}
}

func (c *serverConn) sendEvent(u attr.Update, lost uint64) error {
	m := wire.NewMessage("EVENT").
		Set("attr", u.Attr).
		Set("value", u.Value).
		Set("op", u.Op.String()).
		SetUint("seq", u.Seq)
	if lost > 0 {
		m.Set("lost", strconv.FormatUint(lost, 10))
	}
	return c.wc.Send(m)
}

// reply sends m unless Close has begun. Then it closes the connection
// instead, so the peer sees its request lost, not answered from state
// that Close's teardown of other connections has already changed.
func (c *serverConn) reply(m *wire.Message) {
	if c.srv.closed.Load() {
		c.raw.Close()
		return
	}
	if err := c.wc.Send(m); err != nil {
		c.srv.log().Debugf("attrspace: send to %v failed: %v", c.raw.RemoteAddr(), err)
	}
}

func (c *serverConn) replyErr(id string, err error) {
	c.reply(wire.NewMessage("ERROR").Set("id", id).Set("error", err.Error()))
}

// ListenAndServe starts the server on a network address and returns
// the bound address. A plain host:port listens on TCP; the form
// "unix:/path/to.sock" listens on a unix-domain socket (the same-host
// fast path — stale socket files from a crashed predecessor are
// removed first). Used by cmd/lassd and cmd/cassd; a daemon may call
// it more than once to serve TCP and unix simultaneously.
func (s *Server) ListenAndServe(addr string) (string, error) {
	network, address := "tcp", addr
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, address = "unix", path
		os.Remove(path)
	}
	l, err := net.Listen(network, address)
	if err != nil {
		return "", err
	}
	go func() {
		if err := s.Serve(l); err != nil {
			s.log().Errorf("attrspace: serve: %v", err)
		}
	}()
	if network == "unix" {
		return "unix:" + l.Addr().String(), nil
	}
	return l.Addr().String(), nil
}

// ListenUnixBeside derives the conventional same-host socket path for a
// TCP address this server is already serving and listens there too, so
// local clients can skip the TCP stack (see AutoDial). It returns the
// "unix:..." address, or "" with a nil error when the TCP address has
// no usable port.
func (s *Server) ListenUnixBeside(tcpAddr string) (string, error) {
	path := SocketPathFor(tcpAddr)
	if path == "" {
		return "", nil
	}
	return s.ListenAndServe("unix:" + path)
}
