package attrspace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/liveness"
	"tdp/internal/telemetry"
)

// API is the attribute-space surface the tdp layer programs against:
// everything Handle (attrops.go, async.go, monitor.go) calls on its
// LASS/CASS connection — each operation once, taking the scope it lands
// at. Both the raw *Client and the reconnecting *Session satisfy it,
// which is how Config.Resilient swaps one for the other without the
// upper layers noticing.
type API interface {
	PutAt(ctx context.Context, scope Scope, attribute, value string) (uint64, error)
	PutBatchAt(ctx context.Context, scope Scope, pairs []KV) (uint64, error)
	GetAt(ctx context.Context, scope Scope, attribute string) (string, uint64, error)
	TryGetAt(ctx context.Context, scope Scope, attribute string) (string, uint64, error)
	DeleteAt(ctx context.Context, scope Scope, attribute string) (uint64, error)
	SnapshotAt(ctx context.Context, scope Scope) (map[string]string, error)
	SnapshotGlobalMany(ctx context.Context, contexts []string) (map[string]map[string]string, error)
	GlobalContexts(ctx context.Context) ([]string, error)
	GetAsync(attribute string) (<-chan Result, error)
	PutAsync(attribute, value string) (<-chan Result, error)
	Subscribe() error
	Events() <-chan Event
	SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer)
	Close() error
}

var (
	_ API = (*Client)(nil)
	_ API = (*Session)(nil)
)

// ErrSessionClosed is returned for operations on a Session after Close.
var ErrSessionClosed = errors.New("attrspace: session closed")

// ErrSessionGaveUp reports that the reconnect loop exhausted its attempt
// budget; the session is terminal and every subsequent operation fails
// with this error.
var ErrSessionGaveUp = errors.New("attrspace: session gave up reconnecting")

// DefaultMaxAttempts is the consecutive-failure budget of one outage
// when SessionConfig.MaxAttempts is zero.
const DefaultMaxAttempts = 8

// SessionConfig configures a reconnecting Session.
type SessionConfig struct {
	Dial    DialFunc // nil = TCPDial
	Addr    string
	Context string

	// Backoff is the reconnect schedule; zero value = 50 ms doubling to 2 s.
	Backoff liveness.Schedule
	// MaxAttempts bounds consecutive failed connect attempts in one
	// outage before the session turns terminal (ErrSessionGaveUp).
	// 0 = DefaultMaxAttempts, negative = retry forever. The counter
	// resets on every successful connect.
	MaxAttempts int
	// ConnectWait bounds how long one operation waits for a live
	// connection before failing with ErrConnLost. 0 = 15s, negative =
	// wait as long as the caller's context allows.
	ConnectWait time.Duration
	// DialTimeout bounds each individual dial + HELLO round trip.
	// 0 = 3s.
	DialTimeout time.Duration
	// Heartbeat, when > 0, pings the server at this interval on every
	// live connection and declares the connection lost when a ping gets
	// no reply within one interval — catching half-dead transports that
	// never produce a read error. 0 = disabled.
	Heartbeat time.Duration

	// Registry receives the session.* counters; nil = a private one.
	// (What each connection counts and traces is SetTelemetry's to say.)
	Registry *telemetry.Registry
	Logger   *telemetry.Logger // reconnect diagnostics; nil discards
}

// Session is a self-healing connection to a LASS or CASS: a Client
// that, when the transport dies, reconnects with jittered exponential
// backoff, re-issues HELLO, replays its subscription, resynchronizes
// its event stream from a versioned snapshot, and retries the
// interrupted operation under the caller's deadline. It serves the same
// scoped operations as a Client. Idempotent reads retry blindly;
// mutations whose ack was lost are seq-guarded at either scope — the
// session probes the attribute on the new connection and only re-sends
// when the probe shows its write is not (or no longer) there, so a
// retried put can never clobber a newer value with a stale one.
//
// Consumers of Events() additionally see Event{Resync: true} markers:
// a bare Op "resync" event first (the gap announcement), then
// synthetic put/delete events replaying what was missed — after a
// reconnect, and after any event that declares a loss (Lost > 0). Per-
// attribute event order stays monotonic in seq across any number of
// gaps.
type Session struct {
	cfg SessionConfig

	mu     sync.Mutex
	cur    *Client       // nil while disconnected
	gen    uint64        // bumped on every successful install
	ready  chan struct{} // closed while cur != nil; replaced on loss
	err    error         // terminal error; nil while alive
	subbed bool
	// What SetTelemetry installed, handed to every connection. Nil until
	// then: a session nobody instruments (the router's) counts no frames.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer

	done     chan struct{} // closed exactly once on terminal failure/Close
	doneOnce sync.Once

	// emitMu serializes everything that delivers events downstream —
	// live pushes, resync replays, channel close — so consumers observe
	// one totally-ordered stream, and guards rep, the record of what
	// they have been told, so per-attr seq checks are atomic with
	// delivery.
	emitMu   sync.Mutex
	rep      replica
	events   chan Event
	evClosed bool
	handler  func(Event)

	// maxSeq is, per scope, the newest context seq this session has
	// observed from any ack, reply, or event: the baseline for
	// seq-guarded retries. Local seqs are the LASS context's, Global ones
	// the owning CASS shard's.
	maxSeq [numScopes]atomic.Uint64

	everConnected bool

	cReconnects *telemetry.Counter
	cRetries    *telemetry.Counter
	cGaveUp     *telemetry.Counter
	cResyncs    *telemetry.Counter
}

// NewSession starts a session toward addr/context. It returns
// immediately: the first connection is established by the background
// reconnect loop, and operations issued before it lands simply wait
// (bounded by ConnectWait / their context). Use WaitReady to block
// until the session is live — tdp.Init does, so a missing daemon still
// surfaces as a prompt error when the caller wants one.
func NewSession(cfg SessionConfig) *Session {
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts // negative stays: Retry's "forever"
	}
	if cfg.ConnectWait == 0 {
		cfg.ConnectWait = 15 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := &Session{
		cfg:    cfg,
		ready:  make(chan struct{}),
		done:   make(chan struct{}),
		rep:    replica{entries: make(map[string]rentry)},
		events: make(chan Event, 256),
	}
	s.bindCounters(cfg.Registry)
	go s.connectLoop()
	return s
}

func (s *Session) bindCounters(reg *telemetry.Registry) {
	s.cReconnects = reg.Counter("session.reconnects")
	s.cRetries = reg.Counter("session.retries")
	s.cGaveUp = reg.Counter("session.gaveup")
	s.cResyncs = reg.Counter("session.resyncs")
}

func (s *Session) log() *telemetry.Logger { return s.cfg.Logger }

// Stats reports the session's lifetime resilience counters:
// reconnects (successful re-establishments after the first connect),
// retries (operations re-issued after a transport failure), and
// resyncs (replays closing a gap: a reconnect's, or a declared loss).
func (s *Session) Stats() (reconnects, retries, resyncs int64) {
	return s.cReconnects.Value(), s.cRetries.Value(), s.cResyncs.Value()
}

// gaveUp reports whether the reconnect loop exhausted its budget and
// turned the session terminal.
func (s *Session) gaveUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Is(s.err, ErrSessionGaveUp)
}

// up reports whether the session currently holds a live connection.
// False means disconnected: either still dialing the first connection
// or inside a reconnect outage.
func (s *Session) up() bool {
	c, _ := s.live()
	return c != nil
}

// live returns the current connection without waiting — nil while
// disconnected — and whether the session has ever held one: nil before
// the first connect means "not yet", after it means "lost" (the shard
// router fails fast on the second and waits out the first).
func (s *Session) live() (c *Client, ever bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.everConnected
}

// WaitReady blocks until the session has a live connection, the
// session turns terminal, ctx expires, or ConnectWait runs out.
func (s *Session) WaitReady(ctx context.Context) error {
	_, _, err := s.client(ctx)
	return err
}

// connectLoop is the single-flight reconnect driver: exactly one runs
// per outage (spawned by NewSession and by lost()), and it exits as
// soon as a connection is installed, the session closes, or the
// attempt budget runs dry.
func (s *Session) connectLoop() {
	err := liveness.Retry(liveness.System, s.done, s.cfg.Backoff, s.cfg.MaxAttempts, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DialTimeout)
		defer cancel()
		c, err := DialCtx(ctx, s.cfg.Dial, s.cfg.Addr, s.cfg.Context)
		if err == nil && !s.install(c) {
			// The session closed underneath us, or the subscription
			// replay died: a failed attempt either way.
			err = ErrConnLost
		}
		if err != nil {
			s.log().Debugf("attrspace: session connect %s failed: %v", s.cfg.Addr, err)
		}
		return err
	})
	if err != nil { // the budget is spent: liveness.ErrGaveUp
		s.cGaveUp.Inc()
		s.log().Errorf("attrspace: session %s: %v", s.cfg.Addr, err)
		s.fail(fmt.Errorf("%w: %w", ErrSessionGaveUp, err))
	}
}

// install publishes a freshly-dialed client as the current connection:
// bump the generation, replay the subscription if one is active, wire
// the loss trigger, then bring the event stream in step (rebase).
// Returns false when the client could not be installed (session closed,
// or the subscription replay failed) — the connect loop counts that as
// a failed attempt.
func (s *Session) install(c *Client) bool {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		c.Close()
		return false
	}
	s.gen++
	gen := s.gen
	subbed := s.subbed
	reconnect := s.everConnected
	reg, tracer := s.reg, s.tracer
	s.mu.Unlock()

	var gate *evGate
	var at subMark
	if subbed {
		var err error
		if gate, at, err = s.subscribe(c); err != nil {
			c.Close()
			return false
		}
	}
	if reg != nil || tracer != nil {
		c.SetTelemetry(reg, tracer)
	}

	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		c.Close()
		return false
	}
	s.cur = c
	s.everConnected = true
	close(s.ready)
	s.mu.Unlock()

	if reconnect {
		s.cReconnects.Inc()
		s.log().Infof("attrspace: session reconnected to %s (gen %d)", s.cfg.Addr, gen)
	}
	// The loss trigger arms after publication: if the client is already
	// dead, onClose fires immediately and tears this generation down.
	c.onClose(func(error) { s.lost(gen, c) })
	// The heartbeat starts before the resync on purpose: pings running
	// concurrently with a large snapshot replay are exactly the traffic
	// the server's chunked replies exist to keep answering.
	if s.cfg.Heartbeat > 0 {
		go s.heartbeat(gen, c)
	}
	if gate != nil {
		s.rebase(gate, at, false)
	}
	return true
}

// lost retires generation gen: the first caller (the client's onClose
// hook, or an operation that saw a retryable error) clears the current
// client and spawns the next connect loop; later callers for the same
// generation are no-ops.
func (s *Session) lost(gen uint64, c *Client) {
	s.mu.Lock()
	if s.err != nil || s.gen != gen || s.cur != c {
		s.mu.Unlock()
		return
	}
	s.cur = nil
	s.ready = make(chan struct{})
	s.mu.Unlock()
	c.Close()
	s.log().Debugf("attrspace: session lost connection to %s (gen %d)", s.cfg.Addr, gen)
	go s.connectLoop()
}

// fail turns the session terminal exactly once.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	c := s.cur
	s.cur = nil
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
	s.doneOnce.Do(func() { close(s.done) })
	s.emitMu.Lock()
	if !s.evClosed {
		s.evClosed = true
		close(s.events)
	}
	s.emitMu.Unlock()
}

// Close tears the session down. Idempotent.
func (s *Session) Close() error {
	s.fail(ErrSessionClosed)
	return nil
}

// client returns the current connection, waiting through an outage if
// necessary. The wait is bounded by ctx and by ConnectWait, whichever
// ends first; with a connection in hand it allocates nothing.
func (s *Session) client(ctx context.Context) (*Client, uint64, error) {
	var bound <-chan time.Time
	for {
		s.mu.Lock()
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return nil, 0, err
		}
		if s.cur != nil {
			c, gen := s.cur, s.gen
			s.mu.Unlock()
			return c, gen, nil
		}
		ready := s.ready
		s.mu.Unlock()
		if bound == nil && s.cfg.ConnectWait > 0 {
			t := time.NewTimer(s.cfg.ConnectWait)
			defer t.Stop()
			bound = t.C
		}
		select {
		case <-ready:
		case <-s.done:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-bound:
			return nil, 0, fmt.Errorf("%w: no connection to %s after %v", ErrConnLost, s.cfg.Addr, s.cfg.ConnectWait)
		}
	}
}

// noteSeq folds a context seq observed at scope from an ack or reply
// into that scope's retry baseline.
func (s *Session) noteSeq(scope Scope, seq uint64) {
	high := &s.maxSeq[scope]
	for {
		cur := high.Load()
		if seq <= cur || high.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Event stream: live delivery, loss, and resync.

// evGate stands between one connection's live events and deliver. It
// is shut while the replica is being brought in step with the server —
// from SUB until the rebase that follows it, and through every repair
// of a declared loss — and holds the events that arrive meanwhile, so
// none is judged against a replica about to change under it; opening
// flushes them in arrival order. The held backlog is bounded in
// practice by one resync RPC (cfg.DialTimeout).
type evGate struct {
	s    *Session
	c    *Client
	mu   sync.Mutex
	shut bool
	pend []Event
}

// handle is the connection's event handler, on its read loop.
func (g *evGate) handle(ev Event) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pend = append(g.pend, ev)
	if !g.shut {
		g.flushLocked()
	}
}

// resync is the session's one repair path run behind the shut gate;
// then the gate opens.
func (g *evGate) resync() {
	g.s.resync(g.c)
	g.release()
}

func (g *evGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flushLocked()
}

// flushLocked delivers what is held, in arrival order and under the
// mutex, so an event arriving meanwhile cannot overtake the backlog. An
// event that declares a loss shuts the gate behind it: the repair, a
// resync of the whole snapshot (deliver zeroed the high-water), waits
// for its reply on the read loop that called handle, so it runs on a
// goroutine of its own.
func (g *evGate) flushLocked() {
	g.shut = false
	for i, ev := range g.pend {
		g.s.deliver(ev)
		if ev.Lost > 0 {
			g.pend, g.shut = append(g.pend[:0], g.pend[i+1:]...), true
			go g.resync()
			return
		}
	}
	g.pend = g.pend[:0]
}

// subscribe makes c's subscription with a shut gate as its handler and
// returns the gate with what SUB's OK said; the caller rebases. A nil
// gate and error: c was subscribed already.
func (s *Session) subscribe(c *Client) (*evGate, subMark, error) {
	g := &evGate{s: s, c: c, shut: true}
	at, made, err := c.subscribe(g.handle)
	if !made {
		g = nil
	}
	return g, at, err
}

// rebase brings the replica in step with the subscription just made on
// g's connection, then opens the gate. The first subscription has no
// gap to close: it records the incarnation, and the replica holds what
// events deliver from then on. After that the incarnation decides: the
// same one means what was missed is what the snapshot holds above the
// replica's high-water seq (0 while nothing has been applied, which
// replays the whole context); another means the context was recreated
// while the session was away — consumers get a synthetic destroy
// (unless a live one already told them), and the replica starts over,
// so the new incarnation is replayed whole.
func (s *Session) rebase(g *evGate, at subMark, first bool) {
	s.emitMu.Lock()
	switch {
	case first:
		s.rep.inc = at.inc
	case at.inc != s.rep.inc:
		if s.rep.inc != 0 {
			s.forwardLocked(Event{Op: "destroy", Resync: true})
		}
		s.rep.reset(at.inc)
	}
	s.emitMu.Unlock()
	if first {
		g.release()
	} else {
		g.resync()
	}
}

// deliver forwards one server-pushed event downstream, holding the
// per-attribute monotonic-seq invariant across gaps: an event whose seq
// is not newer than what consumers have already seen for that attribute
// is dropped (it is a replay straddling a reconnect). An event that
// declares a loss zeroes the replica's high-water seq: the ring drops
// the oldest queued updates, older than ones delivered after them, so
// the writes it lost lie below the high-water, and the repair that
// follows (flushLocked) must treat the whole snapshot as news.
func (s *Session) deliver(ev Event) {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	fresh := true
	switch {
	case ev.Op == "destroy":
		s.rep.reset(0) // the incarnation is gone, and consumers are told
	case ev.Seq != 0:
		if fresh = s.rep.apply(ev.Attr, ev.Value, ev.Seq, ev.Op == "delete"); fresh {
			s.noteSeq(Local, ev.Seq)
		}
	}
	if ev.Lost > 0 {
		s.rep.seq = 0
	}
	if fresh {
		s.forwardLocked(ev)
	}
}

// forwardLocked hands an event to the consumer; emitMu held. A handler
// sees every event synchronously; the channel drops oldest under a
// lagging consumer and declares it in Lost, exactly like Client.Events.
func (s *Session) forwardLocked(ev Event) {
	if s.evClosed {
		return
	}
	if s.handler != nil {
		s.handler(ev)
		return
	}
	offer(s.events, ev)
}

// resync closes a gap in the event stream — a reconnect's, a declared
// loss's, a new incarnation's — from the context's versioned snapshot
// (SNAP seqs=1, chunked when large). Consumers get a bare Resync marker,
// then each write the replica takes as news (replica.applyFull): in
// the same incarnation only what lies above its high-water seq, and a
// delete for an attribute the context no longer holds. A failed fetch
// changes nothing; a transport error also fails the client, and the
// next install resyncs again.
func (s *Session) resync(c *Client) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DialTimeout)
	defer cancel()
	snap, ctxSeq, err := c.SnapshotSeq(ctx)
	if err != nil {
		s.log().Debugf("attrspace: session resync failed: %v", err)
		return
	}
	s.cResyncs.Inc()
	s.noteSeq(Local, ctxSeq)
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.forwardLocked(Event{Op: "resync", Seq: ctxSeq, Resync: true})
	s.rep.applyFull(snap, ctxSeq, s.forwardLocked)
}

// heartbeat probes one connection generation with periodic PINGs, each
// bounded by one interval, and retires it through the normal loss path
// when one goes unanswered. It runs alongside everything else the
// connection does — a chunked snapshot replay included, so large resyncs
// do not read as dead transports — and ends with the generation: a ping
// on a closed client fails at once.
func (s *Session) heartbeat(gen uint64, c *Client) {
	if err := liveness.Watch(liveness.System, s.done, s.cfg.Heartbeat, s.cfg.Heartbeat, c.ping); err != nil {
		s.log().Debugf("attrspace: session heartbeat to %s failed (gen %d): %v", s.cfg.Addr, gen, err)
		s.lost(gen, c)
	}
}

// Events returns the session's event channel. Unlike Client.Events it
// survives reconnects; it closes only when the session turns terminal.
func (s *Session) Events() <-chan Event { return s.events }

// setEventHandler installs a synchronous per-event callback replacing
// the Events channel, with the same contract as Client.SetEventHandler
// — plus delivery of the session's synthetic Resync events. The
// handler must not call back into this session's blocking operations.
func (s *Session) setEventHandler(fn func(Event)) {
	s.emitMu.Lock()
	s.handler = fn
	s.emitMu.Unlock()
}

// Subscribe starts event push and keeps it running: the subscription
// is replayed automatically on every reconnect, with a resync filling
// whatever the outage dropped.
func (s *Session) Subscribe() error {
	s.mu.Lock()
	if s.subbed {
		s.mu.Unlock()
		return nil
	}
	s.subbed = true
	s.mu.Unlock()
	return s.retry(context.Background(), func(c *Client) error {
		g, at, err := s.subscribe(c) // nil gate: install subscribed c already
		if g != nil {
			s.rebase(g, at, true)
		}
		return err
	})
}

// ---------------------------------------------------------------------------
// Retry plumbing.

// retry runs op against the current connection, re-issuing it after
// transport failures until it settles, the caller's ctx expires, or the
// session turns terminal. Only for idempotent operations — mutations go
// through putGuarded below.
func (s *Session) retry(ctx context.Context, op func(*Client) error) error {
	for {
		c, gen, err := s.client(ctx)
		if err != nil {
			return err
		}
		err = op(c)
		if err == nil || !IsRetryable(err) {
			return err
		}
		s.cRetries.Inc()
		s.lost(gen, c)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
}

// probe decides an interrupted mutation's fate — a put of value, or a
// delete when del — by reading the attribute at the mutation's scope on
// the (new) connection and comparing seqs against base, the newest seq
// the session had observed at that scope before issuing it. It reports
// the mutation settled — not to be re-sent — when it landed or was
// superseded:
//
//	put of ours present        → landed (re-sending is at worst a no-op)
//	delete, attribute absent   → landed
//	put, attribute absent      → not landed (or landed and deleted —
//	                             single-writer attributes make this
//	                             the put that simply never arrived)
//	other value, seq <= base   → the value from before: not landed
//	other value, seq >  base   → someone wrote after us; treat ours as
//	                             superseded rather than re-sending a
//	                             stale write over it
//
// seq is the write's own when the probe found it landed, 0 otherwise.
func (s *Session) probe(ctx context.Context, c *Client, scope Scope, attribute, value string, del bool, base uint64) (settled bool, seq uint64, err error) {
	v, seq, err := c.TryGetAt(ctx, scope, attribute)
	switch {
	case errors.Is(err, ErrNotFound):
		return del, 0, nil
	case err != nil:
		return false, 0, err
	}
	s.noteSeq(scope, seq)
	if !del && v == value {
		return true, seq, nil
	}
	return seq > base, 0, nil
}

// putGuarded is the seq-guarded retry loop of every mutation at either
// scope: issue it; when the transport dies with the ack in flight (fate
// unknown), probe attribute — the put's, a batch's final pair, the
// delete's — before re-sending, so a retried write never overwrites a
// newer one with a stale value. It returns the acked seq (see probe
// for one settled by a probe).
func (s *Session) putGuarded(ctx context.Context, scope Scope, attribute, value string, del bool, issue func(*Client) (uint64, error)) (uint64, error) {
	base := s.maxSeq[scope].Load()
	for {
		c, gen, err := s.client(ctx)
		if err != nil {
			return 0, err
		}
		seq, err := issue(c)
		if err == nil {
			s.noteSeq(scope, seq)
			return seq, nil
		}
		if !IsRetryable(err) {
			return 0, err
		}
		s.cRetries.Inc()
		s.lost(gen, c)
		if cerr := ctx.Err(); cerr != nil {
			return 0, cerr
		}
		// Fate unknown: probe on a fresh connection before re-sending.
		var settled bool
		err = s.retry(ctx, func(c *Client) (err error) {
			settled, seq, err = s.probe(ctx, c, scope, attribute, value, del, base)
			return err
		})
		if err != nil {
			return 0, err
		}
		if settled {
			return seq, nil
		}
	}
}

// ---------------------------------------------------------------------------
// The operations: Client's, at either scope, made to survive transport
// failures.

// PutAt stores attribute = value at scope. An ack lost to a connection
// failure is resolved by probing the attribute on the next connection
// (see probe); the retried put never clobbers a newer value.
func (s *Session) PutAt(ctx context.Context, scope Scope, attribute, value string) (uint64, error) {
	return s.putGuarded(ctx, scope, attribute, value, false, func(c *Client) (uint64, error) {
		return c.PutAt(ctx, scope, attribute, value)
	})
}

// PutBatchAt stores every pair in order at scope. A batch whose ack was
// lost is probed through its final pair — the batch applies in order,
// so the last pair present means the whole batch landed.
func (s *Session) PutBatchAt(ctx context.Context, scope Scope, pairs []KV) (uint64, error) {
	if len(pairs) == 0 {
		return 0, nil
	}
	last := pairs[len(pairs)-1]
	return s.putGuarded(ctx, scope, last.Key, last.Value, false, func(c *Client) (uint64, error) {
		return c.PutBatchAt(ctx, scope, pairs)
	})
}

// DeleteAt removes an attribute at scope. A delete whose ack was lost
// re-sends only while the attribute still holds a value from before the
// call (seq <= base): absence means it landed, and a newer value means
// re-deleting would destroy a write that superseded us.
func (s *Session) DeleteAt(ctx context.Context, scope Scope, attribute string) (uint64, error) {
	return s.putGuarded(ctx, scope, attribute, "", true, func(c *Client) (uint64, error) {
		return c.DeleteAt(ctx, scope, attribute)
	})
}

// GetAt blocks until the attribute exists at scope, retrying across
// reconnects; cancel via ctx.
func (s *Session) GetAt(ctx context.Context, scope Scope, attribute string) (string, uint64, error) {
	return s.read(ctx, scope, attribute, (*Client).GetAt)
}

// TryGetAt returns the attribute's value at scope without blocking,
// retrying across reconnects; ErrNotFound when absent.
func (s *Session) TryGetAt(ctx context.Context, scope Scope, attribute string) (string, uint64, error) {
	return s.read(ctx, scope, attribute, (*Client).TryGetAt)
}

// read is a get or a tryget, retried; its reply feeds the scope's
// retry baseline.
func (s *Session) read(ctx context.Context, scope Scope, attribute string,
	get func(*Client, context.Context, Scope, string) (string, uint64, error)) (v string, seq uint64, err error) {
	err = s.retry(ctx, func(c *Client) (err error) {
		v, seq, err = get(c, ctx, scope, attribute)
		return err
	})
	if err == nil {
		s.noteSeq(scope, seq)
	}
	return v, seq, err
}

// SnapshotAt dumps the context at scope, retrying across reconnects.
func (s *Session) SnapshotAt(ctx context.Context, scope Scope) (snap map[string]string, err error) {
	err = s.retry(ctx, func(c *Client) (err error) {
		snap, err = c.SnapshotAt(ctx, scope)
		return err
	})
	return snap, err
}

// GetAsync issues a blocking get at Local whose result is delivered on
// the returned channel, retried across reconnects like GetAt.
func (s *Session) GetAsync(attribute string) (<-chan Result, error) {
	out := make(chan Result, 1)
	go func() {
		v, _, err := s.GetAt(context.Background(), Local, attribute)
		out <- Result{Attr: attribute, Value: v, Err: err}
	}()
	return out, nil
}

// PutAsync issues a put at Local whose acknowledgement is delivered on
// the returned channel, with the same seq-guarded retry as PutAt.
func (s *Session) PutAsync(attribute, value string) (<-chan Result, error) {
	out := make(chan Result, 1)
	go func() {
		_, err := s.PutAt(context.Background(), Local, attribute, value)
		out <- Result{Attr: attribute, Value: value, Err: err}
	}()
	return out, nil
}

// SnapshotGlobalMany snapshots several global contexts in one GSNAPM
// scatter-gather, retrying across reconnects (reads are idempotent).
func (s *Session) SnapshotGlobalMany(ctx context.Context, contexts []string) (snaps map[string]map[string]string, err error) {
	err = s.retry(ctx, func(c *Client) (err error) {
		snaps, err = c.SnapshotGlobalMany(ctx, contexts)
		return err
	})
	return snaps, err
}

// GlobalContexts lists the context names alive across the global
// space, retrying across reconnects.
func (s *Session) GlobalContexts(ctx context.Context) (names []string, err error) {
	err = s.retry(ctx, func(c *Client) (err error) {
		names, err = c.GlobalContexts(ctx)
		return err
	})
	return names, err
}

// SetTelemetry installs the registry and tracer handed to every
// underlying client connection; a non-nil registry also takes over the
// session's resilience counters (session.reconnects / retries / gaveup
// / resyncs).
func (s *Session) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	s.mu.Lock()
	if reg != nil {
		s.reg = reg
	}
	if tracer != nil {
		s.tracer = tracer
	}
	reg, tracer = s.reg, s.tracer
	c := s.cur
	s.mu.Unlock()
	if reg != nil {
		s.bindCounters(reg)
	}
	if c != nil {
		c.SetTelemetry(reg, tracer)
	}
}
