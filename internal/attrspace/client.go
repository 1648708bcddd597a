package attrspace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/attr"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// ErrNotFound mirrors attr.ErrNotFound on the client side.
var ErrNotFound = attr.ErrNotFound

// ErrClientClosed is returned for operations on a closed client.
var ErrClientClosed = errors.New("attrspace: client closed")

// ErrConnLost reports an operation cut short by a transport failure:
// the connection died between the request and its reply (or while
// sending it). Unlike a server ERROR, the operation's fate is unknown
// — it may or may not have been applied — which is exactly the case a
// Session's seq-guarded retry exists for.
var ErrConnLost = errors.New("attrspace: connection lost")

// ErrServerDraining reports that the server announced a graceful
// shutdown (the CLOSE verb): in-flight replies were still delivered,
// but no new operations are accepted on this connection. A Session
// treats it like a connection loss and reconnects after backoff.
var ErrServerDraining = errors.New("attrspace: server draining")

// DialFunc opens a stream to an attribute space server. Real TCP uses
// net.Dial("tcp", addr); the simulated network uses (*netsim.Host).Dial.
type DialFunc func(addr string) (net.Conn, error)

// TCPDial is the plain TCP DialFunc. The default when none is supplied
// is AutoDial, which prefers the same-host unix socket for loopback
// endpoints; pass TCPDial explicitly to force TCP.
func TCPDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// clientCaps are the transport capabilities this client offers in
// HELLO; the server grants the intersection with its own. CapShm is
// offered separately, only when the dialed connection is provably
// same-host (see dialWithCaps), and a grant only makes the connection
// eligible for a ring: it starts on the socket and asks for one when
// its traffic has paid for it (see shmPromoteAfter).
var clientCaps = []string{wire.CapMux, wire.CapSnapd, wire.CapChunk, wire.CapPing, wire.CapByteWin}

// Event is a pushed attribute change received after Subscribe.
type Event struct {
	Attr  string
	Value string
	Op    string // "put", "delete", or "destroy"
	Seq   uint64
	// Lost is the number of updates the server's fan-out ring dropped
	// for this subscriber since the previous event (0 almost always).
	// A consumer mirroring the space — the LASS global cache — must
	// treat any nonzero Lost as a gap and resynchronize.
	Lost uint64
	// Resync marks an event synthesized by a Session after a reconnect
	// rather than pushed live by the server: either the bare gap marker
	// (Op "resync", no Attr) emitted first, or a snapshot-diff replay
	// ("put"/"delete") bringing the consumer's mirror back in step.
	// Consumers holding derived state (the LASS global cache, monitors)
	// must treat the marker as "events may have been missed here".
	Resync bool
}

// KV is one attribute/value pair in a batched put; re-exported from
// the attr engine so wire-level and in-process batches share a type.
type KV = attr.KV

// Client is a connection to a LASS or CASS, joined to one context.
// It is safe for concurrent use; any number of blocking Gets may be
// outstanding simultaneously.
type Client struct {
	wc  *wire.Conn
	raw net.Conn

	mu       sync.Mutex
	nextID   uint64
	pending  map[string]chan *wire.Message
	closed   bool
	draining bool // server sent CLOSE; no new sends, replies still land
	err      error

	events  chan Event
	handler func(Event) // when set, replaces the events channel
	onClose func(error)
	subbed  bool

	// Transport v2 state, fixed once HELLO's OK lands: the granted
	// capability set, the stream mux (nil on a v1 connection), and the
	// reassembly buffer for chunked bulk replies, keyed by request id.
	caps   map[string]bool
	mux    *wire.Mux
	chunks map[string][]*wire.Message

	// Transport v3 promotion state. replies counts what the read loop
	// has delivered; reaching shmPromoteAfter starts promote, once.
	// shmSwapID names the in-flight SHMRDY request: when its OK arrives,
	// the read loop activates the ring endpoint and swaps the conn's read
	// side onto it BEFORE delivering the reply — the very next frame
	// already arrives over shared memory. Registered under mu by the same
	// send that registers the pending-reply slot, so the reply can never
	// race the registration.
	replies   uint64
	shmSwapID string
	shmSwapEP *wire.ShmEndpoint
	shmActive bool

	// Async-put coalescing state: queued puts accumulate in putq while
	// a flush is in flight and leave as one MPUT. noMPUT flips on when
	// the server answers MPUT with an unknown-verb error (an older
	// peer); from then on batches fall back to pipelined PUTs. noSNAPD
	// is the same latch for the delta-snapshot verb — belt and braces
	// on top of capability negotiation.
	putq     []pendingPut
	flushing bool
	noMPUT   atomic.Bool
	noSNAPD  atomic.Bool

	// Optional telemetry, installed by SetTelemetry. reg counts
	// per-verb ops and latencies under "client.*"; tracer starts a
	// root span per operation when the caller supplied none.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

// Dial connects to the server at addr using dial and joins the named
// context. Every Dial must be balanced by Close, which performs the
// tdp_exit half of the context's reference counting.
func Dial(dial DialFunc, addr, contextName string) (*Client, error) {
	return DialCtx(context.Background(), dial, addr, contextName)
}

// DialCtx is Dial bounded by a context: a deadline or cancellation
// covers the HELLO round trip, so a server that accepts connections
// but never replies (hung, not dead) cannot wedge the caller. The
// fault supervisor's service pings and the Session reconnect loop
// depend on this bound.
func DialCtx(ctx context.Context, dial DialFunc, addr, contextName string) (*Client, error) {
	return dialWithCaps(ctx, dial, addr, contextName, clientCaps)
}

// dialWithCaps is DialCtx with an explicit capability offer. The shard
// router uses it to offer CapCtxOp on its pooled connections without
// changing what ordinary clients advertise.
func dialWithCaps(ctx context.Context, dial DialFunc, addr, contextName string, caps []string) (*Client, error) {
	if dial == nil {
		dial = AutoDial
	}
	raw, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("attrspace: dial %s: %w", addr, err)
	}
	// The shm transport is only meaningful (and only safe — both ends
	// must reach the same segment file) across a provably same-host
	// connection, so the capability is offered per connection rather
	// than unconditionally. It is an environmental fact, not a cutover:
	// nothing is mapped until the connection has earned it.
	if wire.ShmSupported() && sameHostConn(raw) {
		caps = append(append([]string(nil), caps...), wire.CapShm)
	}
	c := &Client{
		wc:      wire.NewConn(raw),
		raw:     raw,
		pending: make(map[string]chan *wire.Message),
		chunks:  make(map[string][]*wire.Message),
		events:  make(chan Event, 64),
	}
	go c.readLoop()
	if ctx.Done() != nil {
		// Watchdog: a cancelled handshake closes the transport, which
		// fails the read loop and errors the pending HELLO promptly. A
		// caller that cancels ctx the moment Dial returns (defer cancel)
		// makes both channels ready at once; the handshake being over
		// has to win, or a healthy connection is closed under its owner.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				select {
				case <-stop:
				default:
					raw.Close()
				}
			case <-stop:
			}
		}()
	}
	hello := wire.NewMessage("HELLO").Set("context", contextName).
		Set("caps", strings.Join(caps, ","))
	reply, err := c.call(ctx, "HELLO", hello)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("attrspace: hello: %w", err)
	}
	if reply.Verb != "OK" {
		c.Close()
		return nil, fmt.Errorf("attrspace: hello rejected: %s", reply.Get("error"))
	}
	// A v1 server ignored the caps field and granted nothing; a v2
	// server replies with the intersection. Either way both ends now
	// agree, and the mux engages only when both speak it.
	if granted := reply.Get("caps"); granted != "" {
		set := wire.ParseCaps(granted)
		c.mu.Lock()
		c.caps = set
		if set[wire.CapMux] {
			c.mux = wire.NewMux(c.wc, wire.MuxConfig{Registry: c.reg, ByteWindow: set[wire.CapByteWin]})
		}
		c.mu.Unlock()
	}
	return c, nil
}

// shmPromoteAfter is the number of replies a same-host connection
// takes over its socket before it asks for a ring. Derived, not tuned:
// a promotion costs about 250 µs (segment create, two mmaps, two round
// trips; the median of attrspace.shm.promote_us, EXPERIMENTS E25) and a
// ring round trip is 2–3 µs cheaper than one over the unix socket
// (BenchmarkSameHostPut and the wire.conn.unix/shm.rtt_us rungs, E25),
// so a ring has paid for itself after on the order of 100 round trips.
// A connection that lives a handful of
// ops — a daemon joining, publishing and leaving — never maps anything,
// one that lives gets its ring within its first milliseconds, and a
// promoted ring is by construction not a young connection's.
const shmPromoteAfter = 100

// shmMetrics counts ring promotions at one end: attempts that ended on
// the ring, attempts that left the connection on the socket, and how
// long a completed one took. Handles are resolved once per registry (or
// per promoted connection), never on the request path.
type shmMetrics struct {
	promotions, failed *telemetry.Counter
	us                 *telemetry.Histogram
}

// shmPromoteBuckets are promote_us's bucket bounds, in microseconds.
var shmPromoteBuckets = []float64{50, 100, 150, 200, 300, 500, 1000, 2500, 10000, 100000}

func newShmMetrics(reg *telemetry.Registry) shmMetrics {
	return shmMetrics{
		promotions: reg.Counter("attrspace.shm.promotions"),
		failed:     reg.Counter("attrspace.shm.promote_failed"),
		us:         reg.Histogram("attrspace.shm.promote_us", shmPromoteBuckets),
	}
}

// done records the end of a promotion that began at start.
func (m shmMetrics) done(start time.Time, err error) {
	if err != nil {
		m.failed.Inc()
		return
	}
	m.promotions.Inc()
	m.us.Observe(float64(time.Since(start)) / float64(time.Microsecond))
}

// promote moves the connection onto a shared-memory ring, off every
// caller's path: the read loop starts it, once, on its own goroutine
// when the connection has taken shmPromoteAfter replies. A failure at
// any step leaves the connection on the socket for the rest of its
// life; it is never retried.
func (c *Client) promote() {
	c.mu.Lock()
	reg := c.reg
	c.mu.Unlock()
	start := time.Now()
	err := c.cutover()
	if reg != nil {
		newShmMetrics(reg).done(start, err)
	}
}

// cutover is the client half of the transport-v3 promotion. SHMREQ
// asks the server to create a segment and returns its path; the client
// maps it and sends SHMRDY, which is by construction (wire.Conn.SendSwap)
// the last framed byte it writes to the socket: requests, heartbeats,
// async-put flushes and window updates from other goroutines land
// either before it on the socket or after it on the ring, and nobody
// holds the write side while the reply is awaited. The read-side swap
// happens inside the read loop (see readLoop), which is the only place
// that knows no framed socket byte follows the OK. A SHMRDY carrying an
// error tells the server the segment could not be mapped, so it can
// drop it now rather than at teardown; nothing is swapped then.
func (c *Client) cutover() error {
	reply, err := c.call(context.Background(), "SHMREQ", wire.NewMessage("SHMREQ"))
	if err == nil {
		err = replyErr(reply)
	}
	if err != nil {
		return err
	}
	seg, err := wire.OpenShmSegment(reply.Get("shmfile"))
	if err != nil {
		// Best effort: if the report does not get through, the server
		// drops the segment when the connection ends.
		c.call(context.Background(), "SHMRDY", wire.NewMessage("SHMRDY").Set("error", err.Error()))
		return err
	}
	ch, _, err := c.sendSwap(wire.NewMessage("SHMRDY"), seg.Endpoint(false, c.raw))
	if err != nil {
		return err
	}
	if err := replyErr(<-ch); err != nil {
		// Our write side is already on a ring the server is not reading:
		// the connection is beyond use, which to callers (and a Session)
		// is a connection lost.
		c.fail(fmt.Errorf("attrspace: shm cutover: %w", err))
		return err
	}
	return nil
}

// ShmActive reports whether this connection has been promoted and is
// carrying its frames over the shared-memory ring.
func (c *Client) ShmActive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shmActive
}

// muxer returns the connection's stream mux, nil on a v1 connection.
func (c *Client) muxer() *wire.Mux {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mux
}

// HasCap reports whether the server granted the named transport-v2
// capability (wire.CapMux etc.) during the HELLO handshake.
func (c *Client) HasCap(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.caps[name]
}

func (c *Client) readLoop() {
	for {
		m, err := c.wc.Recv()
		if err != nil {
			// A transport error after a CLOSE announcement is the
			// drain completing, not an unexpected loss: report it as
			// such so retrying callers classify it correctly.
			c.mu.Lock()
			draining := c.draining
			c.mu.Unlock()
			if draining {
				err = ErrServerDraining
			}
			c.fail(err)
			return
		}
		if x := c.muxer(); x != nil {
			if _, handled := x.Accept(m); handled {
				continue // pure transport (WINUP), nothing to dispatch
			}
		}
		if m.Verb == "EVENT" {
			seq, _ := strconv.ParseUint(m.Get("seq"), 10, 64)
			lost, _ := strconv.ParseUint(m.Get("lost"), 10, 64)
			ev := Event{Attr: m.Get("attr"), Value: m.Get("value"), Op: m.Get("op"), Seq: seq, Lost: lost}
			c.mu.Lock()
			handler := c.handler
			if handler == nil && !c.closed {
				// Under mu, which also covers fail closing the channel: a
				// Close from another goroutine while an event is in flight
				// must not turn this send into a panic. None of the sends
				// block.
				select {
				case c.events <- ev:
				default:
					// The event buffer is full; drop-oldest keeps the
					// connection from deadlocking against a slow consumer.
					select {
					case <-c.events:
					default:
					}
					select {
					case c.events <- ev:
					default:
					}
				}
			}
			c.mu.Unlock()
			if handler != nil {
				// Synchronous delivery: the handler observes every event
				// in server order with no client-side drops. It must not
				// block on this client's own operations.
				handler(ev)
			}
			continue
		}
		if m.Verb == "CLOSE" {
			// GOAWAY-style drain announcement: the server finishes the
			// replies already in flight, then closes. Stop issuing new
			// requests now; fail once the last pending reply lands (or
			// immediately when nothing is outstanding).
			c.mu.Lock()
			c.draining = true
			idle := len(c.pending) == 0
			c.mu.Unlock()
			if idle {
				c.fail(ErrServerDraining)
				return
			}
			continue
		}
		id := m.Get("id")
		if m.Get("more") == "1" {
			// Interior chunk of a multi-part bulk reply (CapChunk):
			// buffer it against the request id; the final part (no
			// `more`) is delivered through the pending channel as usual
			// and the call site collects the buffered parts. Chunks for
			// an abandoned request are dropped, not accumulated.
			c.mu.Lock()
			if _, live := c.pending[id]; live {
				c.chunks[id] = append(c.chunks[id], m)
			}
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		if ch == nil {
			delete(c.chunks, id)
		}
		var swapEP *wire.ShmEndpoint
		if id != "" && id == c.shmSwapID && m.Verb == "OK" {
			swapEP, c.shmSwapID, c.shmSwapEP = c.shmSwapEP, "", nil
			c.shmActive = true
		}
		c.replies++
		earned := c.replies == shmPromoteAfter && c.caps[wire.CapShm]
		drained := c.draining && len(c.pending) == 0
		c.mu.Unlock()
		if swapEP != nil {
			// Transport-v3 cutover: this OK answers our SHMRDY and is the
			// last framed byte the socket will ever carry — the server
			// sent it and swapped its write side in one step. Hand the
			// socket to the doorbell and read everything further from the
			// ring: replies to requests pipelined before the swap, events
			// and chunks arrive there with ids and windows untouched.
			swapEP.Activate()
			c.wc.SwapRead(swapEP)
		}
		if earned {
			go c.promote()
		}
		if ch != nil {
			ch <- m
		}
		if drained {
			c.fail(ErrServerDraining)
			return
		}
	}
}

// takeChunks removes and returns the buffered interior parts of a
// chunked reply; call with the final part's request id in hand.
func (c *Client) takeChunks(id string) []*wire.Message {
	c.mu.Lock()
	parts := c.chunks[id]
	delete(c.chunks, id)
	c.mu.Unlock()
	return parts
}

// fail moves the client to its terminal state exactly once: every
// pending reply slot receives a synthetic connection-error reply (the
// "conn" tag distinguishes it from a real server ERROR, so callers see
// ErrConnLost rather than a server fault), the event channel closes,
// and the OnClose hook fires. It is called from the read loop on any
// transport error, from send on a write error (a partial write corrupts
// framing — the connection is unusable), and from Close.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pending := c.pending
	c.pending = make(map[string]chan *wire.Message)
	c.chunks = make(map[string][]*wire.Message)
	mux := c.mux
	onClose := c.onClose
	close(c.events)
	c.mu.Unlock()
	if mux != nil {
		mux.Fail(err)
	}
	for id, ch := range pending {
		ch <- wire.NewMessage("ERROR").Set("id", id).Set("error", err.Error()).Set("conn", "1")
	}
	c.raw.Close()
	if onClose != nil {
		onClose(err)
	}
}

// SetEventHandler installs a function invoked synchronously from the
// read loop for every pushed EVENT, replacing delivery on the Events
// channel. Unlike the channel (which drops oldest when the consumer
// lags), a handler observes every event the server sent, in order —
// the property a coherent mirror needs. Install it before Subscribe;
// the handler must not call back into this client's blocking
// operations (it runs on the loop that would receive their replies).
func (c *Client) SetEventHandler(fn func(Event)) {
	c.mu.Lock()
	c.handler = fn
	c.mu.Unlock()
}

// OnClose installs a hook invoked once when the client fails or is
// closed, with the terminal error. Used by the LASS global cache to
// tear down a cache context whose upstream died, and by Session to
// trigger reconnection. Installing the hook on an already-failed
// client invokes it immediately (on the calling goroutine) — without
// this, a client that dies between Dial and OnClose would never signal
// anyone.
func (c *Client) OnClose(fn func(error)) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if fn != nil {
			fn(err)
		}
		return
	}
	c.onClose = fn
	c.mu.Unlock()
}

// SetTelemetry installs a metrics registry (per-verb op counters and
// latency histograms under "client.*", plus the shared wire byte
// counters) and a tracer. With a tracer set, every operation without a
// caller-supplied span becomes its own root trace; either way the
// trace/span IDs ride the request as the reserved _tid/_sid fields so
// the server logs its span under the same trace. Either argument may
// be nil. Call before issuing operations.
func (c *Client) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	c.mu.Lock()
	c.reg = reg
	c.tracer = tracer
	c.mu.Unlock()
	if reg != nil {
		c.wc.InstrumentRegistry(reg)
	}
}

// instrument opens the client-side observation of one operation: it
// bumps the verb counter, starts (or continues) a span, stamps the
// trace fields onto m, and returns a func to call when the reply is
// in. Returns a no-op when no telemetry is configured and no span is
// in ctx.
func (c *Client) instrument(ctx context.Context, verb string, m *wire.Message) func() {
	c.mu.Lock()
	reg, tracer := c.reg, c.tracer
	c.mu.Unlock()

	var span *telemetry.Span
	if parent := telemetry.FromContext(ctx); parent != nil {
		span = parent.StartChild("client." + strings.ToLower(verb))
	} else if tracer != nil {
		span = tracer.StartSpan("client." + strings.ToLower(verb))
	}
	if span != nil {
		if a := m.Get("attr"); a != "" {
			span.Set("attr", a)
		}
		m.SetTrace(span.TraceID(), span.SpanID())
	}

	var lat *telemetry.Histogram
	if reg != nil {
		v := strings.ToLower(verb)
		reg.Counter("client.ops." + v).Inc()
		lat = reg.Histogram("client.latency."+v, nil)
	}
	start := time.Now()
	return func() {
		if lat != nil {
			lat.Since(start)
		}
		span.End()
	}
}

// call sends a request and waits for its tagged reply.
func (c *Client) call(ctx context.Context, verb string, m *wire.Message) (*wire.Message, error) {
	done := c.instrument(ctx, verb, m)
	defer done()
	ch, id, err := c.send(m)
	if err != nil {
		return nil, err
	}
	select {
	case reply := <-ch:
		return reply, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		delete(c.chunks, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// send registers a pending reply slot and transmits the request. A
// write error is terminal for the whole connection, not just this
// request: the frame may have left partially, so the stream's framing
// can no longer be trusted, and a connection whose write half is dead
// while its read half blocks would otherwise strand every other
// pending reply forever. fail drains them all exactly once.
func (c *Client) send(m *wire.Message) (chan *wire.Message, string, error) {
	return c.sendSwap(m, nil)
}

// sendSwap is send for SHMRDY when given the ring endpoint (only
// cutover passes one): the swap state is registered under mu together
// with the pending slot — registering after the send returned would let
// the reply arrive first and the read-side swap never happen — and the
// frame leaves through SendSwap, which moves the write side onto the
// ring behind it.
func (c *Client) sendSwap(m *wire.Message, ep *wire.ShmEndpoint) (chan *wire.Message, string, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		} else if !IsRetryable(err) {
			// The read loop saw the transport die before this request
			// was made: to the caller the same retryable loss as a death
			// with the request in flight.
			err = fmt.Errorf("%w: %v", ErrConnLost, err)
		}
		return nil, "", err
	}
	if c.draining {
		c.mu.Unlock()
		return nil, "", ErrServerDraining
	}
	c.nextID++
	id := strconv.FormatUint(c.nextID, 10)
	ch := make(chan *wire.Message, 1)
	c.pending[id] = ch
	if ep != nil {
		c.shmSwapID, c.shmSwapEP = id, ep
	}
	x := c.mux
	c.mu.Unlock()
	m.Set("id", id)
	// Requests ride the control stream (never window-limited); routing
	// them through the mux lets accumulated receive-side credit grants
	// piggyback instead of costing explicit WINUP frames.
	var err error
	switch {
	case ep != nil:
		err = c.wc.SendSwap(m, ep)
	case x != nil:
		err = x.SendOn(wire.StreamControl, m)
	default:
		err = c.wc.Send(m)
	}
	if err != nil {
		c.fail(err)
		return nil, "", fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return ch, id, nil
}

func replyErr(reply *wire.Message) error {
	if reply.Verb == "ERROR" {
		text := reply.Get("error")
		if text == attr.ErrNotFound.Error() {
			return ErrNotFound
		}
		if reply.Get("conn") == "1" {
			// Synthetic reply injected by fail(): the transport died with
			// the request in flight — retryable, unlike a server ERROR.
			if text == ErrServerDraining.Error() {
				return ErrServerDraining
			}
			return fmt.Errorf("%w: %s", ErrConnLost, text)
		}
		return errors.New("attrspace: server: " + text)
	}
	return nil
}

// IsRetryable reports whether err is a transport-level failure a
// reconnecting caller may safely retry after re-establishing the
// connection: the connection was lost, the client object is closed
// (superseded by a newer one), or the server announced a drain. Server
// application errors (including ErrNotFound) are not retryable — the
// server saw the request and answered it.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrConnLost) ||
		errors.Is(err, ErrClientClosed) ||
		errors.Is(err, ErrServerDraining)
}

// Put stores attribute = value and waits for the acknowledgement,
// matching the paper's blocking tdp_put.
func (c *Client) Put(attribute, value string) error {
	return c.PutCtx(context.Background(), attribute, value)
}

// PutCtx is Put with a context; a span carried by ctx (see
// telemetry.NewContext) propagates to the server as _tid/_sid.
func (c *Client) PutCtx(ctx context.Context, attribute, value string) error {
	reply, err := c.call(ctx, "PUT", wire.NewMessage("PUT").Set("attr", attribute).Set("value", value))
	if err != nil {
		return err
	}
	return replyErr(reply)
}

// Get blocks until the attribute exists and returns its value (the
// paper's blocking tdp_get). Cancel via ctx.
func (c *Client) Get(ctx context.Context, attribute string) (string, error) {
	reply, err := c.call(ctx, "GET", wire.NewMessage("GET").Set("attr", attribute))
	if err != nil {
		return "", err
	}
	if err := replyErr(reply); err != nil {
		return "", err
	}
	return reply.Get("value"), nil
}

// GetAsync issues a blocking GET whose reply is delivered on the
// returned channel: the transport half of tdp_async_get. The tdp
// package layers callback queueing and ServiceEvents on top.
func (c *Client) GetAsync(attribute string) (<-chan Result, error) {
	m := wire.NewMessage("GET").Set("attr", attribute)
	done := c.instrument(context.Background(), "GET", m)
	ch, _, err := c.send(m)
	if err != nil {
		done()
		return nil, err
	}
	out := make(chan Result, 1)
	go func() {
		reply := <-ch
		done()
		if err := replyErr(reply); err != nil {
			out <- Result{Attr: attribute, Err: err}
			return
		}
		out <- Result{Attr: attribute, Value: reply.Get("value")}
	}()
	return out, nil
}

// pendingPut is one queued asynchronous put awaiting a flush.
type pendingPut struct {
	attr, value string
	out         chan Result
}

// PutAsync issues a PUT whose acknowledgement is delivered on the
// returned channel: the transport half of tdp_async_put.
//
// Puts issued while a previous flush is still on the wire coalesce:
// the whole backlog leaves as a single MPUT when the in-flight round
// trip completes, so a producer pipelining N puts pays ~2 round trips
// instead of N. Each put still completes individually on its own
// channel. Failures (including a closed client) are delivered through
// the channel rather than returned here.
func (c *Client) PutAsync(attribute, value string) (<-chan Result, error) {
	out := make(chan Result, 1)
	c.mu.Lock()
	c.putq = append(c.putq, pendingPut{attr: attribute, value: value, out: out})
	if !c.flushing {
		c.flushing = true
		go c.flushPuts()
	}
	c.mu.Unlock()
	return out, nil
}

// flushPuts drains the async-put queue, one batch per loop: whatever
// accumulated during the previous round trip goes out together.
func (c *Client) flushPuts() {
	for {
		c.mu.Lock()
		batch := c.putq
		c.putq = nil
		if len(batch) == 0 {
			c.flushing = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		c.sendPutBatch(batch)
	}
}

// sendPutBatch transmits a batch of queued puts. A single put (or a
// server without MPUT) uses ordinary pipelined PUTs; otherwise the
// batch is one MPUT round trip. Every pending channel receives its
// completion.
func (c *Client) sendPutBatch(batch []pendingPut) {
	if len(batch) > 1 && !c.noMPUT.Load() {
		pairs := make([]KV, len(batch))
		for i, p := range batch {
			pairs[i] = KV{Key: p.attr, Value: p.value}
		}
		err := c.mput(context.Background(), pairs)
		if !errors.Is(err, errMPUTUnsupported) {
			for _, p := range batch {
				p.out <- Result{Attr: p.attr, Value: p.value, Err: err}
			}
			return
		}
		// Old server: fall through to individual pipelined PUTs.
	}
	type inflight struct {
		p    pendingPut
		ch   chan *wire.Message
		done func()
	}
	sent := make([]inflight, 0, len(batch))
	for _, p := range batch {
		m := wire.NewMessage("PUT").Set("attr", p.attr).Set("value", p.value)
		done := c.instrument(context.Background(), "PUT", m)
		ch, _, err := c.send(m)
		if err != nil {
			done()
			p.out <- Result{Attr: p.attr, Value: p.value, Err: err}
			continue
		}
		sent = append(sent, inflight{p: p, ch: ch, done: done})
	}
	for _, f := range sent {
		reply := <-f.ch
		f.done()
		f.p.out <- Result{Attr: f.p.attr, Value: f.p.value, Err: replyErr(reply)}
	}
}

// errMPUTUnsupported marks an MPUT rejected by a pre-MPUT server.
var errMPUTUnsupported = errors.New("attrspace: server does not support MPUT")

// mput performs one MPUT round trip for pairs. It returns
// errMPUTUnsupported (and latches noMPUT) when the server rejects the
// verb, so callers can fall back to individual PUTs.
func (c *Client) mput(ctx context.Context, pairs []KV) error {
	_, err := c.mputV(ctx, pairs)
	return err
}

// mputV is mput returning the seq acked for the batch's last pair
// (0 against a server that predates seq-carrying acks).
func (c *Client) mputV(ctx context.Context, pairs []KV) (uint64, error) {
	m := wire.NewMessage("MPUT").SetInt("n", len(pairs))
	for i, p := range pairs {
		idx := strconv.Itoa(i)
		m.Set("k"+idx, p.Key).Set("v"+idx, p.Value)
	}
	reply, err := c.call(ctx, "MPUT", m)
	if err != nil {
		return 0, err
	}
	if reply.Verb == "ERROR" && strings.Contains(reply.Get("error"), "unknown verb") {
		c.noMPUT.Store(true)
		return 0, errMPUTUnsupported
	}
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return replySeq(reply), nil
}

// PutBatch stores every pair in order and waits for the single
// acknowledgement — one round trip for the whole batch (the Parador
// startup pattern: a daemon publishing pid, executable, args and
// friends together). Against a server that predates MPUT it degrades
// to pipelined individual PUTs and reports the first error.
func (c *Client) PutBatch(pairs []KV) error {
	return c.PutBatchCtx(context.Background(), pairs)
}

// PutBatchCtx is PutBatch with a context for cancellation and span
// propagation.
func (c *Client) PutBatchCtx(ctx context.Context, pairs []KV) error {
	switch len(pairs) {
	case 0:
		return nil
	case 1:
		return c.PutCtx(ctx, pairs[0].Key, pairs[0].Value)
	}
	if !c.noMPUT.Load() {
		err := c.mput(ctx, pairs)
		if !errors.Is(err, errMPUTUnsupported) {
			return err
		}
	}
	// Fallback: pipeline individual PUTs, then collect every ack.
	type inflight struct {
		ch   chan *wire.Message
		done func()
	}
	sent := make([]inflight, 0, len(pairs))
	var firstErr error
	for _, p := range pairs {
		m := wire.NewMessage("PUT").Set("attr", p.Key).Set("value", p.Value)
		done := c.instrument(ctx, "PUT", m)
		ch, _, err := c.send(m)
		if err != nil {
			done()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent = append(sent, inflight{ch: ch, done: done})
	}
	for _, f := range sent {
		reply := <-f.ch
		f.done()
		if err := replyErr(reply); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Result is the completion of an asynchronous get or put.
type Result struct {
	Attr  string
	Value string
	Err   error
}

// TryGet returns the current value without blocking; ErrNotFound when
// the attribute is absent.
func (c *Client) TryGet(attribute string) (string, error) {
	return c.TryGetCtx(context.Background(), attribute)
}

// TryGetCtx is TryGet with a context for cancellation and span
// propagation.
func (c *Client) TryGetCtx(ctx context.Context, attribute string) (string, error) {
	reply, err := c.call(ctx, "TRYGET", wire.NewMessage("TRYGET").Set("attr", attribute))
	if err != nil {
		return "", err
	}
	if reply.Verb == "NOTFOUND" {
		return "", ErrNotFound
	}
	if err := replyErr(reply); err != nil {
		return "", err
	}
	return reply.Get("value"), nil
}

// Delete removes an attribute.
func (c *Client) Delete(attribute string) error {
	return c.DeleteCtx(context.Background(), attribute)
}

// DeleteCtx is Delete with a context for cancellation and span
// propagation.
func (c *Client) DeleteCtx(ctx context.Context, attribute string) error {
	reply, err := c.call(ctx, "DELETE", wire.NewMessage("DELETE").Set("attr", attribute))
	if err != nil {
		return err
	}
	return replyErr(reply)
}

// ServerStats asks the server to dump its telemetry registry (the
// STATS verb) and returns the decoded snapshot plus the daemon name
// the server reports itself as. STATS needs no joined context, and
// any client — tdpattr included — may issue it.
func (c *Client) ServerStats(ctx context.Context) (daemon string, snap telemetry.Snapshot, err error) {
	return c.ServerStatsScope(ctx, "")
}

// ServerStatsScope is ServerStats with an explicit scope. Scope
// "tree" asks the daemon to merge its children's snapshots (see
// Server.SetStatsChildren) into the reply — one request for a whole
// subtree's telemetry. An empty scope behaves like ServerStats.
func (c *Client) ServerStatsScope(ctx context.Context, scope string) (daemon string, snap telemetry.Snapshot, err error) {
	req := wire.NewMessage("STATS")
	if scope != "" {
		req.Set("scope", scope)
	}
	reply, err := c.call(ctx, "STATS", req)
	if err != nil {
		return "", telemetry.Snapshot{}, err
	}
	if err := replyErr(reply); err != nil {
		return "", telemetry.Snapshot{}, err
	}
	snap, err = telemetry.ParseSnapshot([]byte(reply.Get("json")))
	if err != nil {
		return "", telemetry.Snapshot{}, err
	}
	return reply.Get("daemon"), snap, nil
}

// Snapshot returns a copy of all attributes in the context.
func (c *Client) Snapshot() (map[string]string, error) {
	reply, err := c.call(context.Background(), "SNAP", wire.NewMessage("SNAP"))
	if err != nil {
		return nil, err
	}
	return parseSnap(reply)
}

// Versioned is a value paired with the seq of the write that produced
// it; re-exported from the attr engine so wire-level and in-process
// versioned snapshots share a type.
type Versioned = attr.Versioned

// SnapshotSeq returns every attribute with the seq of the write that
// produced it, plus the context's current sequence number (0 against a
// server that predates versioned snapshots). It is the resync primitive:
// a Session diffs the result against its last-known seqs after a
// reconnect, so stale values never overwrite newer ones.
func (c *Client) SnapshotSeq(ctx context.Context) (map[string]Versioned, uint64, error) {
	reply, err := c.call(ctx, "SNAP", wire.NewMessage("SNAP").Set("seqs", "1"))
	if err != nil {
		return nil, 0, err
	}
	if err := replyErr(reply); err != nil {
		return nil, 0, err
	}
	out := make(map[string]Versioned, reply.Int("total", reply.Int("n", 0)))
	for _, part := range append(c.takeChunks(reply.Get("id")), reply) {
		if err := parseVersionedInto(out, part); err != nil {
			return nil, 0, err
		}
	}
	ctxSeq, _ := strconv.ParseUint(reply.Get("seq"), 10, 64)
	return out, ctxSeq, nil
}

// parseVersionedInto decodes one SNAPV part's k<i>/v<i>/s<i> entries.
func parseVersionedInto(out map[string]Versioned, part *wire.Message) error {
	n := part.Int("n", 0)
	for i := 0; i < n; i++ {
		idx := strconv.Itoa(i)
		k, ok := part.Lookup("k" + idx)
		if !ok {
			return fmt.Errorf("attrspace: malformed snapshot reply")
		}
		seq, _ := strconv.ParseUint(part.Get("s"+idx), 10, 64)
		out[k] = Versioned{Value: part.Get("v" + idx), Seq: seq}
	}
	return nil
}

// DeltaOp is one replayed mutation from a delta resync (SNAPD).
type DeltaOp struct {
	Attr   string
	Value  string // value written; "" for a delete
	Seq    uint64
	Delete bool
}

// errSNAPDUnsupported marks a SNAPD rejected by a pre-v2 server.
var errSNAPDUnsupported = errors.New("attrspace: server does not support SNAPD")

// SnapshotDelta asks the server for just the mutations after `since`
// (the SNAPD delta-resync verb), so reconnect traffic is proportional
// to the gap, not the context size. Exactly one of ops/full is
// non-nil: ops carries the replayable delta in seq order; full is the
// complete versioned snapshot the server fell back to because its
// change log no longer covers the gap. Both come with the context's
// current seq. Against a server without the verb it returns
// errSNAPDUnsupported (latched, like MPUT) and the caller falls back
// to SnapshotSeq.
func (c *Client) SnapshotDelta(ctx context.Context, since uint64) (ops []DeltaOp, full map[string]Versioned, ctxSeq uint64, err error) {
	if c.noSNAPD.Load() || !c.HasCap(wire.CapSnapd) {
		return nil, nil, 0, errSNAPDUnsupported
	}
	reply, err := c.call(ctx, "SNAPD",
		wire.NewMessage("SNAPD").Set("since", strconv.FormatUint(since, 10)))
	if err != nil {
		return nil, nil, 0, err
	}
	if reply.Verb == "ERROR" && strings.Contains(reply.Get("error"), "unknown verb") {
		c.noSNAPD.Store(true)
		return nil, nil, 0, errSNAPDUnsupported
	}
	if err := replyErr(reply); err != nil {
		return nil, nil, 0, err
	}
	parts := append(c.takeChunks(reply.Get("id")), reply)
	ctxSeq, _ = strconv.ParseUint(reply.Get("seq"), 10, 64)
	if reply.Verb != "DELTA" {
		// Change log compacted past `since`: the server shipped a full
		// versioned snapshot instead.
		full = make(map[string]Versioned, reply.Int("total", reply.Int("n", 0)))
		for _, part := range parts {
			if err := parseVersionedInto(full, part); err != nil {
				return nil, nil, 0, err
			}
		}
		return nil, full, ctxSeq, nil
	}
	// Parts were sent, buffered, and appended in order, and entries
	// within a part are in order, so ops come out seq-ascending.
	ops = make([]DeltaOp, 0, reply.Int("total", reply.Int("n", 0)))
	for _, part := range parts {
		n := part.Int("n", 0)
		for i := 0; i < n; i++ {
			idx := strconv.Itoa(i)
			k, ok := part.Lookup("k" + idx)
			if !ok {
				return nil, nil, 0, fmt.Errorf("attrspace: malformed delta reply")
			}
			seq, _ := strconv.ParseUint(part.Get("s"+idx), 10, 64)
			ops = append(ops, DeltaOp{
				Attr: k, Value: part.Get("v" + idx), Seq: seq,
				Delete: part.Get("o"+idx) == "d",
			})
		}
	}
	return ops, nil, ctxSeq, nil
}

// Ping performs a wire-level liveness round trip (CapPing). The server
// answers inline on its read loop, so a timely PONG proves the
// connection and the peer's dispatch are alive even while bulk replies
// stream on other goroutines.
func (c *Client) Ping(ctx context.Context) error {
	reply, err := c.call(ctx, "PING", wire.NewMessage("PING"))
	if err != nil {
		return err
	}
	return replyErr(reply)
}

// parseSnap decodes a SNAPV reply's k0/v0.. pairs.
func parseSnap(reply *wire.Message) (map[string]string, error) {
	if err := replyErr(reply); err != nil {
		return nil, err
	}
	n := reply.Int("n", 0)
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, ok := reply.Lookup("k" + strconv.Itoa(i))
		if !ok {
			return nil, fmt.Errorf("attrspace: malformed snapshot reply")
		}
		out[k] = reply.Get("v" + strconv.Itoa(i))
	}
	return out, nil
}

// replySeq extracts the per-context sequence number a mutating ack or
// VALUE reply carries; 0 against a pre-seq server.
func replySeq(reply *wire.Message) uint64 {
	seq, _ := strconv.ParseUint(reply.Get("seq"), 10, 64)
	return seq
}

// PutV is Put returning the per-context seq the server assigned the
// write (0 against a pre-seq server).
func (c *Client) PutV(ctx context.Context, attribute, value string) (uint64, error) {
	reply, err := c.call(ctx, "PUT", wire.NewMessage("PUT").Set("attr", attribute).Set("value", value))
	if err != nil {
		return 0, err
	}
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return replySeq(reply), nil
}

// GetV is Get additionally returning the seq of the write that
// produced the value.
func (c *Client) GetV(ctx context.Context, attribute string) (string, uint64, error) {
	reply, err := c.call(ctx, "GET", wire.NewMessage("GET").Set("attr", attribute))
	if err != nil {
		return "", 0, err
	}
	if err := replyErr(reply); err != nil {
		return "", 0, err
	}
	return reply.Get("value"), replySeq(reply), nil
}

// TryGetV is TryGet additionally returning the seq of the write that
// produced the value.
func (c *Client) TryGetV(ctx context.Context, attribute string) (string, uint64, error) {
	reply, err := c.call(ctx, "TRYGET", wire.NewMessage("TRYGET").Set("attr", attribute))
	if err != nil {
		return "", 0, err
	}
	if reply.Verb == "NOTFOUND" {
		return "", 0, ErrNotFound
	}
	if err := replyErr(reply); err != nil {
		return "", 0, err
	}
	return reply.Get("value"), replySeq(reply), nil
}

// DeleteV is Delete returning the seq assigned to the deletion (0 when
// the attribute was already absent).
func (c *Client) DeleteV(ctx context.Context, attribute string) (uint64, error) {
	reply, err := c.call(ctx, "DELETE", wire.NewMessage("DELETE").Set("attr", attribute))
	if err != nil {
		return 0, err
	}
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return replySeq(reply), nil
}

// PutBatchV is PutBatch returning the seq acked for the last pair.
// Against a server without MPUT it falls back to sequential PutVs so
// the returned seq is still the last write's.
func (c *Client) PutBatchV(ctx context.Context, pairs []KV) (uint64, error) {
	switch len(pairs) {
	case 0:
		return 0, nil
	case 1:
		return c.PutV(ctx, pairs[0].Key, pairs[0].Value)
	}
	if !c.noMPUT.Load() {
		seq, err := c.mputV(ctx, pairs)
		if !errors.Is(err, errMPUTUnsupported) {
			return seq, err
		}
	}
	var last uint64
	for _, p := range pairs {
		seq, err := c.PutV(ctx, p.Key, p.Value)
		if err != nil {
			return 0, err
		}
		last = seq
	}
	return last, nil
}

// Subscribe starts event push from the server. Events arrive on the
// Events channel; the channel closes when the client does. A failed
// SUB leaves the client unsubscribed, so the caller may retry;
// concurrent Subscribes collapse to one wire request.
func (c *Client) Subscribe() error {
	c.mu.Lock()
	if c.subbed {
		c.mu.Unlock()
		return nil
	}
	c.subbed = true
	c.mu.Unlock()
	unsub := func() {
		c.mu.Lock()
		c.subbed = false
		c.mu.Unlock()
	}
	reply, err := c.call(context.Background(), "SUB", wire.NewMessage("SUB"))
	if err != nil {
		unsub()
		return err
	}
	if err := replyErr(reply); err != nil {
		unsub()
		return err
	}
	return nil
}

// Events returns the subscription event channel. It never yields
// events before Subscribe succeeds.
func (c *Client) Events() <-chan Event { return c.events }

// ErrNoGlobal reports a G* verb sent to a server without an upstream
// CASS (global forwarding not enabled, or an older server).
var ErrNoGlobal = errors.New("attrspace: server has no global forwarding")

// globalErr maps a G* ERROR reply onto client-side sentinels.
func globalErr(reply *wire.Message) error {
	if reply.Verb == "ERROR" {
		text := reply.Get("error")
		if strings.Contains(text, "unknown verb") || strings.Contains(text, "global forwarding not enabled") {
			return ErrNoGlobal
		}
		if strings.Contains(text, ErrShardDown.Error()) {
			// A routing LASS reporting one dead shard: surface the typed
			// degraded-mode error so callers can distinguish "this key
			// range is briefly down" from a hard failure.
			return fmt.Errorf("%w: %s", ErrShardDown, text)
		}
	}
	return replyErr(reply)
}

// PutGlobal stores a global (CASS) attribute through this LASS: the
// LASS writes through to its CASS and caches the acked value, so a
// subsequent GetGlobal via the same LASS sees this write without an
// upstream round trip.
func (c *Client) PutGlobal(ctx context.Context, attribute, value string) error {
	reply, err := c.call(ctx, "GPUT", wire.NewMessage("GPUT").Set("attr", attribute).Set("value", value))
	if err != nil {
		return err
	}
	return globalErr(reply)
}

// PutBatchGlobal stores a batch of global attributes in one GMPUT.
func (c *Client) PutBatchGlobal(ctx context.Context, pairs []KV) error {
	if len(pairs) == 0 {
		return nil
	}
	m := wire.NewMessage("GMPUT").SetInt("n", len(pairs))
	for i, p := range pairs {
		idx := strconv.Itoa(i)
		m.Set("k"+idx, p.Key).Set("v"+idx, p.Value)
	}
	reply, err := c.call(ctx, "GMPUT", m)
	if err != nil {
		return err
	}
	return globalErr(reply)
}

// GetGlobal blocks until the global attribute exists; steady-state
// reads are answered from the LASS cache in one local hop.
func (c *Client) GetGlobal(ctx context.Context, attribute string) (string, error) {
	reply, err := c.call(ctx, "GGET", wire.NewMessage("GGET").Set("attr", attribute))
	if err != nil {
		return "", err
	}
	if err := globalErr(reply); err != nil {
		return "", err
	}
	return reply.Get("value"), nil
}

// TryGetGlobal returns the global attribute's value without blocking;
// ErrNotFound when absent.
func (c *Client) TryGetGlobal(ctx context.Context, attribute string) (string, error) {
	reply, err := c.call(ctx, "GTRYGET", wire.NewMessage("GTRYGET").Set("attr", attribute))
	if err != nil {
		return "", err
	}
	if reply.Verb == "NOTFOUND" {
		return "", ErrNotFound
	}
	if err := globalErr(reply); err != nil {
		return "", err
	}
	return reply.Get("value"), nil
}

// DeleteGlobal removes a global attribute through this LASS.
func (c *Client) DeleteGlobal(ctx context.Context, attribute string) error {
	reply, err := c.call(ctx, "GDEL", wire.NewMessage("GDEL").Set("attr", attribute))
	if err != nil {
		return err
	}
	return globalErr(reply)
}

// SnapshotGlobal dumps the context's global attributes (always one
// upstream round trip; snapshots are never served from the cache).
func (c *Client) SnapshotGlobal(ctx context.Context) (map[string]string, error) {
	reply, err := c.call(ctx, "GSNAP", wire.NewMessage("GSNAP"))
	if err != nil {
		return nil, err
	}
	if err := globalErr(reply); err != nil {
		return nil, err
	}
	return parseSnap(reply)
}

// SnapshotGlobalMany snapshots several global contexts in one GSNAPM
// round trip. On a sharded LASS the contexts are fetched from their
// owning CASS shards concurrently (scatter-gather); the result maps
// context name → attribute snapshot. ErrNoGlobal against servers
// without forwarding or too old to know the verb.
func (c *Client) SnapshotGlobalMany(ctx context.Context, contexts []string) (map[string]map[string]string, error) {
	m := wire.NewMessage("GSNAPM").SetInt("n", len(contexts))
	for i, name := range contexts {
		m.Set("k"+strconv.Itoa(i), name)
	}
	reply, err := c.call(ctx, "GSNAPM", m)
	if err != nil {
		return nil, err
	}
	if err := globalErr(reply); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]string)
	n, _ := strconv.Atoi(reply.Get("n"))
	for i := 0; i < n; i++ {
		idx := strconv.Itoa(i)
		var snap map[string]string
		if err := json.Unmarshal([]byte(reply.Get("v"+idx)), &snap); err != nil {
			return nil, fmt.Errorf("attrspace: gsnapm decode %q: %w", reply.Get("k"+idx), err)
		}
		out[reply.Get("k"+idx)] = snap
	}
	return out, nil
}

// GlobalContexts lists the context names alive across the global
// space — on a sharded LASS, the deduplicated union over every
// reachable shard. ErrNoGlobal against servers without forwarding.
func (c *Client) GlobalContexts(ctx context.Context) ([]string, error) {
	reply, err := c.call(ctx, "GCTXS", wire.NewMessage("GCTXS"))
	if err != nil {
		return nil, err
	}
	if err := globalErr(reply); err != nil {
		return nil, err
	}
	n, _ := strconv.Atoi(reply.Get("n"))
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, reply.Get("k"+strconv.Itoa(i)))
	}
	return names, nil
}

// Close leaves the context (the tdp_exit half of the refcount) and
// tears down the connection. Close is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	// Best-effort polite exit; the server also leaves on disconnect.
	c.wc.Send(wire.NewMessage("EXIT"))
	c.fail(ErrClientClosed)
	return nil
}
