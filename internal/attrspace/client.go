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
// — it may or may not have been applied — so the caller, not the
// client, decides whether to re-issue it on a fresh connection.
var ErrConnLost = errors.New("attrspace: connection lost")

// ErrServerDraining reports that the server announced a graceful
// shutdown (the CLOSE verb): in-flight replies were still delivered,
// but no new operations are accepted on this connection. The shard
// router treats it like a connection loss and reconnects after backoff.
var ErrServerDraining = errors.New("attrspace: server draining")

// DialFunc opens a stream to an attribute space server. Real TCP uses
// net.Dial("tcp", addr); the simulated network uses (*netsim.Host).Dial.
type DialFunc func(addr string) (net.Conn, error)

// TCPDial is the plain TCP DialFunc. The default when none is supplied
// is AutoDial, which prefers the same-host unix socket for loopback
// endpoints; pass TCPDial explicitly to force TCP.
func TCPDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// Event is a pushed attribute change received after Subscribe.
type Event struct {
	Attr  string
	Value string
	Op    string // "put", "delete", "destroy", or "lost" (only Lost is set)
	Seq   uint64
	// Lost is the number of updates the server's subscription dropped
	// for this subscriber since it last said so (0 almost always): on the
	// event that opens a burst, or on an Op "lost" event of its own when
	// the drops came while the burst was being sent. An event channel
	// that discards its oldest event under a lagging consumer adds that
	// event, and its Lost, to the next one it queues. A consumer mirroring
	// the space must treat any nonzero Lost as a gap: the LASS global
	// cache flushes, WaitStatus re-reads the status it waits on.
	Lost uint64
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
	pending  map[string]*replySlot
	free     []*replySlot // released slots; never longer than the peak of len(pending)
	closed   bool
	draining bool // server sent CLOSE; no new sends, replies still land
	err      error

	events    chan Event  // made by the first event or the first Events(), whichever comes first
	handler   func(Event) // when set, replaces the events channel
	closeHook func(error)
	subbed    bool // a Subscribe has claimed the connection's one subscription
	pushing   bool // a SUB was answered OK: the server pushes EVENTs here

	// The reassembly buffer for chunked bulk replies, keyed by request
	// id (nil until a reply comes in parts).
	chunks map[string][]*wire.Message

	// Promotion state. shmOK is HELLO's answer: this connection may be
	// promoted to a ring. replies counts the replies read, by whoever
	// read them; reaching shmPromoteAfter starts promote, once.
	// shmSwapID names the in-flight SHMRDY request: when its OK arrives,
	// its reader swaps the conn's read side onto the ring BEFORE
	// delivering the reply. Registered under mu by the send that
	// registers the pending slot, so the reply cannot race it.
	shmOK     bool
	replies   uint64
	shmSwapID string
	shmSwapEP *wire.ShmEndpoint
	shmActive bool

	// The read side (receive): reading is set while one goroutine holds
	// it — a waiter reading for its own reply, or the resident reader,
	// which runs only while listenedLocked says a frame is owed that no
	// waiter reads for itself. owed counts the pending requests whose
	// waiters may leave, orphans the replies still owed to requests their
	// waiters left. scratch is the holder's receive message; reader is
	// resident as a method value, made at its first start, so that a
	// start allocates nothing.
	reading bool
	owed    int
	orphans int
	scratch *wire.Message
	reader  func()

	// Async-put coalescing state: queued puts accumulate in putq while
	// a flush is in flight and leave as one MPUT.
	putq     []pendingPut
	flushing bool

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
// shard router's reconnect loop depends on this bound. A peer that does
// not speak ProtocolRevision fails the dial with ErrProtocolRevision.
func DialCtx(ctx context.Context, dial DialFunc, addr, contextName string) (*Client, error) {
	if dial == nil {
		dial = AutoDial
	}
	raw, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("attrspace: dial %s: %w", addr, err)
	}
	c := newClient(raw)
	if d, ok := ctx.Deadline(); ok {
		// ctx bounds the HELLO round trip where it waits: the reply is
		// awaited under ctx (exchange) and the one write gets its deadline.
		// Nothing watches ctx once Dial has returned, so a caller that
		// cancels it then (defer cancel) keeps its connection.
		raw.SetWriteDeadline(d)
		defer raw.SetWriteDeadline(time.Time{})
	}
	spec := opFor(opHello, scopeDaemon)
	hello := spec.req().Set("context", contextName).Set("rev", ProtocolRevision)
	// A ring is only meaningful (and only safe — both ends must reach the
	// same segment file) across a provably same-host connection, so it is
	// asked for per connection. The answer is an environmental fact, not
	// a cutover: nothing is mapped until the connection has earned it.
	if wire.ShmSupported() && sameHostConn(raw) {
		hello.Set("shm", "1")
	}
	slot, reply, err := c.exchange(ctx, spec, hello, asMessage)
	if err == nil {
		switch {
		case reply.Verb == "ERROR" && reply.Get("error") == revisionMismatch:
			err = fmt.Errorf("%w: %s", ErrProtocolRevision, revisionMismatch)
		case reply.Verb != "OK":
			err = fmt.Errorf("rejected: %s", reply.Get("error"))
		case reply.Get("rev") != ProtocolRevision:
			err = fmt.Errorf("%w: server answered revision %q, want %s", ErrProtocolRevision, reply.Get("rev"), ProtocolRevision)
		}
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("attrspace: hello: %w", err)
	}
	c.mu.Lock()
	c.shmOK = reply.Get("shm") == "1"
	c.mu.Unlock()
	c.release(slot) // the connection's first request reuses it
	return c, nil
}

// Probe is one liveness round trip to the server at addr — dial, PING,
// close — bounded by ctx, so a server that accepts and never answers
// (hung, not dead) is an error rather than a stuck prober. PING is
// daemon-scope and legal before HELLO: nothing is joined, created or
// destroyed per probe.
func Probe(ctx context.Context, dial DialFunc, addr string) error {
	c, err := dialBare(dial, addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.ping(ctx)
}

// PollStats is one bare STATS round trip to the daemon at addr — dial,
// STATS, close — bounded by ctx (see Client.ServerStats for scope). No
// HELLO is sent: polling an attribute space server joins, and so
// creates, no context, and an mrnet node, which takes STATS or REGISTER
// as a connection's first message, answers it too.
func PollStats(ctx context.Context, dial DialFunc, addr, scope string) (daemon string, snap telemetry.Snapshot, err error) {
	c, err := dialBare(dial, addr)
	if err != nil {
		return "", snap, err
	}
	defer c.Close()
	return c.ServerStats(ctx, scope)
}

// dialBare opens a client on addr that has said nothing yet: only the
// daemon-scope verbs, legal before HELLO, may ride it.
func dialBare(dial DialFunc, addr string) (*Client, error) {
	if dial == nil {
		dial = AutoDial
	}
	raw, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("attrspace: dial %s: %w", addr, err)
	}
	return newClient(raw), nil
}

// newClient starts a client on an open transport, before any HELLO. No
// goroutine reads it until a frame is owed (receive). What only some
// connections use — event channel, chunk buffer, a ring, the resident
// reader — is made at first use.
func newClient(raw net.Conn) *Client {
	return &Client{wc: wire.NewConn(raw), raw: raw, pending: make(map[string]*replySlot)}
}

// replyKind is what the reader hands the waiter of a slot: the reply
// as a message, or only what the caller takes from it (opSpec.reply).
type replyKind uint8

const (
	asMessage replyKind = iota
	asSeq               // a mutation's OK: its seq
	asValue             // a read's VALUE (a copy of its value, and its seq) or NOTFOUND
)

// replySlot is one request's registration in pending: the id it is sent
// under, the channel its one reply arrives on, and the message last
// delivered through it. A slot whose reply has been consumed may be
// released and is then reused — id, channel and message — by a later
// request, which is what keeps the request path free of per-request
// allocations.
//
// A slot registered as asSeq or asValue is answered without a message
// when the reply is the one its kind expects (answer): the reader takes
// the seq — and a read's value, the one string it copies — out of the
// frame in place and sends nil, so the frame is never copied out of the
// read buffer. Any other reply to it — an ERROR, the conn-lost one fail
// injects — comes as a message like every reply to an asMessage slot.
//
// A slot registered with reads set belongs to a waiter that cannot leave
// and so may read the connection itself (await). Once it is parked, its
// channel may carry readTurn before its reply: the read side, handed on
// by a holder putting it down. fail's conn-lost reply can follow that
// hand-off before the waiter has taken it, hence the second place in ch.
//
// Only the goroutine that received the reply from ch may release, once,
// when it has finished reading the reply; nothing may hold the message
// afterwards (the strings taken out of it stay valid — they are views of
// an immutable payload copy). A slot whose waiter gave up is never
// released: the reader may already hold it and be about to send, and
// a blocking GET is answered whenever its attribute appears, under that
// id. The ids on the free list are thus exactly those whose one reply
// has been consumed, so a repeated id can never be answered by an
// earlier request's reply. Not releasing is always safe; the slot is
// then garbage like any other value.
type replySlot struct {
	id    string
	ch    chan *wire.Message // capacity 2: one reply, after at most one readTurn
	msg   *wire.Message      // nil until a reply comes as a message
	kind  replyKind          // set at registration, from the request's op
	reads bool               // set at registration: the waiter reads for itself
	// parked is set, under mu, once a waiter that reads for itself waits
	// on ch for a reader: only a parked waiter is handed the read side,
	// never one still sending, whose write may wait on the server, which
	// may wait on the client to read.
	parked bool
	// What answer wrote before the nil send on ch.
	seq      uint64
	value    string
	notFound bool
}

// answer takes m into the slot when it is the reply the slot's kind
// expects, and reports whether it did: a mutation's OK is its seq, a
// read's VALUE its value — cloned, since m may be a view of the read
// buffer — and seq, a read's NOTFOUND that it was one.
func (s *replySlot) answer(m *wire.Message) bool {
	switch {
	case s.kind == asSeq && m.Verb == "OK":
	case s.kind == asValue && (m.Verb == "VALUE" || m.Verb == "NOTFOUND"):
		s.notFound = m.Verb == "NOTFOUND"
		s.value = strings.Clone(m.Get("value"))
	default:
		return false
	}
	s.seq = replySeq(m)
	return true
}

// release returns a slot whose reply has been read to the free list.
// The message is emptied first so that an idle slot pins no payload.
func (c *Client) release(slot *replySlot) {
	if slot == nil {
		return
	}
	if slot.msg != nil {
		slot.msg.Reset()
	}
	slot.value = ""
	c.mu.Lock()
	if !c.closed {
		c.free = append(c.free, slot)
	}
	c.mu.Unlock()
}

// shmPromoteAfter is the number of replies a same-host connection
// takes over its socket before it asks for a ring. Derived, not tuned:
// a promotion costs about 250 µs (the median of
// attrspace.shm.promote_us) and a ring round trip is 2–3 µs cheaper
// than one over the unix socket, so a ring has paid for itself after on
// the order of 100 round trips (EXPERIMENTS E25). A connection that
// lives a handful of ops — a daemon joining, publishing and leaving —
// never maps anything, and one that lives gets its ring within its
// first milliseconds.
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
// caller's path: receive starts it, once, on its own goroutine when the
// connection has taken shmPromoteAfter replies. A failure at
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

// cutover is the client half of the promotion. SHMREQ asks the server
// to create a segment and returns its path; the client maps it and
// sends SHMRDY, which is by construction (wire.Conn.SendSwap) the last
// framed byte it writes to the socket: whatever other goroutines send
// lands either before it on the socket or after it on the ring, and
// nobody holds the write side while the reply is awaited. The read-side
// swap happens inside receive, on whichever goroutine reads the OK: the
// only place that knows no framed socket byte follows it. A SHMRDY carrying an error tells
// the server the segment could not be mapped, so it can drop it at
// once; nothing is swapped then.
func (c *Client) cutover() error {
	ready := opFor(opShmRdy, scopeDaemon)
	reply, err := c.call(context.Background(), opFor(opShmReq, scopeDaemon), nil)
	if err = okReply(reply, err); err != nil {
		return err
	}
	seg, err := wire.OpenShmSegment(reply.Get("shmfile"))
	if err != nil {
		// Best effort: if the report does not get through, the server
		// drops the segment when the connection ends.
		c.call(context.Background(), ready, ready.req().Set("error", err.Error()))
		return err
	}
	slot, err := c.sendSwap(ready.req(), asMessage, seg.Endpoint(false, c.raw), true)
	if err != nil {
		return err
	}
	reply, _ = c.await(context.Background(), slot)
	if err := replyErr(reply); err != nil {
		// Our write side is already on a ring the server is not reading:
		// the connection is beyond use, which to callers is a connection
		// lost.
		c.fail(fmt.Errorf("attrspace: shm cutover: %w", err))
		return err
	}
	return nil
}

// offer queues ev on ch without ever blocking: when the buffer is full
// the oldest queued event makes room, which keeps a connection from
// deadlocking against a slow consumer. The drop is declared, not
// silent: ev carries the discarded event's Lost plus one for the event
// itself (none for an Op "lost" marker, which stands for no update), so
// every update a consumer did not receive is counted in the Lost of an
// event it did — the contract a consumer mirroring the space (or
// WaitStatus, which re-reads on any Lost) relies on. Each channel has
// one sender, so the second send always finds room.
func offer(ch chan Event, ev Event) {
	select {
	case ch <- ev:
		return
	default:
	}
	select {
	case old := <-ch:
		ev.Lost += old.Lost
		if old.Op != "lost" {
			ev.Lost++
		}
	default:
	}
	select {
	case ch <- ev:
	default:
	}
}

// receive reads one frame and dispatches it; only the holder of the
// read side calls it (await, resident), and it works as a read loop
// would: replies, EVENTs, chunks, CLOSE and the SHMRDY read-side swap,
// and the count of replies that earns a ring. It returns the slot the
// frame answered, if any, and false once the client has failed.
//
// Every frame is decoded into one scratch Message the holder owns. OK,
// VALUE and NOTFOUND — the verbs a mutation's and a read's replies come
// under — are decoded in place (wire.Conn.RecvView), their strings the
// read buffer's own bytes until the next receive: what a seq or value
// slot takes from one is read there (replySlot.answer), a reply nobody
// waits for any more is dropped uncopied, and any other is kept
// (wire.Conn.Keep) for its slot. Every other frame — EVENT (an Event
// holds its strings), chunk, ERROR, every other reply, CLOSE — is copied
// as it is parsed. A kept reply leaves through its slot, and the holder
// takes the message that slot delivered last time as its next scratch —
// two messages per slot changing places, no pool. Only what outlives the
// frame without a slot to trade with (an interior chunk, a reply for a
// first-use slot) costs a fresh Message.
func (c *Client) receive() (*replySlot, bool) {
	m := c.scratch
	if m == nil {
		m = new(wire.Message)
		c.scratch = m
	}
	if err := c.wc.RecvView(m, inPlaceReply); err != nil {
		// A transport error after a CLOSE announcement is the drain
		// completing, not an unexpected loss: report it as such so
		// retrying callers classify it correctly.
		c.mu.Lock()
		draining := c.draining
		c.mu.Unlock()
		if draining {
			err = ErrServerDraining
		}
		c.fail(err)
		return nil, false
	}
	if m.Verb == "EVENT" {
		ev := Event{Attr: m.Get("attr"), Value: m.Get("value"), Op: m.Get("op"), Seq: uintField(m, "seq", 10), Lost: uintField(m, "lost", 10)}
		c.mu.Lock()
		handler := c.handler
		if handler == nil && !c.closed {
			// Under mu, which also covers fail closing the channel: a
			// Close from another goroutine while an event is in flight
			// must not turn this send into a panic.
			offer(c.eventsLocked(), ev)
		}
		c.mu.Unlock()
		if handler != nil {
			// Synchronous delivery: the handler observes every event
			// in server order with no client-side drops. It must not
			// block on this client's own operations.
			handler(ev)
		}
		return nil, true
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
			return nil, false
		}
		return nil, true
	}
	if m.Get("more") == "1" {
		// Interior chunk of a multi-part bulk reply:
		// buffer it against the request id; the final part (no
		// `more`) is delivered through the pending channel as usual
		// and the call site collects the buffered parts. Chunks for
		// an abandoned request are dropped, not accumulated.
		id := m.Get("id")
		c.mu.Lock()
		_, live := c.pending[id]
		if live {
			if c.chunks == nil {
				c.chunks = make(map[string][]*wire.Message)
			}
			c.chunks[id] = append(c.chunks[id], m)
		}
		c.mu.Unlock()
		if live {
			c.scratch = new(wire.Message) // the buffer keeps this one
		}
		return nil, true
	}
	id := m.Get("id") // may be a view: looked up and compared, never kept
	c.mu.Lock()
	slot := c.pending[id]
	delete(c.pending, id)
	switch {
	case slot == nil:
		delete(c.chunks, id)
		if c.orphans > 0 {
			c.orphans--
		}
	case !slot.reads:
		c.owed--
	}
	var swapEP *wire.ShmEndpoint
	if id != "" && id == c.shmSwapID && m.Verb == "OK" {
		swapEP, c.shmSwapID, c.shmSwapEP = c.shmSwapEP, "", nil
		c.shmActive = true
	}
	c.replies++
	earned := c.replies == shmPromoteAfter && c.shmOK
	drained := c.draining && len(c.pending) == 0
	c.mu.Unlock()
	answered := slot != nil && slot.answer(m)
	if slot != nil && !answered {
		c.wc.Keep(m)
	}
	if swapEP != nil {
		// Cutover: this OK answers our SHMRDY and is the
		// last framed byte the socket will ever carry — the server
		// sent it and swapped its write side in one step. Hand the
		// socket to the doorbell and read everything further from the
		// ring: replies to requests pipelined before the swap, events
		// and chunks arrive there with ids untouched.
		swapEP.Activate()
		c.wc.SwapRead(swapEP)
	}
	if earned {
		go c.promote()
	}
	switch {
	case answered:
		slot.ch <- nil
	case slot != nil:
		// Read the slot before the send: its receiver may release it,
		// and another request reuse it, the moment the reply is out.
		next := slot.msg
		slot.msg = m
		slot.ch <- m
		if next == nil {
			next = new(wire.Message)
		}
		c.scratch = next
	}
	if drained {
		c.fail(ErrServerDraining)
		return slot, false
	}
	return slot, true
}

// readTurn is what a holder putting the read side down sends a waiter
// that reads for itself in place of a reply: the read side is now its.
var readTurn = new(wire.Message)

// await waits for slot's reply. A waiter that may leave — slot.reads
// unset — waits for whoever reads the connection, and leaves when ctx
// ends, abandoning the slot. One that cannot takes the read side when it
// is free, or when it is handed it, and then reads frames — everyone's —
// until its own is answered; then it puts the read side down.
func (c *Client) await(ctx context.Context, slot *replySlot) (*wire.Message, error) {
	if !slot.reads {
		select {
		case reply := <-slot.ch:
			return reply, nil
		case <-ctx.Done():
			c.abandon(slot)
			return nil, ctx.Err()
		}
	}
	c.mu.Lock()
	hold := !c.reading && c.pending[slot.id] == slot
	if hold {
		c.reading = true
	} else {
		slot.parked = true
	}
	c.mu.Unlock()
	if !hold {
		if reply := <-slot.ch; reply != readTurn {
			return reply, nil
		}
	}
	for {
		if answered, ok := c.receive(); answered == slot || !ok {
			break
		}
	}
	c.putDown(false)
	// The reply, or — the client having failed first — fail's.
	return <-slot.ch, nil
}

// resident is the reader that runs while listenedLocked holds: it reads
// until nothing is owed that no waiter will read for itself, then puts
// the read side down.
func (c *Client) resident() {
	for {
		c.receive()
		if !c.putDown(true) {
			return
		}
	}
}

// listenedLocked reports whether a frame is owed that no waiter will
// read for itself: the events of a subscription the server has answered
// or of an installed handler, the loss an onClose hook waits on, the
// reply of a waiter that may leave, or one still owed to a request its
// waiter left. Callers hold mu.
func (c *Client) listenedLocked() bool {
	return c.owed > 0 || c.orphans > 0 || c.pushing || c.handler != nil || c.closeHook != nil
}

// listenLocked starts the resident reader if listenedLocked holds and
// nobody holds the read side; called under mu wherever listenedLocked
// may have become true, and by every request (a listener may have come
// while a waiter held the read side). A holder that is a waiter starts
// it when it puts the read side down.
func (c *Client) listenLocked() {
	if !c.reading && !c.closed && c.listenedLocked() {
		c.reading = true
		c.startResidentLocked()
	}
}

// startResidentLocked starts the resident reader, the read side already
// its. Callers hold mu.
func (c *Client) startResidentLocked() {
	if c.reader == nil {
		c.reader = c.resident
	}
	go c.reader()
}

// putDown ends a hold of the read side after the holder's last frame.
// While listenedLocked holds, the read side stays taken: the resident
// reader keeps it (putDown reports true), a waiter hands it to a new
// resident reader. Otherwise it goes to a waiter that reads for itself,
// if one is parked, or it is put down, and the read buffers go back to
// the pool unless they hold bytes the next holder must resume from.
func (c *Client) putDown(resident bool) (keep bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		if c.listenedLocked() {
			if !resident {
				c.startResidentLocked()
			}
			return resident
		}
		for _, slot := range c.pending {
			if slot.parked {
				slot.parked = false
				slot.ch <- readTurn
				return false
			}
		}
	}
	c.reading = false
	if c.closed {
		c.wc.ReleaseRead()
	} else {
		c.wc.ReleaseIdle()
	}
	return false
}

// inPlaceReply is receive's RecvView rule: the replies a slot may
// take in place, and so the only ones that may be dropped unkept.
func inPlaceReply(verb string) bool { return verb == "OK" || verb == "VALUE" || verb == "NOTFOUND" }

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
// the read buffers go back to the pool when nobody holds the read side
// (a holder returns them as it puts it down), and the onClose hook
// fires. It is called by the reader on any transport error, from send
// on a write error (a partial write corrupts framing — the connection
// is unusable), and from Close.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pending := c.pending
	c.pending, c.chunks, c.free = nil, nil, nil // closed: nothing registers again
	hook := c.closeHook
	if c.events != nil {
		close(c.events)
	}
	if !c.reading {
		c.wc.ReleaseRead()
	}
	c.mu.Unlock()
	// pending was swapped out under mu, so no reader can find these
	// slots any more: each gets this one reply and no other.
	for id, slot := range pending {
		slot.msg = wire.NewMessage("ERROR").Set("id", id).Set("error", err.Error()).Set("conn", "1")
		slot.ch <- slot.msg
	}
	c.raw.Close()
	if hook != nil {
		hook(err)
	}
}

// onClose installs a hook invoked once when the client fails or is
// closed, with the terminal error. Used by the LASS global cache to
// tear down a cache context whose upstream died, and by the shard
// router to retire its connection and redial. The hook keeps the
// resident reader running, so the loss is seen when it happens, not at
// the next operation.
// Installing the hook on an already-failed client invokes it
// immediately (on the calling goroutine) — without this, a client that
// dies between Dial and onClose would never signal anyone.
func (c *Client) onClose(fn func(error)) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if fn != nil {
			fn(err)
		}
		return
	}
	c.closeHook = fn
	c.listenLocked()
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
// bumps the verb counter, starts (or continues) a span, and stamps the
// trace fields onto m; end the result when the reply is in. It records
// nothing when no telemetry is configured and no span is in ctx.
func (c *Client) instrument(ctx context.Context, spec *opSpec, m *wire.Message) observation {
	c.mu.Lock()
	reg, tracer := c.reg, c.tracer
	c.mu.Unlock()

	o := observation{start: time.Now()}
	if parent := telemetry.FromContext(ctx); parent != nil {
		o.sp = parent.StartChild(spec.cliSpan)
	} else if tracer != nil {
		o.sp = tracer.StartSpan(spec.cliSpan)
	}
	if o.sp != nil {
		if a := m.Get("attr"); a != "" {
			o.sp.Set("attr", a)
		}
		m.SetTrace(o.sp.TraceID(), o.sp.SpanID())
	}
	if reg != nil {
		reg.Counter(spec.cliOpsName).Inc()
		o.lat = reg.Histogram(spec.cliLatName, nil)
	}
	return o
}

// call sends the request m of the op-table row spec (nil for the bare
// verb) and waits for its tagged reply. The reply is the caller's to
// keep: its slot is never released.
func (c *Client) call(ctx context.Context, spec *opSpec, m *wire.Message) (*wire.Message, error) {
	_, reply, err := c.exchange(ctx, spec, m, asMessage)
	if err == nil && spec.verb == "SUB" && reply.Verb == "OK" {
		// The server pushes EVENTs from now on; until a reader starts
		// they wait in the connection. A SUB refused leaves nothing
		// listening.
		c.mu.Lock()
		c.pushing = true
		c.listenLocked()
		c.mu.Unlock()
	}
	return reply, err
}

// exchange is call for the operations that release: it also returns the
// slot the reply came through, for the caller to release once it has
// parsed the reply (nil along with any error). A reply the slot's kind
// answers comes as nil (see replySlot). A caller whose ctx cannot end
// reads its reply itself when nobody else reads the connection (await);
// one that leaves through ctx abandons its slot — see replySlot for why
// it must.
func (c *Client) exchange(ctx context.Context, spec *opSpec, m *wire.Message, kind replyKind) (*replySlot, *wire.Message, error) {
	if m == nil {
		m = spec.req()
	}
	defer c.instrument(ctx, spec, m).end()
	slot, err := c.sendSwap(m, kind, nil, ctx.Done() == nil)
	if err != nil {
		return nil, nil, err
	}
	reply, err := c.await(ctx, slot)
	if err != nil {
		return nil, nil, err
	}
	return slot, reply, nil
}

// abandon withdraws the registration of a request whose caller has
// stopped waiting: a reply that still comes is dropped by the reader,
// with the interior chunks buffered for it, and until it has come the
// resident reader keeps reading.
func (c *Client) abandon(slot *replySlot) {
	c.mu.Lock()
	if c.pending[slot.id] == slot {
		delete(c.pending, slot.id)
		delete(c.chunks, slot.id)
		c.owed--
		c.orphans++
	}
	c.mu.Unlock()
}

// send registers a reply slot of the given kind (replySlot) and
// transmits the request; the reply arrives on the slot's channel, read
// by the resident reader, or by a waiter that reads for itself. A write
// error is terminal for the whole connection, not just this request: the
// frame may have left partially, so the stream's framing can no longer
// be trusted, and a connection whose write half is dead while its read
// half blocks would otherwise strand every other pending reply forever.
// fail drains them all exactly once.
func (c *Client) send(m *wire.Message, kind replyKind) (*replySlot, error) {
	return c.sendSwap(m, kind, nil, false)
}

// sendSwap is send with the two choices it leaves out. reads registers
// a waiter that will await the slot and cannot leave, so may read the
// connection itself; any other starts the resident reader if nobody
// reads. Given the ring endpoint (only cutover passes one) it sends
// SHMRDY: the swap state is registered under mu together with the
// pending slot — registering after the send returned would let the
// reply arrive first and the read-side swap never happen — and the
// frame leaves through SendSwap, which moves the write side onto the
// ring behind it.
func (c *Client) sendSwap(m *wire.Message, kind replyKind, ep *wire.ShmEndpoint, reads bool) (*replySlot, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		} else if !IsRetryable(err) {
			// A reader saw the transport die before this request
			// was made: to the caller the same retryable loss as a death
			// with the request in flight.
			err = fmt.Errorf("%w: %v", ErrConnLost, err)
		}
		return nil, err
	}
	if c.draining {
		c.mu.Unlock()
		return nil, ErrServerDraining
	}
	var slot *replySlot
	if n := len(c.free); n > 0 {
		slot, c.free = c.free[n-1], c.free[:n-1]
	} else {
		c.nextID++
		slot = &replySlot{id: strconv.FormatUint(c.nextID, 10), ch: make(chan *wire.Message, 2)}
	}
	slot.kind, slot.reads, slot.parked = kind, reads, false
	c.pending[slot.id] = slot
	if !reads {
		c.owed++
	}
	c.listenLocked()
	if ep != nil {
		c.shmSwapID, c.shmSwapEP = slot.id, ep
	}
	c.mu.Unlock()
	m.Set("id", slot.id)
	var err error
	if ep != nil {
		err = c.wc.SendSwap(m, ep)
	} else {
		err = c.wc.Send(m)
	}
	if err != nil {
		c.fail(err)
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return slot, nil
}

// ErrNoGlobal reports a global-scope verb sent to a server without an
// upstream CASS (global forwarding not enabled).
var ErrNoGlobal = errors.New("attrspace: server has no global forwarding")

// noGlobalText is the ERROR text of that refusal on the wire.
const noGlobalText = "global forwarding not enabled"

// replyErr maps an ERROR reply onto the client-side sentinels; nil for
// any other reply.
func replyErr(reply *wire.Message) error {
	if reply.Verb != "ERROR" {
		return nil
	}
	text := reply.Get("error")
	switch {
	case text == attr.ErrNotFound.Error():
		return ErrNotFound
	case reply.Get("conn") == "1":
		// Synthetic reply injected by fail(): the transport died with
		// the request in flight — retryable, unlike a server ERROR.
		if text == ErrServerDraining.Error() {
			return ErrServerDraining
		}
		return fmt.Errorf("%w: %s", ErrConnLost, text)
	case text == noGlobalText:
		return ErrNoGlobal
	case strings.Contains(text, ErrShardDown.Error()):
		// A routing LASS reporting one dead shard: surface the typed
		// degraded-mode error so callers can distinguish "this key
		// range is briefly down" from a hard failure.
		return fmt.Errorf("%w: %s", ErrShardDown, text)
	}
	return errors.New("attrspace: server: " + text)
}

// IsRetryable reports whether err is a transport-level failure, after
// which the operation's fate is unknown and only a new connection can
// carry it again: the connection was lost, the client object is closed,
// or the server announced a drain. Server application errors (including
// ErrNotFound) are not — the server saw the request and answered it.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrConnLost) ||
		errors.Is(err, ErrClientClosed) ||
		errors.Is(err, ErrServerDraining)
}

// The operations, once each: scope picks the verb — Local, the
// connection's own context, or Global, that context in the global space
// through this LASS — and every write or read returns the per-context
// seq the server assigned it (for a global one, the owning CASS shard's
// seq). The pre-scope spellings bench/ still calls are in compat.go.

// mutate is the round trip of a put, a batch and a delete: send, parse
// the ack, release the slot.
func (c *Client) mutate(ctx context.Context, spec *opSpec, m *wire.Message) (uint64, error) {
	slot, reply, err := c.exchange(ctx, spec, m, spec.reply)
	seq, err := seqReply(slot, reply, err)
	c.release(slot)
	return seq, err
}

// read is the round trip of a get and a tryget.
func (c *Client) read(ctx context.Context, spec *opSpec, attribute string) (string, uint64, error) {
	slot, reply, err := c.exchange(ctx, spec, attrReq(spec.req(), attribute), spec.reply)
	v, seq, err := valueReply(slot, reply, err)
	c.release(slot)
	return v, seq, err
}

// PutAt stores attribute = value at scope and waits for the
// acknowledgement, matching the paper's blocking tdp_put. A global put
// writes through the LASS to its CASS and caches the acked value, so a
// later read through the same LASS sees it without an upstream round
// trip. A span carried by ctx (see telemetry.NewContext) propagates to
// the server as _tid/_sid.
func (c *Client) PutAt(ctx context.Context, scope Scope, attribute, value string) (uint64, error) {
	spec := opFor(opPut, scope)
	return c.mutate(ctx, spec, putReq(spec.req(), attribute, value))
}

// PutBatchAt stores every pair in order in one round trip (the Parador
// startup pattern: a daemon publishing pid, executable, args and
// friends together) and returns the seq acked for the last pair. A
// batch of one travels as a plain put.
func (c *Client) PutBatchAt(ctx context.Context, scope Scope, pairs []KV) (uint64, error) {
	switch len(pairs) {
	case 0:
		return 0, nil
	case 1:
		return c.PutAt(ctx, scope, pairs[0].Key, pairs[0].Value)
	}
	spec := opFor(opMPut, scope)
	// Sized for the pairs, n, id and the two trace fields: a map left to
	// grow from one group on the stack costs five objects per batch.
	m := &wire.Message{Verb: spec.verb, Fields: make(map[string]string, 2*len(pairs)+4)}
	return c.mutate(ctx, spec, batchReq(m, pairs))
}

// GetAt blocks until the attribute exists at scope and returns its
// value with the seq of the write that produced it (the paper's
// blocking tdp_get). Cancel via ctx. A cached global attribute is
// answered by the LASS in one local hop.
func (c *Client) GetAt(ctx context.Context, scope Scope, attribute string) (string, uint64, error) {
	return c.read(ctx, opFor(opGet, scope), attribute)
}

// TryGetAt is GetAt without blocking: ErrNotFound when the attribute is
// absent.
func (c *Client) TryGetAt(ctx context.Context, scope Scope, attribute string) (string, uint64, error) {
	return c.read(ctx, opFor(opTryGet, scope), attribute)
}

// DeleteAt removes an attribute at scope and returns the seq assigned
// to the deletion (0 when the attribute was already absent).
func (c *Client) DeleteAt(ctx context.Context, scope Scope, attribute string) (uint64, error) {
	spec := opFor(opDelete, scope)
	return c.mutate(ctx, spec, attrReq(spec.req(), attribute))
}

// SnapshotAt returns a copy of every attribute of the context at scope
// (a global one always takes an upstream round trip; snapshots are
// never served from the cache).
func (c *Client) SnapshotAt(ctx context.Context, scope Scope) (map[string]string, error) {
	reply, err := c.call(ctx, opFor(opSnapshot, scope), nil)
	out := make(map[string]string)
	return out, c.entries(reply, err, func(e entry) { out[e.k] = e.v })
}

// Result is the completion of an asynchronous get or put.
type Result struct {
	Attr  string
	Value string
	Err   error
}

// GetAsync issues a blocking GET whose reply is delivered on the
// returned channel: the transport half of tdp_async_get. Its reply is
// read by the resident reader, which runs until it has come. The tdp
// package layers callback queueing and ServiceEvents on top.
func (c *Client) GetAsync(attribute string) (<-chan Result, error) {
	spec := opFor(opGet, Local)
	m := attrReq(spec.req(), attribute)
	obs := c.instrument(context.Background(), spec, m)
	slot, err := c.send(m, spec.reply)
	if err != nil {
		obs.end()
		return nil, err
	}
	out := make(chan Result, 1)
	go func() {
		v, _, err := valueReply(slot, <-slot.ch, nil)
		c.release(slot)
		obs.end()
		out <- Result{Attr: attribute, Value: v, Err: err}
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
// accumulated during the previous round trip goes out together, and
// every pending channel receives the batch's completion.
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
		pairs := make([]KV, len(batch))
		for i, p := range batch {
			pairs[i] = KV{Key: p.attr, Value: p.value}
		}
		_, err := c.PutBatchAt(context.Background(), Local, pairs)
		for _, p := range batch {
			p.out <- Result{Attr: p.attr, Value: p.value, Err: err}
		}
	}
}

// ServerStats asks the server to dump its telemetry registry (the
// STATS verb) and returns the decoded snapshot plus the daemon name
// the server reports itself as. STATS needs no joined context, and
// any client — tdpattr included — may issue it. Scope "tree" asks the
// daemon to merge its children's snapshots (see
// Server.SetStatsChildren) into the reply — one request for a whole
// subtree's telemetry; "" asks for the daemon's own.
func (c *Client) ServerStats(ctx context.Context, scope string) (daemon string, snap telemetry.Snapshot, err error) {
	spec := opFor(opStats, scopeDaemon)
	req := spec.req()
	if scope != "" {
		req.Set("scope", scope)
	}
	reply, err := c.call(ctx, spec, req)
	if err = okReply(reply, err); err != nil {
		return "", telemetry.Snapshot{}, err
	}
	snap, err = telemetry.ParseSnapshot([]byte(reply.Get("json")))
	if err != nil {
		return "", telemetry.Snapshot{}, err
	}
	return reply.Get("daemon"), snap, nil
}

// Versioned is a value paired with the seq of the write that produced
// it; re-exported from the attr engine so wire-level and in-process
// versioned snapshots share a type.
type Versioned = attr.Versioned

// SnapshotSeq returns every attribute with the seq of the write that
// produced it, plus the context's current sequence number (SNAP
// seqs=1). tdp.Handle.WatchUpdates re-reads the context with it after
// a declared loss, skipping the events the read already covers.
func (c *Client) SnapshotSeq(ctx context.Context) (map[string]Versioned, uint64, error) {
	spec := opFor(opSnapshot, Local)
	reply, err := c.call(ctx, spec, spec.req().Set("seqs", "1"))
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]Versioned, entryCount(reply))
	err = c.entries(reply, nil, func(e entry) { out[e.k] = Versioned{Value: e.v, Seq: e.seq} })
	return out, replySeq(reply), err
}

// ping performs a wire-level liveness round trip. The server answers
// inline on its read loop, so a timely PONG proves the connection and
// the peer's dispatch are alive even while bulk replies stream on other
// goroutines.
func (c *Client) ping(ctx context.Context) error {
	return okReply(c.call(ctx, opFor(opPing, scopeDaemon), nil))
}

// Subscribe starts event push from the server. Events arrive on the
// Events channel; the channel closes when the client does. A failed
// SUB leaves the client unsubscribed, so the caller may retry;
// concurrent Subscribes collapse to one wire request.
func (c *Client) Subscribe() error {
	_, err := c.subscribe(nil)
	return err
}

// subscribe is Subscribe with the handler, when not nil, installed in
// the same step that claims the connection's one subscription. The
// handler is called by the reader for every EVENT in place of the
// Events channel: where the channel drops its oldest event when its
// consumer lags, the handler sees every event the server sent, in
// order — what a coherent mirror (the LASS cache) needs. It must not
// call this client's blocking operations, whose replies the same reader
// receives. subscribe returns the subscription's id as the server wrote
// it — the origin a mirror stamps, unparsed, on the writes it applies
// itself so they are not echoed back to it — or "" when the connection
// was subscribed already and nothing was changed.
func (c *Client) subscribe(handler func(Event)) (origin string, err error) {
	c.mu.Lock()
	if c.subbed {
		c.mu.Unlock()
		return "", nil
	}
	c.subbed = true
	c.handler = handler // before the SUB: whoever reads its first EVENT must find it
	c.mu.Unlock()
	reply, err := c.call(context.Background(), opFor(opSub, Local), nil)
	if err = okReply(reply, err); err != nil {
		c.mu.Lock()
		c.subbed, c.handler = false, nil
		c.mu.Unlock()
		return "", err
	}
	return reply.Get("origin"), nil
}

// Events returns the subscription event channel. It never yields
// events before Subscribe succeeds, and asking for it starts no reader:
// the subscription's does.
func (c *Client) Events() <-chan Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eventsLocked()
}

// eventsLocked returns the event channel, making it on first use (most
// connections never subscribe): closed if the client already is, as for
// a consumer that asked earlier. Callers hold mu.
func (c *Client) eventsLocked() chan Event {
	if c.events == nil {
		c.events = make(chan Event, 64) // a lagging consumer's slack; beyond it offer drops the oldest
		if c.closed {
			close(c.events)
		}
	}
	return c.events
}

// SnapshotGlobalMany snapshots several global contexts in one GSNAPM
// round trip. On a sharded LASS the contexts are fetched from their
// owning CASS shards concurrently (scatter-gather); the result maps
// context name → attribute snapshot. ErrNoGlobal against servers
// without forwarding.
func (c *Client) SnapshotGlobalMany(ctx context.Context, contexts []string) (map[string]map[string]string, error) {
	spec := opFor(opSnapMany, Global)
	reply, err := c.call(ctx, spec, setNames(spec.req(), contexts))
	out := make(map[string]map[string]string)
	var decErr error
	err = c.entries(reply, err, func(e entry) {
		var snap map[string]string
		if jerr := json.Unmarshal([]byte(e.v), &snap); jerr != nil && decErr == nil {
			decErr = fmt.Errorf("attrspace: gsnapm decode %q: %w", e.k, jerr)
		}
		out[e.k] = snap
	})
	if err == nil {
		err = decErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GlobalContexts lists the context names alive across the global
// space — on a sharded LASS, the deduplicated union over every
// reachable shard. ErrNoGlobal against servers without forwarding.
func (c *Client) GlobalContexts(ctx context.Context) ([]string, error) {
	return namesReply(c.call(ctx, opFor(opContexts, Global), nil))
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
	c.wc.Send(opFor(opExit, scopeDaemon).req())
	c.fail(ErrClientClosed)
	return nil
}
