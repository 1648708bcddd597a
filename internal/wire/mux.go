package wire

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tdp/internal/telemetry"
)

// This file implements transport v2's stream multiplexing and flow
// control — an HTTP/2-lite layered over the existing framing rather
// than a new binary format. A message's stream rides in the reserved
// "_stream" field (absent = stream 0) and credit grants piggyback in
// "_win", so a v1 peer that never negotiated the extension either
// never sees the fields (senders only stamp them after capability
// negotiation) or carries them through untouched per the reserved-key
// contract.
//
// Flow control is credit-based and comes in two granularities. The v2
// baseline counts messages: each non-zero stream starts with the same
// fixed number of send credits on both sides, a send consumes one, and
// the receiver grants credits back as it consumes messages. Message
// counting keeps the two ends' accounting trivially symmetric (no
// drift from encoding differences), and bulk frames are bounded —
// large snapshot replays are chunked (see attrspace) — so a
// message-credit window still bounds the bytes a stream can have in
// flight, loosely.
//
// Transport v3 (negotiated via CapByteWin) counts bytes instead: a
// send consumes the message's EncodedSize, grants carry bytes, and
// each stream's initial window is sized for its traffic class — bulk
// and samples get room for throughput, events stay small so a
// fan-out burst cannot buffer far ahead of a slow consumer. Byte
// accounting stays symmetric because both ends measure the same
// payload with the same EncodedSize: the sender costs the message
// before stamping _stream/_win, the receiver after stripping them.
// One message always moves even when it alone exceeds the whole
// window — the sender waits for the window to be positive, then
// deducts the full cost and lets the window go negative — so an
// oversized frame degrades to stop-and-wait rather than deadlocking.
//
// Stream 0 is the control stream: request/reply traffic is
// self-limiting (one reply per request) and exempt from flow control,
// so the RPC hot path pays nothing beyond an empty-grant check.

// Well-known stream IDs. The assignment is a protocol convention, not
// a negotiation: both ends of a capability-negotiated connection use
// the same IDs for the same traffic classes.
const (
	// StreamControl is the unflow-controlled request/reply stream.
	StreamControl uint32 = 0
	// StreamEvents carries server→client event fan-out (EVENT).
	StreamEvents uint32 = 1
	// StreamBulk carries snapshot replay chunks (SNAPV/DELTA).
	StreamBulk uint32 = 2
	// StreamSamples carries telemetry uplinks (SAMPLE/TSAMPLE).
	StreamSamples uint32 = 3
)

// DefaultCredits is the initial per-stream send window, in messages.
// It is a protocol constant: both ends of a negotiated connection
// assume it, so changing it is a capability change.
const DefaultCredits = 64

// Per-stream initial windows for byte-granular flow control
// (CapByteWin). Like DefaultCredits these are protocol constants both
// ends assume. Bulk is sized to keep a chunked snapshot replay
// streaming (one SnapChunkEntries part in flight plus headroom),
// samples sized for sustained telemetry fan-in, and events kept small
// on purpose: event latency is the point of that stream, so a slow
// subscriber should exert back-pressure after a few dozen KiB, not
// after megabytes.
const (
	ByteWindowEvents  = 32 << 10
	ByteWindowBulk    = 256 << 10
	ByteWindowSamples = 128 << 10
	ByteWindowDefault = 64 << 10
)

// byteWindowFor maps a stream to its initial byte window.
func byteWindowFor(stream uint32) int {
	switch stream {
	case StreamEvents:
		return ByteWindowEvents
	case StreamBulk:
		return ByteWindowBulk
	case StreamSamples:
		return ByteWindowSamples
	default:
		return ByteWindowDefault
	}
}

// maxStreamID bounds accepted stream IDs so a hostile peer cannot
// grow the per-stream accounting maps without bound.
const maxStreamID = 1 << 16

// maxByteGrant bounds a single grant value in byte mode; anything
// larger than 1 GiB is a corrupt or hostile peer (windows are capped
// at their initial size anyway — this just rejects absurd parses
// before they touch the accounting).
const maxByteGrant = 1 << 30

// VerbWinUpdate is the explicit window-update verb, sent when a
// receiver has accumulated grants and has no outgoing message to
// piggyback them on.
const VerbWinUpdate = "WINUP"

// ErrMuxClosed is returned by SendOn after Fail.
var ErrMuxClosed = errors.New("wire: mux closed")

// MuxConfig parameterizes a Mux.
type MuxConfig struct {
	// Credits is the initial per-stream send window in messages;
	// 0 means DefaultCredits. In byte mode a non-zero Credits instead
	// overrides every stream's byte window. Both ends must agree
	// (tests only).
	Credits int
	// ByteWindow selects byte-granular flow control (CapByteWin):
	// windows and grants count payload bytes rather than messages.
	// Both ends must agree — it is set from the negotiated capability.
	ByteWindow bool
	// Registry receives the wire.mux.* metrics; nil records nothing.
	Registry *telemetry.Registry
}

// Mux layers stream multiplexing with per-stream credit windows over a
// Conn. One Mux serves both directions of one connection: SendOn
// stamps outgoing messages and blocks when the stream's window is
// exhausted; Accept (called by the owner's read loop for every
// incoming message) applies the peer's credit grants, accounts
// received stream messages, and returns credits to the peer — eagerly
// piggybacked on outgoing sends, or as an explicit WINUP once half a
// window has accumulated.
type Mux struct {
	c       *Conn
	credits int  // initial window per stream (messages, or byte override)
	bytes   bool // byte-granular windows (CapByteWin)

	mu      sync.Mutex
	cond    *sync.Cond
	send    map[uint32]int // remaining send window per stream
	pending map[uint32]int // received-but-ungranted units per stream
	npend   int            // sum of pending
	err     error

	cStalls  *telemetry.Counter   // sends that had to wait for window
	cWinups  *telemetry.Counter   // explicit WINUP frames sent
	cPiggy   *telemetry.Counter   // grant batches piggybacked on sends
	hWait    *telemetry.Histogram // window-wait latency
	gStreams *telemetry.Gauge     // distinct send streams opened
}

// NewMux returns a Mux over c. The caller keeps using c's Recv
// directly; every received message must be passed through Accept.
func NewMux(c *Conn, cfg MuxConfig) *Mux {
	credits := cfg.Credits
	if credits <= 0 {
		credits = DefaultCredits
	}
	if cfg.ByteWindow {
		// In byte mode the per-stream windows come from byteWindowFor;
		// cfg.Credits (when set) overrides them uniformly for tests.
		credits = cfg.Credits
	}
	x := &Mux{
		c:       c,
		credits: credits,
		bytes:   cfg.ByteWindow,
		send:    make(map[uint32]int),
		pending: make(map[uint32]int),
	}
	x.cond = sync.NewCond(&x.mu)
	if reg := cfg.Registry; reg != nil {
		x.cStalls = reg.Counter("wire.mux.stalls")
		x.cWinups = reg.Counter("wire.mux.winups")
		x.cPiggy = reg.Counter("wire.mux.piggybacks")
		x.hWait = reg.Histogram("wire.mux.windowwait", nil)
		x.gStreams = reg.Gauge("wire.mux.streams")
	}
	return x
}

// SendOn transmits m on the given stream, blocking while the stream's
// send window is exhausted (stream 0 never blocks). Any accumulated
// receive-side grants piggyback on the message. Concurrent SendOn
// calls on different streams are independent: one stalled stream never
// blocks another.
func (x *Mux) SendOn(stream uint32, m *Message) error {
	if stream != StreamControl {
		// Cost the message BEFORE stamping the mux fields; the receiver
		// costs it after stripping them, so both ends account the same
		// bytes (Encode is field-order independent).
		cost := 1
		if x.bytes {
			cost = m.EncodedSize()
		}
		if !x.tryAcquire(stream, cost) {
			// About to block: push out any frames an enclosing Cork is
			// holding — their receipt is what funds the grants we wait
			// for, so leaving them buffered would deadlock the stream.
			x.c.Flush()
			if err := x.acquire(stream, cost); err != nil {
				return err
			}
		}
		m.Set(FieldStream, strconv.FormatUint(uint64(stream), 10))
	}
	x.attachGrants(m)
	if err := x.c.Send(m); err != nil {
		x.Fail(err)
		return err
	}
	return nil
}

// winFor returns a stream's initial send window: messages in v2 mode,
// bytes (per traffic class, unless overridden) in byte mode.
func (x *Mux) winFor(stream uint32) int {
	if !x.bytes {
		return x.credits
	}
	if x.credits > 0 {
		return x.credits
	}
	return byteWindowFor(stream)
}

// initLocked lazily initializes a stream's send window. Callers hold mu.
func (x *Mux) initLocked(stream uint32) int {
	cr, ok := x.send[stream]
	if !ok {
		cr = x.winFor(stream)
		x.send[stream] = cr
		if x.gStreams != nil {
			x.gStreams.Set(int64(len(x.send)))
		}
	}
	return cr
}

// tryAcquire deducts cost from stream's send window without blocking;
// it reports false when the window is dry (or the mux already failed —
// acquire surfaces the error). The window only gates entry (it must be
// positive); the full cost is deducted even when it exceeds the
// remaining window, so an oversized message degrades to stop-and-wait
// instead of deadlocking.
func (x *Mux) tryAcquire(stream uint32, cost int) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil {
		return false
	}
	if x.initLocked(stream) <= 0 {
		return false
	}
	x.send[stream] -= cost
	return true
}

// acquire deducts cost from stream's send window, waiting for the
// peer's grants while the window is non-positive.
func (x *Mux) acquire(stream uint32, cost int) error {
	x.mu.Lock()
	cr := x.initLocked(stream)
	if cr <= 0 && x.err == nil {
		if x.cStalls != nil {
			x.cStalls.Inc()
		}
		start := time.Now()
		for x.send[stream] <= 0 && x.err == nil {
			x.cond.Wait()
		}
		if x.hWait != nil {
			x.hWait.Since(start)
		}
	}
	if x.err != nil {
		err := x.err
		x.mu.Unlock()
		return err
	}
	x.send[stream] -= cost
	x.mu.Unlock()
	return nil
}

// Accept processes one incoming message: it applies any piggybacked
// credit grants to the local send windows, strips the mux fields, and
// accounts the message against its stream's receive window (granting
// credits back to the peer once enough accumulate). It returns the
// stream the message rode and whether the message was pure transport
// (a WINUP) that the caller must not dispatch.
func (x *Mux) Accept(m *Message) (stream uint32, handled bool) {
	if w, ok := m.Fields[FieldWindow]; ok {
		delete(m.Fields, FieldWindow)
		x.applyGrants(w)
	}
	if m.Verb == VerbWinUpdate {
		return 0, true
	}
	s, ok := m.Fields[FieldStream]
	if !ok {
		return 0, false
	}
	delete(m.Fields, FieldStream)
	sid64, err := strconv.ParseUint(s, 10, 32)
	if err != nil || sid64 == 0 || sid64 > maxStreamID {
		return 0, false
	}
	sid := uint32(sid64)
	// Cost AFTER stripping _stream/_win — the mirror of SendOn costing
	// before stamping them, so both ends deduct identical amounts.
	cost := 1
	if x.bytes {
		cost = m.EncodedSize()
	}
	x.mu.Lock()
	x.pending[sid] += cost
	x.npend += cost
	// Grant back once half the stream's window has accumulated: often
	// enough that the sender rarely stalls, rarely enough that grant
	// traffic stays negligible.
	flush := x.pending[sid] >= (x.winFor(sid)+1)/2
	var grants string
	if flush {
		grants = x.grantsLocked()
	}
	x.mu.Unlock()
	if flush && grants != "" {
		if x.cWinups != nil {
			x.cWinups.Inc()
		}
		// Best effort: a write error here surfaces through the owner's
		// read/send paths; the explicit update itself carries no data.
		if err := x.c.Send(NewMessage(VerbWinUpdate).Set(FieldWindow, grants)); err != nil {
			x.Fail(err)
		}
	}
	return sid, false
}

// attachGrants piggybacks pending receive-side grants onto m.
func (x *Mux) attachGrants(m *Message) {
	x.mu.Lock()
	if x.npend == 0 {
		x.mu.Unlock()
		return
	}
	grants := x.grantsLocked()
	x.mu.Unlock()
	if grants != "" {
		m.Set(FieldWindow, grants)
		if x.cPiggy != nil {
			x.cPiggy.Inc()
		}
	}
}

// grantsLocked encodes and clears the pending grants ("sid:n,…").
// Callers hold mu.
func (x *Mux) grantsLocked() string {
	if x.npend == 0 {
		return ""
	}
	ids := make([]uint32, 0, len(x.pending))
	for sid, n := range x.pending {
		if n > 0 {
			ids = append(ids, sid)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for i, sid := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(sid), 10))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(x.pending[sid]))
	}
	clear(x.pending)
	x.npend = 0
	return b.String()
}

// applyGrants credits the local send windows from an encoded grant
// list; malformed entries are ignored (a broken peer cannot wedge us,
// only starve itself).
func (x *Mux) applyGrants(grants string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	woke := false
	for grants != "" {
		var pair string
		if i := strings.IndexByte(grants, ','); i >= 0 {
			pair, grants = grants[:i], grants[i+1:]
		} else {
			pair, grants = grants, ""
		}
		i := strings.IndexByte(pair, ':')
		if i < 0 {
			continue
		}
		sid64, err := strconv.ParseUint(pair[:i], 10, 32)
		if err != nil || sid64 == 0 || sid64 > maxStreamID {
			continue
		}
		maxGrant := maxStreamID
		if x.bytes {
			maxGrant = maxByteGrant
		}
		n, err := strconv.Atoi(pair[i+1:])
		if err != nil || n <= 0 || n > maxGrant {
			continue
		}
		sid := uint32(sid64)
		x.initLocked(sid)
		x.send[sid] += n
		// Cap at the initial window: grants can never exceed what we
		// consumed, so exceeding it means a confused peer.
		if w := x.winFor(sid); x.send[sid] > w {
			x.send[sid] = w
		}
		woke = true
	}
	if woke {
		x.cond.Broadcast()
	}
}

// Fail marks the mux dead and wakes every sender blocked on a window;
// they return err. Idempotent; the first error wins.
func (x *Mux) Fail(err error) {
	if err == nil {
		err = ErrMuxClosed
	}
	x.mu.Lock()
	if x.err == nil {
		x.err = err
	}
	x.mu.Unlock()
	x.cond.Broadcast()
}

// ---------------------------------------------------------------------------
// Capability negotiation helpers.
//
// Transport v2 is negotiated on the application handshake (HELLO for
// the attribute space, REGISTER for the tool protocol): the initiator
// lists the capabilities it speaks in a "caps" field, the responder
// answers with the intersection of that list and its own, and both
// sides enable exactly the granted set. A v1 peer ignores the unknown
// field and grants nothing — transparent fallback, the MPUT pattern.

// Capability names.
const (
	// CapMux: stream IDs + credit-window flow control on this conn.
	CapMux = "mux"
	// CapSnapd: the SNAPD delta-snapshot verb.
	CapSnapd = "snapd"
	// CapChunk: large snapshot replies arrive as part/more chunks.
	CapChunk = "chunk"
	// CapPing: wire-level PING/PONG liveness probes.
	CapPing = "ping"
	// CapCtxOp: the C* context-explicit verbs (CPUT, CGET, ...), which
	// carry the target context per message instead of binding the whole
	// connection to one context at HELLO. This is what lets a shard
	// router keep one pooled connection per CASS shard and route any
	// context's operations over it.
	CapCtxOp = "ctxop"
	// CapTBatch: the TBATCH verb — a whole mrnet drain cycle's SAMPLE
	// and TSAMPLE updates packed into one frame on a node→node uplink.
	CapTBatch = "tbatch"
	// CapByteWin: byte-granular credit windows — _win entries carry
	// bytes and per-stream windows come from the ByteWindow* constants.
	// Without it a mux-capable peer stays on message counting (v2).
	CapByteWin = "bytewin"
	// CapShm: the shared-memory ring transport for same-host
	// connections. Granted only when the server can see the client is
	// local (unix socket). The grant maps nothing: the framed protocol
	// runs over the socket until the client asks for a ring (SHMREQ),
	// then both byte streams move onto the mmap ring in mid-stream, with
	// the socket retained as doorbell and liveness signal.
	CapShm = "shm"
)

// ParseCaps splits a comma-separated capability list into a set.
func ParseCaps(s string) map[string]bool {
	out := make(map[string]bool)
	for s != "" {
		var c string
		if i := strings.IndexByte(s, ','); i >= 0 {
			c, s = s[:i], s[i+1:]
		} else {
			c, s = s, ""
		}
		if c != "" {
			out[c] = true
		}
	}
	return out
}

// IntersectCaps returns the comma-separated subset of supported that
// the peer offered, preserving supported's order (deterministic
// replies).
func IntersectCaps(offered string, supported []string) string {
	if offered == "" || len(supported) == 0 {
		return ""
	}
	set := ParseCaps(offered)
	var b strings.Builder
	for _, c := range supported {
		if !set[c] {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c)
	}
	return b.String()
}
