// Package wire implements the message framing and encoding shared by
// every daemon protocol in the TDP reproduction: the attribute space
// protocol (LASS/CASS), the Condor daemon protocols, the Paradyn
// front-end protocol, and the proxy control channel.
//
// A message on the wire is a 4-byte big-endian length followed by that
// many payload bytes. The payload is a Message encoded as a compact
// textual record: the verb, then a sequence of key/value fields, each
// length-prefixed so values may contain any byte sequence. The format
// is deliberately simple (the paper constrains attribute values to
// strings) and has no external dependencies.
//
// The codec is allocation-conscious: AppendEncode appends into a
// caller-supplied buffer in map order (no sort) and writes the digits of
// a SetUint field straight into it, DecodeInto reuses a Message and
// interns the protocol's fixed verb vocabulary, and Conn keeps
// per-connection scratch buffers (frame header included). A steady-state
// Send/RecvInto cycle therefore allocates one thing per message
// received: the copy of its payload that every decoded verb, key and
// value is a view of. RecvView skips even that for the verbs its caller
// names: their strings are views of the connection's read buffer, valid
// until the next receive, and Conn.Keep makes the copy only for a
// message that has to outlive it. The attribute space server reads a
// get's request that way, and its client a mutation's ack and a read's
// VALUE, copying only the value a caller takes away. Both ends receive
// into a Message they reuse; Recv, which allocates the Message and its
// field map as well, remains for protocols off the hot path. Encode
// remains deterministic (sorted keys) for tests and logs.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"tdp/internal/telemetry"
)

// MaxFrameSize bounds a single frame. Attribute values are small
// configuration strings in TDP; 16 MiB is far beyond any legitimate
// message and protects servers from hostile or corrupt peers.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when an incoming frame header announces
// a payload larger than MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrMalformed is returned when a payload cannot be decoded as a Message.
var ErrMalformed = errors.New("wire: malformed message")

// Reserved field names. Keys beginning with "_" are reserved for the
// protocol layer. Verb handlers read named fields only, so reserved
// keys are ignored end to end; IsReserved lets generic code (snapshot
// dumps, attribute iteration) skip them.
const (
	// FieldTraceID carries the telemetry trace ID across daemons.
	FieldTraceID = "_tid"
	// FieldSpanID carries the sender's span ID (the receiver's parent).
	FieldSpanID = "_sid"
)

// IsReserved reports whether a field key belongs to the protocol
// layer rather than the application.
func IsReserved(key string) bool { return strings.HasPrefix(key, "_") }

// interned holds the protocol's fixed vocabulary of verbs and field
// keys. Decoders look incoming byte slices up here before converting,
// so the hot path allocates no strings for the keys and verbs that
// make up almost every message. The map is built once at init and
// read-only afterwards, hence safe for concurrent use. Lookups with a
// []byte key (`interned[string(b)]`) do not allocate.
var interned = map[string]string{}

func init() {
	words := []string{
		// Attribute space verbs (requests and replies).
		"HELLO", "PUT", "MPUT", "GET", "TRYGET", "DELETE", "SNAP", "SUB",
		"STATS", "EXIT", "OK", "VALUE", "NOTFOUND", "SNAPV", "STATSV",
		"ERROR", "EVENT", "CLOSE",
		// Global-forwarding verbs (LASS → CASS relay).
		"GPUT", "GMPUT", "GGET", "GTRYGET", "GDEL", "GSNAP",
		"GSNAPM", "GCTXS",
		// Context-explicit verbs (shard router → CASS shard): the pooled
		// per-shard connection names the target context in a ctx field on
		// every request instead of joining one at HELLO.
		"CPUT", "CMPUT", "CGET", "CDEL", "CSNAP", "CCTXS",
		// Batched uplink flush (mrnet node→node).
		"TBATCH",
		// Tool-stream verbs (paradyn front-end protocol, mrnet
		// reduction network, proxy handshake) — the monitoring fan-in
		// hot path, where a pool of daemons emits a message per metric
		// per sample interval.
		"REGISTER", "SAMPLE", "DONE", "RUN",
		"CONNECT", "REFUSED",
		// Wire-level liveness probes and the shared-memory promotion
		// requests.
		"PING", "PONG", "SHMREQ", "SHMRDY",
		// Common field keys.
		"id", "attr", "value", "context", "error", "daemon", "json",
		"n", "seq", "op", "who", "lost", "seqs", "reason", "conn",
		"fn", "calls", "time_us", "status", "host", "executable",
		"pid", "rank", "kind", "name", "scope", "target", "resume",
		"caps", "part", "more", "total",
		"ctx", "wait", "shard", "shmfile", "rev", "shm",
		FieldTraceID, FieldSpanID,
	}
	// Batched put / snapshot field keys k0..k31, v0..v31 (plus the
	// per-entry seq keys s0..s31 of a versioned snapshot); larger batches
	// fall back to ordinary string conversion.
	for i := 0; i < 32; i++ {
		words = append(words, "k"+strconv.Itoa(i), "v"+strconv.Itoa(i), "s"+strconv.Itoa(i))
	}
	for _, w := range words {
		interned[w] = w
	}
}

// intern returns the canonical string for s when it is in the
// protocol's fixed vocabulary. Callers pass views of an already-copied
// payload, so the miss path allocates nothing either — interning here
// is purely canonicalization (verb dispatch compares pointers first).
func intern(s string) string {
	if c, ok := interned[s]; ok {
		return c
	}
	return s
}

// IndexedKey returns the field key <prefix><i> (k0, v17, s3, …) of a
// batch or snapshot entry: the vocabulary's own string for the indexes
// it holds, a new one beyond them.
func IndexedKey(prefix byte, i int) string {
	var buf [21]byte
	key := strconv.AppendInt(append(buf[:0], prefix), int64(i), 10)
	if c, ok := interned[string(key)]; ok {
		return c
	}
	return string(key)
}

// Message is a verb plus a set of string key/value fields. It is the
// unit of exchange on every control connection.
//
// A message built for sending may hold one field as a number (SetUint):
// the encoder writes its decimal digits straight into the frame, so on
// the wire it is the same string field Set would have made, and the
// number is never formatted into a string of its own. Such a field is
// not in Fields; Get, Lookup, Int, String and the encoders all see it.
// A received message holds every field in Fields.
type Message struct {
	Verb   string
	Fields map[string]string
	numKey string // the SetUint field's key, "" when there is none
	num    uint64
}

// NewMessage returns a Message with the given verb and an empty field set.
func NewMessage(verb string) *Message {
	return &Message{Verb: verb, Fields: make(map[string]string)}
}

// Set stores a field and returns the message for chaining.
func (m *Message) Set(key, value string) *Message {
	if m.Fields == nil {
		m.Fields = make(map[string]string)
	}
	if m.isNum(key) {
		m.numKey = ""
	}
	m.Fields[key] = value
	return m
}

// SetInt stores an integer field.
func (m *Message) SetInt(key string, value int) *Message {
	return m.Set(key, strconv.Itoa(value))
}

// SetUint stores an unsigned field whose digits the encoder writes
// straight into the frame (see Message). A message holds one such field:
// another key, or an empty one, is formatted into Fields, which costs
// what Set would have.
func (m *Message) SetUint(key string, value uint64) *Message {
	if key == "" || (m.numKey != "" && m.numKey != key) {
		return m.Set(key, strconv.FormatUint(value, 10))
	}
	delete(m.Fields, key)
	m.numKey, m.num = key, value
	return m
}

// Get returns the value for key, or "" when absent.
func (m *Message) Get(key string) string {
	v, _ := m.Lookup(key)
	return v
}

// Lookup returns the value for key and whether it was present.
func (m *Message) Lookup(key string) (string, bool) {
	if m.isNum(key) {
		return strconv.FormatUint(m.num, 10), true
	}
	v, ok := m.Fields[key]
	return v, ok
}

// isNum reports whether key is m's SetUint field.
func (m *Message) isNum(key string) bool { return m.numKey != "" && key == m.numKey }

// fieldCount is the number of fields m encodes.
func (m *Message) fieldCount() int {
	if m.numKey != "" {
		return len(m.Fields) + 1
	}
	return len(m.Fields)
}

// SetTrace stamps the reserved span-tracing fields on the message.
// Empty IDs clear nothing and stamp nothing, so untraced paths add no
// bytes to the wire.
func (m *Message) SetTrace(traceID, spanID string) *Message {
	if traceID != "" {
		m.Set(FieldTraceID, traceID)
	}
	if spanID != "" {
		m.Set(FieldSpanID, spanID)
	}
	return m
}

// fieldsKeep is the largest field population a reused Message keeps its
// map after. Go clears a map in time proportional to its capacity, not
// its population, and a map never shrinks: a connection's request
// message that once decoded a 256-pair batch (513 fields) would pay for
// clearing that table before every 3-field put that follows. Above a few
// dozen fields — every fixed-shape protocol message and an 8-pair batch
// stay below — the map is dropped and the next message makes its own.
const fieldsKeep = 32

// Reset empties m for reuse: the verb, and the fields — by clearing the
// map while the message it held was small, by dropping it otherwise
// (fieldsKeep).
func (m *Message) Reset() {
	m.Verb = ""
	m.numKey, m.num = "", 0
	if len(m.Fields) > fieldsKeep {
		m.Fields = nil
	} else {
		clear(m.Fields)
	}
}

// Trace returns the reserved span-tracing fields ("" when untraced).
func (m *Message) Trace() (traceID, spanID string) {
	return m.Fields[FieldTraceID], m.Fields[FieldSpanID]
}

// Int returns the integer value of a field, or the provided default
// when the field is absent or unparseable.
func (m *Message) Int(key string, def int) int {
	v, ok := m.Lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// String renders the message for logs and error text. The buffer is
// presized from the actual key/value lengths and values are quoted in
// place with AppendQuote, so rendering a message with long values is
// one allocation-and-copy pass instead of a per-field Quote allocation
// feeding an undersized builder that regrows (and re-copies) as each
// chunk lands.
func (m *Message) String() string {
	keys := m.sortedKeys()
	size := len(m.Verb)
	for _, k := range keys {
		// ' ' + key + '=' + '"' + value + '"'; escapes may add more,
		// but that growth is amortized against an almost-right base.
		size += len(k) + len(m.Fields[k]) + 4
	}
	buf := make([]byte, 0, size)
	buf = append(buf, m.Verb...)
	for _, k := range keys {
		buf = append(buf, ' ')
		buf = append(buf, k...)
		buf = append(buf, '=')
		if m.isNum(k) {
			buf = append(buf, '"')
			buf = strconv.AppendUint(buf, m.num, 10)
			buf = append(buf, '"')
		} else {
			buf = strconv.AppendQuote(buf, m.Fields[k])
		}
	}
	return string(buf)
}

// EncodedSize returns the exact number of payload bytes Encode and
// AppendEncode produce for m.
func (m *Message) EncodedSize() int {
	n := varStrSize(len(m.Verb)) + uintDigits(uint64(m.fieldCount())) + 1
	for k, v := range m.Fields {
		n += varStrSize(len(k)) + varStrSize(len(v))
	}
	if m.numKey != "" {
		n += varStrSize(len(m.numKey)) + varStrSize(uintDigits(m.num))
	}
	return n
}

// Encode serializes the message payload (without the frame header).
//
// Layout: varstr(verb) varint(nfields) { varstr(key) varstr(value) }*
// where varstr is a decimal length, ':', then the bytes.
//
// Encode emits fields in sorted key order — the deterministic mode
// tests and golden files rely on. The transmit hot path (Conn.Send)
// uses AppendEncode instead, which skips the sort: receivers are
// order-insensitive, so field order is not part of the protocol.
func (m *Message) Encode() []byte {
	buf := make([]byte, 0, m.EncodedSize())
	buf = appendVarStr(buf, m.Verb)
	buf = strconv.AppendInt(buf, int64(m.fieldCount()), 10)
	buf = append(buf, ';')
	for _, k := range m.sortedKeys() {
		buf = appendVarStr(buf, k)
		if m.isNum(k) {
			buf = appendVarUint(buf, m.num)
		} else {
			buf = appendVarStr(buf, m.Fields[k])
		}
	}
	return buf
}

// AppendEncode appends the encoded payload to buf and returns the
// extended slice. Fields are emitted in map order — no per-message
// key sort and no allocation beyond (amortized) buffer growth, which
// a caller reusing buf across messages pays only once. Use Encode
// when deterministic bytes matter.
func (m *Message) AppendEncode(buf []byte) []byte {
	buf = appendVarStr(buf, m.Verb)
	buf = strconv.AppendInt(buf, int64(m.fieldCount()), 10)
	buf = append(buf, ';')
	for k, v := range m.Fields {
		buf = appendVarStr(buf, k)
		buf = appendVarStr(buf, v)
	}
	if m.numKey != "" {
		buf = appendVarStr(buf, m.numKey)
		buf = appendVarUint(buf, m.num)
	}
	return buf
}

// sortedKeys returns the field keys, the SetUint one included, in
// sorted order. Small key sets (every protocol message; snapshots
// excepted) sort by insertion into a stack-backed array, avoiding the
// sort.Strings allocation.
func (m *Message) sortedKeys() []string {
	n := m.fieldCount()
	var arr [16]string
	keys := arr[:0]
	if n > len(arr) {
		keys = make([]string, 0, n)
	}
	for k := range m.Fields {
		keys = append(keys, k)
	}
	if m.numKey != "" {
		keys = append(keys, m.numKey)
	}
	if n > 32 {
		sort.Strings(keys)
		return keys
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Decode parses a payload produced by Encode or AppendEncode.
func Decode(payload []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a payload into m, reusing m's field map while the
// message it last held was small (Reset). Decoded messages share no
// memory with payload, so callers may reuse the payload buffer at once: the
// payload is copied into a single string up front and every decoded
// verb, key, and value is a zero-copy view of that one copy — a
// message with f fields costs one allocation, not f+1. (The flip side:
// retaining any one field value keeps the whole message's bytes alive,
// which for kilobyte-scale protocol messages is the right trade.)
// On error m's contents are unspecified.
func DecodeInto(m *Message, payload []byte) error {
	return decode(m, string(payload))
}

// decode parses s into m; every string m holds afterwards is a view of
// s or a word of the vocabulary.
func decode(m *Message, s string) error {
	verb, rest, err := readVarStr(s)
	if err != nil {
		return err
	}
	n, rest, err := readCount(rest)
	if err != nil {
		return err
	}
	m.Reset()
	m.Verb = intern(verb)
	if m.Fields == nil {
		// Cap the map size hint by what the remaining bytes could possibly
		// hold (a field is at least 4 bytes: "0:0:"), so a hostile count
		// cannot force a huge allocation before parsing fails.
		hint := n
		if max := len(rest) / 4; hint > max {
			hint = max
		}
		m.Fields = make(map[string]string, hint)
	}
	for i := 0; i < n; i++ {
		var k, v string
		k, rest, err = readVarStr(rest)
		if err != nil {
			return err
		}
		v, rest, err = readVarStr(rest)
		if err != nil {
			return err
		}
		m.Fields[k] = v
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(rest))
	}
	return nil
}

func appendVarStr(buf []byte, s string) []byte {
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	buf = append(buf, ':')
	return append(buf, s...)
}

// appendVarUint appends n as the varstr of its decimal digits: the
// bytes appendVarStr(buf, strconv.FormatUint(n, 10)) appends, without
// the string.
func appendVarUint(buf []byte, n uint64) []byte {
	buf = strconv.AppendInt(buf, int64(uintDigits(n)), 10)
	buf = append(buf, ':')
	return strconv.AppendUint(buf, n, 10)
}

// varStrSize is the encoded size of a string of length l.
func varStrSize(l int) int { return uintDigits(uint64(l)) + 1 + l }

// uintDigits is the width of n in base 10.
func uintDigits(n uint64) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}

// parseLen parses a non-negative decimal length from b. It accepts
// only plain digit runs (no sign, no spaces) of at most 9 digits —
// anything longer necessarily exceeds MaxFrameSize.
func parseLen(b string) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func readCount(b string) (int, string, error) {
	i := 0
	for i < len(b) && b[i] != ';' {
		i++
	}
	if i == len(b) {
		return 0, "", fmt.Errorf("%w: missing field count", ErrMalformed)
	}
	n, ok := parseLen(b[:i])
	if !ok {
		return 0, "", fmt.Errorf("%w: bad field count", ErrMalformed)
	}
	return n, b[i+1:], nil
}

// readVarStr slices one length-prefixed string out of b. The returned
// string shares b's backing — for DecodeInto that is the message's own
// payload copy, so retaining it is safe.
func readVarStr(b string) (string, string, error) {
	i := 0
	for i < len(b) && b[i] != ':' {
		i++
	}
	if i == len(b) {
		return "", "", fmt.Errorf("%w: missing length separator", ErrMalformed)
	}
	n, ok := parseLen(b[:i])
	if !ok {
		return "", "", fmt.Errorf("%w: bad length", ErrMalformed)
	}
	rest := b[i+1:]
	if len(rest) < n {
		return "", "", fmt.Errorf("%w: short string", ErrMalformed)
	}
	return rest[:n], rest[n:], nil
}

// scratchKeepCap bounds how much scratch buffer a connection keeps
// between messages; a single oversized message (a big SNAPV, say) must
// not pin its buffer for the connection's lifetime.
const scratchKeepCap = 64 << 10

// Conn wraps an io.ReadWriter with framed Message I/O. Reads and
// writes are independently serialized, so one goroutine may read while
// another writes, and multiple goroutines may send concurrently.
//
// Its receive buffers are borrowed from a pool at the first Recv and go
// back when the stream ends under a Recv — by the goroutine inside that
// Recv, holding rmu, so no other Recv can be touching them — or when its
// reader stops (ReleaseRead) or pauses with nothing buffered
// (ReleaseIdle); its send buffer starts on an array of its own: a
// connection that lives a handful of small messages allocates no buffer
// at all.
type Conn struct {
	rmu  sync.Mutex
	rd   *readBuf  // nil before the first Recv and after the stream's last; guarded by rmu
	r    io.Reader // what rd reads from, guarded by rmu
	rhdr [4]byte   // frame header scratch, guarded by rmu (a local escapes through io.ReadFull)
	w    io.Writer
	rw   io.ReadWriter

	wmu     sync.Mutex
	wbuf    []byte // frame scratch / cork accumulator, guarded by wmu
	corked  int    // Cork depth, guarded by wmu
	pending int    // messages accumulated while corked, guarded by wmu

	// Optional telemetry, installed by InstrumentRegistry. Held behind
	// an atomic pointer — NOT the r/w mutexes — because a reader
	// goroutine may sit blocked inside Recv (holding rmu) for the
	// connection's whole life, and installing must not wait for it.
	metrics atomic.Pointer[connCounters]
	// The shm ring this connection was swapped onto, if any, so that
	// counters installed after the cutover still reach it.
	ring atomic.Pointer[ShmEndpoint]

	// wbuf's first backing (every frame of a launch fits; the struct
	// fills a 256-byte size class), behind everything a message touches.
	wfirst [120]byte
}

// connCounters bundles a connection's installed counters.
type connCounters struct {
	txBytes, rxBytes *telemetry.Counter
	txMsgs, rxMsgs   *telemetry.Counter
	ring             ringCounters
}

// ringCounters is the ring-wait layer of the shm transport: how each
// wait on an empty (or full) ring ended. A spin is rewarded when
// progress arrived inside its budget and wasted when it did not; parks
// counts sleeps on the doorbell and doorbells the wake-up bytes written
// to the peer. A ping-ponging pair moves only rewarded; an idle one
// only parks and doorbells.
type ringCounters struct {
	rewarded, wasted, parks, doorbells *telemetry.Counter
}

// newRingCounters resolves the ring-wait counters in reg, once.
func newRingCounters(reg *telemetry.Registry) ringCounters {
	return ringCounters{
		rewarded:  reg.Counter("wire.shm.spin.rewarded"),
		wasted:    reg.Counter("wire.shm.spin.wasted"),
		parks:     reg.Counter("wire.shm.parks"),
		doorbells: reg.Counter("wire.shm.doorbells"),
	}
}

// uncountedRing is what an endpoint no registry was ever installed on
// counts into: nothing. (Not some shared sink: a ping-ponging pair
// bumps rewarded on every message, from both ends.)
var uncountedRing ringCounters

// inc bumps one ring-wait counter, if it is installed.
func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

// readBuf is the receive side's reusable memory: the stream buffer and
// the payload scratch a frame is read into before it is decoded.
type readBuf struct {
	br      bufio.Reader
	payload []byte
	view    string // the frame the last RecvView decoded, until the next receive or Keep
}

var readBufs = sync.Pool{New: func() any { return new(readBuf) }}

// NewConn returns a framed connection over rw.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{r: rw, w: rw, rw: rw}
	c.wbuf = c.wfirst[:0]
	c.noteRing(rw)
	return c
}

// ReleaseRead hands the receive buffers back to the pool, with whatever
// bytes of the stream they still hold. RecvInto does it when the stream
// fails under it (a frame the failure cut short could not have been
// resumed anyway), so only a reader that stops for good of its own
// accord — the peer said EXIT, or its own side closed — calls it, after
// its last Recv.
func (c *Conn) ReleaseRead() {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.releaseReadLocked()
}

// ReleaseIdle is ReleaseRead for a stream that goes on, called when
// nobody is to read it for a while: the buffers go back to the pool only
// when they hold no bytes of the stream, so the next Recv resumes it
// exactly where the last one stopped — on a fresh buffer, or on this one.
func (c *Conn) ReleaseIdle() {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if rd := c.rd; rd != nil && rd.br.Buffered() == 0 {
		c.releaseReadLocked()
	}
}

func (c *Conn) releaseReadLocked() {
	rd := c.rd
	if rd == nil {
		return
	}
	c.rd = nil
	rd.view = ""
	rd.br.Reset(nil)
	if cap(rd.payload) > scratchKeepCap {
		rd.payload = nil
	}
	readBufs.Put(rd)
}

// InstrumentRegistry installs the standard wire counters from reg:
// "wire.tx.bytes", "wire.rx.bytes", "wire.tx.msgs", "wire.rx.msgs",
// which the connection bumps on every framed send and receive (byte
// counts include the 4-byte frame headers — they are what crossed the
// wire), and the ring-wait counters "wire.shm.spin.rewarded",
// "wire.shm.spin.wasted", "wire.shm.parks", "wire.shm.doorbells" for a
// shm ring the connection is, or later gets, swapped onto. All are
// resolved here, once. Several connections may share one registry; the
// counters then aggregate across them. Installation is safe at any
// time, including while another goroutine is blocked in Recv.
func (c *Conn) InstrumentRegistry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m := &connCounters{
		txBytes: reg.Counter("wire.tx.bytes"), rxBytes: reg.Counter("wire.rx.bytes"),
		txMsgs: reg.Counter("wire.tx.msgs"), rxMsgs: reg.Counter("wire.rx.msgs"),
		ring: newRingCounters(reg),
	}
	c.metrics.Store(m)
	if ep := c.ring.Load(); ep != nil {
		ep.instrument(&m.ring)
	}
}

// noteRing runs at a transport swap. It records the ring before it
// reads the installed counters, and InstrumentRegistry stores its
// counters before it reads the ring, so whichever order the two run
// in, at least one of them hands the counters over.
func (c *Conn) noteRing(rw any) {
	ep, ok := rw.(*ShmEndpoint)
	if !ok {
		return
	}
	c.ring.Store(ep)
	if m := c.metrics.Load(); m != nil {
		ep.instrument(&m.ring)
	}
}

// Underlying returns the wrapped stream (e.g. to close it).
func (c *Conn) Underlying() io.ReadWriter { return c.rw }

// Detach returns a reader that first drains any bytes this framed
// connection has already buffered and then continues from the
// underlying stream. Use it when switching a connection from framed
// messages to a raw byte stream (e.g. after a proxy handshake). The
// buffer leaves with the reader and never returns to the pool.
func (c *Conn) Detach() io.Reader {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if rd := c.rd; rd != nil {
		c.rd = nil
		rd.view = ""
		return &rd.br
	}
	return c.r
}

// SwapRead replaces the connection's read side with r. It is the
// receive half of a transport cutover (the shm promotion): the Conn
// keeps its identity while the bytes start arriving from somewhere
// else. The caller must guarantee that no framed bytes remain on (or
// will ever again arrive from) the old stream, and must not call this
// while another goroutine is blocked in Recv — in practice the owner's
// read loop performs the swap between two of its own Recv calls, which
// satisfies both.
func (c *Conn) SwapRead(r io.Reader) {
	c.rmu.Lock()
	c.r = r
	if c.rd != nil {
		c.rd.br.Reset(r)
	}
	c.rmu.Unlock()
	c.noteRing(r)
}

// SendSwap is the transmit half of a transport cutover: it frames m,
// writes it — together with every frame an open Cork is holding, so
// whatever the cork depth — to the current writer, and installs w, all
// under the write mutex. m is thus the last framed byte the old stream
// carries and every later Send, from any goroutine, corked or not,
// lands on w. Nothing waits for the peer here; the caller's protocol
// must guarantee the peer reads w once it has seen m.
func (c *Conn) SendSwap(m *Message, w io.Writer) error {
	size := m.EncodedSize()
	if size > MaxFrameSize {
		return ErrFrameTooLarge
	}
	c.wmu.Lock()
	c.appendFrameLocked(m, size)
	err := c.flushLocked() // a failed write has killed the stream either way
	c.w = w
	c.wmu.Unlock()
	c.noteRing(w)
	return err
}

// Send frames and writes one message. Header and payload go out in a
// single Write on the underlying stream (one syscall, and on TCP one
// packet for small messages), encoded into a per-connection scratch
// buffer so a steady-state Send allocates nothing.
func (c *Conn) Send(m *Message) error {
	size := m.EncodedSize()
	if size > MaxFrameSize {
		return ErrFrameTooLarge
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.appendFrameLocked(m, size)
	if c.corked > 0 {
		return nil
	}
	return c.flushLocked()
}

// appendFrameLocked appends m's frame (size is its EncodedSize) to the
// write buffer. Callers hold wmu.
func (c *Conn) appendFrameLocked(m *Message, size int) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(size))
	c.wbuf = append(c.wbuf, hdr[:]...)
	c.wbuf = m.AppendEncode(c.wbuf)
	c.pending++
}

// Flush writes out any frames buffered by an enclosing Cork without
// changing the cork depth. Every buffered frame is complete, so an
// early flush is always safe; it only forfeits some batching.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// Cork suspends transmission: subsequent Sends accumulate frames in
// the connection's write buffer instead of writing them out. Each
// Cork must be balanced by Uncork, which flushes the accumulated
// frames in a single Write. Use it for reply bursts (event pushes,
// pipelined acknowledgements) to pay one syscall for the burst.
// Cork/Uncork pairs nest.
func (c *Conn) Cork() {
	c.wmu.Lock()
	c.corked++
	c.wmu.Unlock()
}

// Uncork ends a Cork section, writing every frame accumulated since
// the matching Cork (plus any sent under outer Cork levels) in one
// Write once the outermost section ends.
func (c *Conn) Uncork() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.corked == 0 {
		return nil
	}
	c.corked--
	if c.corked > 0 {
		return nil
	}
	return c.flushLocked()
}

// flushLocked writes the accumulated frames and resets the scratch
// buffer. Callers hold wmu.
func (c *Conn) flushLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	n := len(c.wbuf)
	msgs := c.pending
	_, err := c.w.Write(c.wbuf)
	if cap(c.wbuf) > scratchKeepCap {
		c.wbuf = c.wfirst[:0]
	} else {
		c.wbuf = c.wbuf[:0]
	}
	c.pending = 0
	if err != nil {
		return err
	}
	if m := c.metrics.Load(); m != nil {
		m.txBytes.Add(int64(n))
		m.txMsgs.Add(int64(msgs))
	}
	return nil
}

// Recv reads and decodes one message, blocking until a full frame
// arrives or the stream errors.
func (c *Conn) Recv() (*Message, error) {
	m := new(Message)
	if err := c.RecvInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// RecvInto reads one message into m, reusing m's field map and the
// connection's internal payload buffer. It is the receive half of the
// zero-allocation hot path: a caller that owns its Message (a server
// request loop dispatching synchronously) avoids the per-message
// Message and map allocations of Recv. The decoded message shares no
// memory with the connection's buffers: it is RecvView and Keep in one
// step, the frame copied before it is parsed rather than after.
func (c *Conn) RecvInto(m *Message) error { return c.recv(m, nil) }

// RecvView is RecvInto without the copy for the frames whose verb
// inPlace accepts: m's verb, keys and values are then views of the
// connection's read buffer, valid until the next receive (or
// ReleaseRead) on c, which overwrites them. A caller that reads what it
// needs from m before then pays no allocation for the message at all;
// one that has to hold m, or any string of it, longer calls Keep first.
// A frame inPlace refuses is copied and parsed once, as RecvInto does:
// a caller that knows from the verb alone that it will keep a message
// does not parse it twice.
func (c *Conn) RecvView(m *Message, inPlace func(verb string) bool) error {
	return c.recv(m, inPlace)
}

// Keep gives m — decoded by the last RecvView on c, and not received
// into since — a copy of its frame, so that it and every string taken
// from it from now on outlive the read buffer: one allocation, the one
// RecvInto would have made. Strings taken out of m before Keep are
// still views.
func (c *Conn) Keep(m *Message) {
	c.rmu.Lock()
	var frame string
	if rd := c.rd; rd != nil {
		frame, rd.view = rd.view, ""
	}
	c.rmu.Unlock()
	if frame != "" {
		decode(m, strings.Clone(frame)) // parsed once already: cannot fail
	}
}

// recv is the one frame reader: it reads the next frame into the
// payload scratch and decodes it into m, in place when inPlace accepts
// its verb and from a copy otherwise.
func (c *Conn) recv(m *Message, inPlace func(verb string) bool) error {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	rd := c.rd
	if rd == nil {
		rd = readBufs.Get().(*readBuf)
		rd.br.Reset(c.r)
		c.rd = rd
	}
	rd.view = ""
	hdr := c.rhdr[:]
	if _, err := io.ReadFull(&rd.br, hdr); err != nil {
		c.releaseReadLocked()
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	if cap(rd.payload) < n {
		rd.payload = make([]byte, n)
	}
	payload := rd.payload[:n]
	if _, err := io.ReadFull(&rd.br, payload); err != nil {
		c.releaseReadLocked()
		return err
	}
	if cm := c.metrics.Load(); cm != nil {
		cm.rxBytes.Add(int64(len(hdr)) + int64(n))
		cm.rxMsgs.Inc()
	}
	if cap(rd.payload) > scratchKeepCap {
		// The frame stays whole under whatever views it has; the
		// connection just does not keep the buffer for the next one.
		rd.payload = nil
	}
	if inPlace == nil {
		return DecodeInto(m, payload)
	}
	view := unsafe.String(unsafe.SliceData(payload), n)
	if verb, _, err := readVarStr(view); err != nil || !inPlace(verb) {
		return DecodeInto(m, payload)
	}
	if err := decode(m, view); err != nil {
		return err
	}
	rd.view = view
	return nil
}

// Close closes the underlying stream when it is an io.Closer.
func (c *Conn) Close() error {
	if cl, ok := c.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
