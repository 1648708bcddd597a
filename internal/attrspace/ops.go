package attrspace

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"tdp/internal/wire"
)

// This file is the protocol's one op table. Every request verb is a
// row: the operation it performs and the scope that says where the
// operation lands. The server dispatches through it (one resolver per
// scope, one handler per operation), the client and the shard router
// pick their verbs from it, and telemetry takes its names from it, so a
// verb exists in exactly one place. The wire spelling is the scope's
// cheapest encoding — a one-letter prefix — and the irregular spellings
// (DELETE/CDEL/GDEL, CGET meaning tryget) are rows, not code.

// ProtocolRevision is the one revision of the attribute space protocol
// this tree speaks. HELLO carries it in both directions; a peer with no
// or a different revision is refused there (ErrProtocolRevision) and
// nowhere else — everything the revision includes is simply on.
const ProtocolRevision = "2"

// ErrProtocolRevision reports a peer that does not speak
// ProtocolRevision: a server that refused our HELLO for it, or one
// whose OK carried no or another revision.
var ErrProtocolRevision = errors.New("attrspace: protocol revision mismatch")

// revisionMismatch is the stable ERROR text a server answers a HELLO of
// another (or no) revision with, before it drops the connection.
const revisionMismatch = "protocol revision mismatch: this server speaks revision " + ProtocolRevision

// opKind is an operation, independent of where it lands.
type opKind uint8

const (
	opHello opKind = iota
	opExit
	opPing
	opStats
	opShmReq
	opShmRdy
	opSub
	opPut
	opMPut
	opGet
	opTryGet
	opDelete
	opSnapshot
	opSnapDelta
	opSnapMany
	opContexts
	numOps
)

// Scope says what an operation is applied to, and with it what the
// request must satisfy before its handler runs (serverConn.resolve).
// Callers name two of them: every attribute operation of Client, Session
// and API takes Local or Global. The daemon and ctx scopes are the
// protocol's own (HELLO and STATS; the shard router's pooled ops).
type Scope uint8

const (
	// scopeDaemon: the daemon or the connection itself; no precondition,
	// which is what keeps STATS legal before HELLO.
	scopeDaemon Scope = iota
	// Local is the context this connection joined at HELLO.
	Local
	// scopeCtx: the context named by the request's ctx field, which this
	// shard must own and somebody must already hold. Never blocks: these
	// ride the shard router's pooled drain cycles.
	scopeCtx
	// Global is the connection's context in the global space, routed
	// through this LASS's GlobalCache to the owning CASS shard; a server
	// without one refuses it (ErrNoGlobal).
	Global
	numScopes
)

// opSpec is one row of the op table.
type opSpec struct {
	verb   string
	op     opKind
	scope  Scope
	handle func(*serverConn, context.Context, request)
	quiet  bool // neither counted nor timed nor traced
	// origin: the mutation may name, in an optional origin field, the
	// subscription it is made for — the id SUB's OK gave it — and the
	// server does not push the write to that subscription.
	origin bool

	// Derived once at init: the row's index (its slot in
	// telemetryHandles.verbs) and every telemetry name either end builds
	// from the verb, so no request spells or lower-cases one.
	idx                             int
	name                            string // "cput"
	span, opsName, latName          string // server: attrspace.cput, attrspace.ops.cput, …
	cliSpan, cliOpsName, cliLatName string // client: client.cput, client.ops.cput, …
}

// opTable is the verb set. A verb added here without a handler, or
// with one that cannot serve its scope, fails TestOpTableConformance.
var opTable = []opSpec{
	{verb: "HELLO", op: opHello, scope: scopeDaemon, handle: (*serverConn).opHello},
	{verb: "EXIT", op: opExit, scope: scopeDaemon, handle: (*serverConn).opExit, quiet: true},
	{verb: "PING", op: opPing, scope: scopeDaemon, handle: (*serverConn).opPing},
	{verb: "STATS", op: opStats, scope: scopeDaemon, handle: (*serverConn).opStats},
	{verb: "SHMREQ", op: opShmReq, scope: scopeDaemon, handle: (*serverConn).opShmReq, quiet: true},
	{verb: "SHMRDY", op: opShmRdy, scope: scopeDaemon, handle: (*serverConn).opShmRdy, quiet: true},
	{verb: "CCTXS", op: opContexts, scope: scopeDaemon, handle: (*serverConn).opContexts},

	{verb: "SUB", op: opSub, scope: Local, handle: (*serverConn).opSub},
	{verb: "PUT", op: opPut, scope: Local, handle: (*serverConn).opPut},
	{verb: "MPUT", op: opMPut, scope: Local, handle: (*serverConn).opMPut},
	{verb: "GET", op: opGet, scope: Local, handle: (*serverConn).opGet},
	{verb: "TRYGET", op: opTryGet, scope: Local, handle: (*serverConn).opTryGet},
	{verb: "DELETE", op: opDelete, scope: Local, handle: (*serverConn).opDelete},
	{verb: "SNAP", op: opSnapshot, scope: Local, handle: (*serverConn).opSnapshot},
	{verb: "SNAPD", op: opSnapDelta, scope: Local, handle: (*serverConn).opSnapDelta},

	{verb: "CPUT", op: opPut, scope: scopeCtx, handle: (*serverConn).opPut, origin: true},
	{verb: "CMPUT", op: opMPut, scope: scopeCtx, handle: (*serverConn).opMPut, origin: true},
	{verb: "CGET", op: opTryGet, scope: scopeCtx, handle: (*serverConn).opTryGet},
	{verb: "CDEL", op: opDelete, scope: scopeCtx, handle: (*serverConn).opDelete, origin: true},
	{verb: "CSNAP", op: opSnapshot, scope: scopeCtx, handle: (*serverConn).opSnapshot},

	{verb: "GPUT", op: opPut, scope: Global, handle: (*serverConn).opPut},
	{verb: "GMPUT", op: opMPut, scope: Global, handle: (*serverConn).opMPut},
	{verb: "GGET", op: opGet, scope: Global, handle: (*serverConn).opGet},
	{verb: "GTRYGET", op: opTryGet, scope: Global, handle: (*serverConn).opTryGet},
	{verb: "GDEL", op: opDelete, scope: Global, handle: (*serverConn).opDelete},
	{verb: "GSNAP", op: opSnapshot, scope: Global, handle: (*serverConn).opSnapshot},
	{verb: "GSNAPM", op: opSnapMany, scope: Global, handle: (*serverConn).opSnapMany},
	{verb: "GCTXS", op: opContexts, scope: Global, handle: (*serverConn).opContexts},
}

var (
	opByVerb = make(map[string]*opSpec, len(opTable))
	opByKind [numOps][numScopes]*opSpec
)

func init() {
	for i := range opTable {
		s := &opTable[i]
		s.idx = i
		s.name = strings.ToLower(s.verb)
		s.span, s.opsName, s.latName = "attrspace."+s.name, "attrspace.ops."+s.name, "attrspace.latency."+s.name
		s.cliSpan, s.cliOpsName, s.cliLatName = "client."+s.name, "client.ops."+s.name, "client.latency."+s.name
		opByVerb[s.verb] = s
		opByKind[s.op][s.scope] = s
	}
}

// opFor returns the row that spells op at scope; the verb sets of the
// client and the shard router are calls of this.
func opFor(op opKind, scope Scope) *opSpec { return opByKind[op][scope] }

// req starts a request for this row.
func (s *opSpec) req() *wire.Message { return wire.NewMessage(s.verb) }

// Requests and replies, one build and one parse per operation. Client
// (connection and global scopes) and shardConn (ctx scope) share them.
// A build fills the started request it is given: the client's, made by
// req on its stack, or the one a shardOp owns and reuses.

// attrReq is the request of get, tryget and delete.
func attrReq(m *wire.Message, attribute string) *wire.Message {
	return m.Set("attr", attribute)
}

func putReq(m *wire.Message, attribute, value string) *wire.Message {
	return m.Set("attr", attribute).Set("value", value)
}

// setNames appends a counted name list, n and k0..k(n-1): what a
// contexts reply and a snapshot-many request carry.
func setNames(m *wire.Message, names []string) *wire.Message {
	m.SetInt("n", len(names))
	for i, name := range names {
		m.Set(wire.IndexedKey('k', i), name)
	}
	return m
}

// readNames decodes a counted name list; a hostile n cannot cost more
// than the fields actually present.
func readNames(m *wire.Message) ([]string, error) {
	n := m.Int("n", -1)
	if n < 0 || n > len(m.Fields) {
		return nil, fmt.Errorf("bad n %q", m.Get("n"))
	}
	names := make([]string, n)
	for i := range names {
		names[i], _ = indexed(m, 'k', i)
	}
	return names, nil
}

// indexed returns field <prefix><i> of m (k0, v17, …) without building
// the key as a string.
func indexed(m *wire.Message, prefix byte, i int) (string, bool) {
	var buf [20]byte
	v, ok := m.Fields[string(strconv.AppendInt(append(buf[:0], prefix), int64(i), 10))]
	return v, ok
}

func batchReq(m *wire.Message, pairs []KV) *wire.Message {
	m.SetInt("n", len(pairs))
	for i, p := range pairs {
		m.Set(wire.IndexedKey('k', i), p.Key).Set(wire.IndexedKey('v', i), p.Value)
	}
	return m
}

// okReply is the call's error, or the ERROR the server answered with.
// The reply parsers take a call's two results, so an operation is one
// line: parse(call(build)).
func okReply(reply *wire.Message, err error) error {
	if err == nil {
		err = replyErr(reply)
	}
	return err
}

// seqReply parses a mutation's ack: the per-context seq the server
// assigned the write.
func seqReply(reply *wire.Message, err error) (uint64, error) {
	if err = okReply(reply, err); err != nil {
		return 0, err
	}
	return replySeq(reply), nil
}

// valueReply parses the answer to a get or tryget: the value and the
// seq of the write that produced it, or ErrNotFound.
func valueReply(reply *wire.Message, err error) (string, uint64, error) {
	if err == nil && reply.Verb == "NOTFOUND" {
		err = ErrNotFound
	}
	if err = okReply(reply, err); err != nil {
		return "", 0, err
	}
	return reply.Get("value"), replySeq(reply), nil
}

func replySeq(reply *wire.Message) uint64 { return uintField(reply, "seq", 10) }

// uintField is the field key of m as a number in base, 0 when it is
// absent or not a number. Absence is asked first: ParseUint("") would
// build an error value on every event and ack that carries no such
// field. Seqs and counts are decimal; ids (attr.Space's incarnations and
// subscription ids) are base 36 on the wire and numbers everywhere else.
func uintField(m *wire.Message, key string, base int) uint64 {
	s, ok := m.Fields[key]
	if !ok {
		return 0
	}
	n, _ := strconv.ParseUint(s, base, 64)
	return n
}

// namesReply parses a contexts listing.
func namesReply(reply *wire.Message, err error) ([]string, error) {
	if err = okReply(reply, err); err != nil {
		return nil, err
	}
	return readNames(reply)
}

// entry is one k<i>/v<i>[/s<i>][/o<i>] group of a snapshot or delta.
type entry struct {
	k, v string
	seq  uint64
	del  bool
}

// entries walks every entry of a snapshot-family reply in order,
// across the buffered parts of a chunked one (reply is the final part).
func (c *Client) entries(reply *wire.Message, err error, fn func(entry)) error {
	if err = okReply(reply, err); err != nil {
		return err
	}
	for _, part := range append(c.takeChunks(reply.Get("id")), reply) {
		n := part.Int("n", 0)
		for i := 0; i < n; i++ {
			k, ok := indexed(part, 'k', i)
			if !ok {
				return fmt.Errorf("attrspace: malformed %s reply", reply.Verb)
			}
			v, _ := indexed(part, 'v', i)
			s, _ := indexed(part, 's', i)
			o, _ := indexed(part, 'o', i)
			seq, _ := strconv.ParseUint(s, 10, 64)
			fn(entry{k: k, v: v, seq: seq, del: o == "d"})
		}
	}
	return nil
}

// entryCount is the total a (possibly chunked) reply announces.
func entryCount(reply *wire.Message) int { return reply.Int("total", reply.Int("n", 0)) }
