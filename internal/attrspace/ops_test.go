package attrspace

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// opNames and scopeNames are how DESIGN's op × scope table spells the
// two enums.
var opNames = [numOps]string{
	opHello: "hello", opExit: "exit", opPing: "ping", opStats: "stats",
	opShmReq: "shm-request", opShmRdy: "shm-ready", opSub: "subscribe",
	opPut: "put", opMPut: "mput", opGet: "get", opTryGet: "tryget",
	opDelete: "delete", opSnapshot: "snapshot",
	opSnapMany: "snapshot-many", opContexts: "contexts",
}

var scopeNames = [numScopes]string{
	scopeDaemon: "daemon", Local: "connection", scopeCtx: "ctx", Global: "global",
}

// countedNames are the telemetry names of the request verbs — one
// attrspace.ops.<name> counter and attrspace.latency.<name> histogram
// each, and the span attrspace.<name>. The bench ladders, tdptop and the
// scenario reports read them, so the table may not respell one.
var countedNames = []string{"hello", "put", "mput", "get", "tryget", "delete", "snap", "sub",
	"stats", "ping", "gput", "gmput", "gget", "gtryget", "gdel", "gsnap", "gsnapm", "gctxs",
	"cput", "cmput", "cget", "cdel", "csnap", "cctxs"}

// opHarness is everything a row of the op table can be driven through:
// a caching LASS in front of two CASS shards, with one connection per
// scope. The conn scope works on the LASS's own space, the ctx and
// global scopes on the same context of shard 0 — directly and through
// the LASS.
type opHarness struct {
	t            *testing.T
	lass, shard0 *telemetry.Registry
	conn         *Client // LASS, joined to ctx: connection, global and daemon scopes
	pool         *Client // shard 0, joined to an infra context: ctx scope
	bare         *Client // LASS, never said HELLO
	plain        *Client // a server without a global cache, joined
	lassAddr     string
	ctx, foreign string            // contexts owned by shard 0 and by shard 1
	unheld       string            // owned by shard 0, held by nobody
	last         map[string]uint64 // newest acked seq per space
	serial       int
}

func newOpHarness(t *testing.T) *opHarness {
	lass, shards, shardAddrs, lassAddr := startShardedPool(t, 2)
	names := shardedContexts(t, 2)
	h := &opHarness{t: t, lass: lass.Telemetry(), shard0: shards[0].Telemetry(), lassAddr: lassAddr,
		ctx: names[0], foreign: names[1], last: map[string]uint64{}}
	for i := 0; h.unheld == ""; i++ {
		if name := fmt.Sprintf("unheld-%d", i); ShardIndex(name, 2) == 0 {
			h.unheld = name
		}
	}
	h.conn = dialT(t, lassAddr, h.ctx)
	h.pool = dialT(t, shardAddrs[0], routerContext)
	dialT(t, shardAddrs[0], h.ctx) // somebody holds the context on its shard
	h.bare = h.undialed(lassAddr)
	_, plainAddr := startServer(t)
	h.plain = dialT(t, plainAddr, h.ctx)
	return h
}

// undialed opens a connection that has not said HELLO.
func (h *opHarness) undialed(addr string) *Client {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		h.t.Fatalf("dial: %v", err)
	}
	c := newClient(raw)
	h.t.Cleanup(func() { c.Close() })
	return c
}

// via is the connection a row's requests travel on, the registry of
// the daemon that serves them, and the seq space its writes land in.
func (h *opHarness) via(spec *opSpec) (c *Client, reg *telemetry.Registry, space string) {
	switch {
	case spec.scope == scopeCtx, spec.op == opContexts && spec.scope == scopeDaemon:
		return h.pool, h.shard0, "cass"
	case spec.scope == Global:
		return h.conn, h.lass, "cass"
	}
	return h.conn, h.lass, "lass"
}

// send drives one request of a row through its scope.
func (h *opHarness) send(spec *opSpec, m *wire.Message) *wire.Message {
	h.t.Helper()
	c, _, _ := h.via(spec)
	if spec.scope == scopeCtx {
		m.Set("ctx", h.ctx)
	}
	return rawCall(h.t, c, m)
}

func (h *opHarness) key() string {
	h.serial++
	return fmt.Sprintf("k%d", h.serial)
}

// mutate sends a write and holds it to the mutation contract: OK, with
// a seq strictly above every seq its context has acknowledged before.
func (h *opHarness) mutate(spec *opSpec, m *wire.Message) uint64 {
	h.t.Helper()
	reply := h.send(spec, m)
	_, _, space := h.via(spec)
	seq := replySeq(reply)
	if reply.Verb != "OK" || seq <= h.last[space] {
		h.t.Fatalf("%s: reply %v; want OK with seq > %d", spec.verb, reply, h.last[space])
	}
	h.last[space] = seq
	return seq
}

// seed puts key=value through the put row of spec's scope.
func (h *opHarness) seed(spec *opSpec, key, value string) uint64 {
	h.t.Helper()
	put := opFor(opPut, spec.scope)
	return h.mutate(put, putReq(put.req(), key, value))
}

func (h *opHarness) wantError(spec *opSpec, reply *wire.Message, text string) {
	h.t.Helper()
	if reply.Verb != "ERROR" || !strings.Contains(reply.Get("error"), text) {
		h.t.Errorf("%s: reply %v; want ERROR containing %q", spec.verb, reply, text)
	}
}

// wantValue holds a read's reply to the read contract.
func (h *opHarness) wantValue(spec *opSpec, reply *wire.Message, key, value string, seq uint64) {
	h.t.Helper()
	if reply.Verb != "VALUE" || reply.Get("attr") != key || reply.Get("value") != value || replySeq(reply) != seq {
		h.t.Errorf("%s: reply %v; want VALUE %s=%s seq %d", spec.verb, reply, key, value, seq)
	}
}

// preconditions drives a row against everything its scope refuses.
func (h *opHarness) preconditions(spec *opSpec) {
	probe := func() *wire.Message { return putReq(spec.req(), "a", "v").SetInt("n", 0) }
	switch spec.scope {
	case Local, Global:
		h.wantError(spec, rawCall(h.t, h.bare, probe()), "HELLO required")
		if spec.scope == Global {
			reply := rawCall(h.t, h.plain, probe())
			h.wantError(spec, reply, noGlobalText)
			if err := replyErr(reply); !errors.Is(err, ErrNoGlobal) {
				h.t.Errorf("%s on a server without a cache: client error %v, want ErrNoGlobal", spec.verb, err)
			}
		}
	case scopeCtx:
		h.wantError(spec, rawCall(h.t, h.pool, probe()), "ctxop: missing ctx")
		h.wantError(spec, rawCall(h.t, h.pool, probe().Set("ctx", h.foreign)), "wrong shard")
		h.wantError(spec, rawCall(h.t, h.pool, probe().Set("ctx", h.unheld)), "no such context")
	}
}

// opContracts is the observable contract of each operation, whatever
// scope it is driven through.
var opContracts = [numOps]func(h *opHarness, spec *opSpec){
	opPut: func(h *opHarness, spec *opSpec) {
		key := h.key()
		h.mutate(spec, putReq(spec.req(), key, "1"))
		seq := h.mutate(spec, putReq(spec.req(), key, "2"))
		read := opFor(opTryGet, spec.scope)
		h.wantValue(read, h.send(read, attrReq(read.req(), key)), key, "2", seq)
	},
	opMPut: func(h *opHarness, spec *opSpec) {
		_, _, space := h.via(spec)
		before := h.last[space]
		pairs := []KV{{Key: h.key(), Value: "a"}, {Key: h.key(), Value: "b"}, {Key: h.key(), Value: "c"}}
		if seq := h.mutate(spec, batchReq(spec.req(), pairs)); seq-before != uint64(len(pairs)) {
			h.t.Errorf("%s of %d pairs moved seq %d → %d", spec.verb, len(pairs), before, seq)
		}
		read := opFor(opTryGet, spec.scope)
		h.wantValue(read, h.send(read, attrReq(read.req(), pairs[1].Key)), pairs[1].Key, "b", before+2)
		// n bounds the decoding: never more pairs than fields present.
		for _, n := range []string{"9999999", "-1", "zzz", "2"} {
			h.wantError(spec, h.send(spec, spec.req().Set("n", n).Set("k0", "x").Set("v0", "y")), "mput:")
		}
	},
	opTryGet: func(h *opHarness, spec *opSpec) {
		key := h.key()
		if reply := h.send(spec, attrReq(spec.req(), key)); reply.Verb != "NOTFOUND" || reply.Get("attr") != key {
			h.t.Errorf("%s of an absent attribute: %v; want NOTFOUND", spec.verb, reply)
		}
		seq := h.seed(spec, key, "v")
		h.wantValue(spec, h.send(spec, attrReq(spec.req(), key)), key, "v", seq)
	},
	opGet: func(h *opHarness, spec *opSpec) {
		key := h.key()
		seq := h.seed(spec, key, "v")
		h.wantValue(spec, h.send(spec, attrReq(spec.req(), key)), key, "v", seq)
		// Absent: the request waits, other requests on the connection do
		// not, and the put that creates the attribute answers it.
		key = h.key()
		c, _, _ := h.via(spec)
		waiting, err := c.send(attrReq(spec.req(), key), asMessage)
		if err != nil {
			h.t.Fatalf("%s: %v", spec.verb, err)
		}
		seq = h.seed(spec, key, "late")
		select {
		case reply := <-waiting.ch:
			h.wantValue(spec, reply, key, "late", seq)
		case <-time.After(10 * time.Second):
			h.t.Errorf("%s of an absent attribute was not woken by its put", spec.verb)
		}
	},
	opDelete: func(h *opHarness, spec *opSpec) {
		key := h.key()
		h.seed(spec, key, "v")
		h.mutate(spec, attrReq(spec.req(), key))
		read := opFor(opTryGet, spec.scope)
		if reply := h.send(read, attrReq(read.req(), key)); reply.Verb != "NOTFOUND" {
			h.t.Errorf("%s after %s: %v; want NOTFOUND", read.verb, spec.verb, reply)
		}
	},
	opSnapshot: func(h *opHarness, spec *opSpec) {
		key := h.key()
		h.seed(spec, key, "snapped")
		reply := h.send(spec, spec.req())
		c, _, _ := h.via(spec)
		got := map[string]string{}
		if err := c.entries(reply, nil, func(e entry) { got[e.k] = e.v }); err != nil || reply.Verb != "SNAPV" {
			h.t.Fatalf("%s: reply %v, %v; want SNAPV", spec.verb, reply, err)
		}
		if got[key] != "snapped" || len(got) != reply.Int("n", -1) {
			h.t.Errorf("%s: %d entries (n=%s), %s=%q", spec.verb, len(got), reply.Get("n"), key, got[key])
		}
	},
	opSnapMany: func(h *opHarness, spec *opSpec) {
		key := h.key()
		h.seed(spec, key, "many")
		reply := h.send(spec, setNames(spec.req(), []string{h.ctx}))
		if reply.Verb != "SNAPV" || reply.Int("n", -1) != 1 || reply.Get("k0") != h.ctx || !strings.Contains(reply.Get("v0"), key) {
			h.t.Errorf("%s: %v; want SNAPV of context %s holding %s", spec.verb, reply, h.ctx, key)
		}
		for _, n := range []string{"9999999", "-1"} {
			h.wantError(spec, h.send(spec, spec.req().Set("n", n)), "bad n")
		}
	},
	opContexts: func(h *opHarness, spec *opSpec) {
		reply := h.send(spec, spec.req())
		names, err := namesReply(reply, nil)
		sort.Strings(names)
		if i := sort.SearchStrings(names, h.ctx); reply.Verb != "OK" || err != nil || i == len(names) || names[i] != h.ctx {
			h.t.Errorf("%s: %v, %v; want OK listing %s", spec.verb, reply, err, h.ctx)
		}
	},
	opSub: func(h *opHarness, spec *opSpec) {
		c := dialT(h.t, h.lassAddr, h.ctx)
		if reply := rawCall(h.t, c, spec.req()); reply.Verb != "OK" {
			h.t.Fatalf("%s: %v", spec.verb, reply)
		}
		h.wantError(spec, rawCall(h.t, c, spec.req()), "already subscribed")
		key := h.key()
		seq := h.seed(spec, key, "pushed")
		select {
		case ev := <-c.Events():
			if ev.Attr != key || ev.Value != "pushed" || ev.Op != "put" || ev.Seq != seq {
				h.t.Errorf("event after %s: %+v; want put %s=pushed seq %d", spec.verb, ev, key, seq)
			}
		case <-time.After(10 * time.Second):
			h.t.Errorf("no event after %s", spec.verb)
		}
	},
	opHello: func(h *opHarness, spec *opSpec) {
		c := h.undialed(h.lassAddr)
		hello := func() *wire.Message { return spec.req().Set("context", h.ctx).Set("rev", ProtocolRevision) }
		if reply := rawCall(h.t, c, hello()); reply.Verb != "OK" || reply.Get("rev") != ProtocolRevision || reply.Get("shm") != "" {
			h.t.Errorf("%s over TCP: %v; want OK rev=%s and no shm", spec.verb, reply, ProtocolRevision)
		}
		h.wantError(spec, rawCall(h.t, c, hello()), "already joined")
	},
	opExit: func(h *opHarness, spec *opSpec) {
		c := h.undialed(h.lassAddr)
		closed := make(chan error, 1)
		c.onClose(func(err error) { closed <- err })
		if err := c.wc.Send(spec.req()); err != nil {
			h.t.Fatalf("%s: %v", spec.verb, err)
		}
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			h.t.Errorf("server kept the connection after %s", spec.verb)
		}
	},
	opPing: func(h *opHarness, spec *opSpec) {
		if reply := rawCall(h.t, h.bare, spec.req()); reply.Verb != "PONG" {
			h.t.Errorf("%s: %v; want PONG", spec.verb, reply)
		}
	},
	opStats: func(h *opHarness, spec *opSpec) {
		// Legal before HELLO: it reports on the daemon.
		reply := rawCall(h.t, h.bare, spec.req())
		snap, err := telemetry.ParseSnapshot([]byte(reply.Get("json")))
		if reply.Verb != "STATSV" || err != nil || snap.Counters["attrspace.ops.stats"] == 0 {
			h.t.Errorf("%s: %v, %v; want STATSV counting itself", spec.verb, reply.Verb, err)
		}
	},
	opShmReq: func(h *opHarness, spec *opSpec) {
		// HELLO over TCP offered no ring, so there is none to ask for.
		h.wantError(spec, h.send(spec, spec.req()), "unknown verb")
	},
	opShmRdy: func(h *opHarness, spec *opSpec) {
		h.wantError(spec, h.send(spec, spec.req()), "unknown verb")
	},
}

// TestOpTableConformance walks the op table itself: every row is driven
// through its scope against one harness and held to the contract of its
// operation, to its scope's preconditions, and to its telemetry names,
// so a verb added to the table without a handler, a metric name or a
// contract fails here.
func TestOpTableConformance(t *testing.T) {
	h := newOpHarness(t)
	var counted []string
	for i := range opTable {
		spec := &opTable[i]
		t.Run(spec.verb, func(t *testing.T) {
			h.t = t
			if spec.handle == nil || opContracts[spec.op] == nil {
				t.Fatalf("row %s (%s at %s scope) has no handler or no contract", spec.verb, opNames[spec.op], scopeNames[spec.scope])
			}
			if opFor(spec.op, spec.scope) != spec || opByVerb[spec.verb] != spec {
				t.Fatalf("row %s is not the only spelling of %s at %s scope", spec.verb, opNames[spec.op], scopeNames[spec.scope])
			}
			// A ctx-scope op rides the pooled connection, and joins its context
			// through its connection's one reference, which the next
			// request takes over: it may never block.
			if spec.scope == scopeCtx && spec.op == opGet {
				t.Fatalf("row %s puts a blocking %s at ctx scope", spec.verb, opNames[spec.op])
			}
			name := strings.ToLower(spec.verb)
			_, reg, _ := h.via(spec)
			ops, lat := reg.Counter("attrspace.ops."+name), reg.Histogram("attrspace.latency."+name, nil)
			before, timed := ops.Value(), lat.Count()
			h.preconditions(spec)
			refused := ops.Value() - before
			opContracts[spec.op](h, spec)
			if spec.quiet {
				if ops.Value() != 0 {
					t.Errorf("quiet verb %s was counted", spec.verb)
				}
				return
			}
			counted = append(counted, name)
			if spec.span != "attrspace."+name {
				t.Errorf("span name %q", spec.span)
			}
			if spec.scope == scopeCtx && refused != 3 {
				t.Errorf("attrspace.ops.%s counted %d of 3 refused requests", name, refused)
			}
			if ops.Value() == before+refused {
				t.Errorf("attrspace.ops.%s stayed at %d through its contract", name, ops.Value())
			}
			// The sample lands just after the reply leaves.
			waitFor(t, func() bool { return lat.Count()-timed == ops.Value()-before })
		})
	}
	h.t = t
	sort.Strings(counted)
	want := append([]string(nil), countedNames...)
	sort.Strings(want)
	if fmt.Sprint(counted) != fmt.Sprint(want) {
		t.Errorf("counted verbs\n got %v\nwant %v", counted, want)
	}
	if reply := rawCall(t, h.conn, wire.NewMessage("BOGUS")); reply.Verb != "ERROR" || !strings.Contains(reply.Get("error"), `unknown verb "BOGUS"`) {
		t.Errorf("a verb outside the table: %v", reply)
	}
}

// TestDesignOpTable keeps DESIGN.md's op × scope table the Go table:
// the rows between the two markers must be exactly what opTable renders
// to.
func TestDesignOpTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- op-table:begin -->\n", "<!-- op-table:end -->"
	_, rest, ok := strings.Cut(string(doc), begin)
	have, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md has no %s … %s block", strings.TrimSpace(begin), end)
	}
	var b strings.Builder
	b.WriteString("| verb | operation | scope | counted as | may carry |\n|---|---|---|---|---|\n")
	for i := range opTable {
		s := &opTable[i]
		counted, carries := "`attrspace.ops."+s.name+"`", "—"
		if s.quiet {
			counted = "—"
		}
		if s.origin {
			carries = "`origin`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", s.verb, opNames[s.op], scopeNames[s.scope], counted, carries)
	}
	if have != b.String() {
		t.Errorf("DESIGN.md's op table has drifted from ops.go; it should read:\n%s", b.String())
	}
}
