package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"tdp"
	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// The local ladder replays the local_ops stream against, bottom up:
// attr.Ref, the wire codec, a wire.Conn echo over tcp / unix / shm,
// attrspace.Client against a Server, and tdp.Handle.

const localChunk = 512

// opKindNames name the spans of each op kind on a rung.
var opKindNames = [...]string{opPut: "put", opTryGetHit: "tryget", opPutBatch: "putbatch", opGetPresent: "get", opTryGetMiss: "tryget_miss"}

// rungSeries is one rung's span series: one per op kind for the
// per-kind medians, and one of every op in replay order for differencing.
type rungSeries struct {
	kind [len(opKindNames)]*series
	all  *series
}

func (l *ladderRun) rungSeries(rung string) rungSeries {
	rs := rungSeries{all: l.rec.get(rung + ".op")}
	for k, name := range opKindNames {
		rs.kind[k] = l.rec.get(rung + "." + name)
	}
	return rs
}

func (rs rungSeries) add(kind int, op int64, start time.Time, d time.Duration) {
	id := rs.all.add(op, -1, start, d)
	rs.kind[kind].add(op, id, start, d)
}

// echoPair is a wire.Conn pair over one transport with a goroutine on
// the far side that answers every request with the reply the caller
// staged for it.
type echoPair struct {
	client *wire.Conn
	reply  atomic.Pointer[wire.Message]
	done   chan struct{}
	closer []func() error
}

func newEchoPair(client, server *wire.Conn, closers ...func() error) *echoPair {
	p := &echoPair{client: client, done: make(chan struct{}), closer: closers}
	go func() {
		defer close(p.done)
		var req wire.Message
		for {
			if err := server.RecvInto(&req); err != nil {
				return
			}
			if err := server.Send(p.reply.Load()); err != nil {
				return
			}
		}
	}()
	return p
}

func (p *echoPair) roundTrip(req, reply *wire.Message, scratch *wire.Message) error {
	p.reply.Store(reply)
	if err := p.client.Send(req); err != nil {
		return err
	}
	return p.client.RecvInto(scratch)
}

func (p *echoPair) close() {
	for _, c := range p.closer {
		c()
	}
	<-p.done
}

// socketPair connects a client and a server net.Conn over network
// ("tcp" or "unix").
func socketPair(network, addr string) (client, server net.Conn, err error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept() // nil on error; the dial below fails too
		accepted <- c
	}()
	client, err = net.Dial(network, ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	server = <-accepted
	if server == nil {
		client.Close()
		return nil, nil, fmt.Errorf("accept on %s failed", network)
	}
	return client, server, nil
}

func newSocketEcho(network string) (*echoPair, error) {
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(os.TempDir(), "echo-unix.sock")
	}
	c, s, err := socketPair(network, addr)
	if err != nil {
		return nil, err
	}
	return newEchoPair(wire.NewConn(c), wire.NewConn(s), c.Close, s.Close), nil
}

// newShmEcho maps one ring segment from both ends the way a real
// connection does — the server creates the file, the client opens it,
// the file is unlinked — with a unix socket pair as the doorbell.
func newShmEcho() (*echoPair, error) {
	c, s, err := socketPair("unix", filepath.Join(os.TempDir(), "echo-shm.sock"))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(os.TempDir(), "echo-shm.seg")
	seg, err := wire.CreateShmSegment(path, 0)
	if err != nil {
		return nil, err
	}
	peer, err := wire.OpenShmSegment(path)
	os.Remove(path) // the mappings alone keep the pages alive
	if err != nil {
		return nil, err
	}
	se, ce := seg.Endpoint(true, s), peer.Endpoint(false, c)
	se.Activate()
	ce.Activate()
	return newEchoPair(wire.NewConn(ce), wire.NewConn(se), ce.Close, se.Close), nil
}

// opMessages builds the request and reply an op puts on the wire, in
// the shapes attrspace.Client and Server use.
func opMessages(g *localGen, op *localOp, id int64) (req, reply *wire.Message) {
	sid := strconv.FormatInt(id, 10)
	seq := strconv.FormatInt(id+1, 10)
	switch op.kind {
	case opPut:
		req = wire.NewMessage("PUT").Set("attr", g.keys[op.key]).Set("value", g.values[op.val])
		reply = wire.NewMessage("OK").Set("seq", seq)
	case opPutBatch:
		req = wire.NewMessage("MPUT").SetInt("n", localBatch)
		for i, b := range op.batch {
			idx := strconv.Itoa(i)
			req.Set("k"+idx, g.keys[b.key]).Set("v"+idx, g.values[b.val])
		}
		reply = wire.NewMessage("OK").Set("seq", seq)
	case opTryGetHit, opGetPresent:
		verb := "TRYGET"
		if op.kind == opGetPresent {
			verb = "GET"
		}
		req = wire.NewMessage(verb).Set("attr", g.keys[op.key])
		// Any value of the pool stands in for the stored one: the codec
		// and the transport see only its size class.
		reply = wire.NewMessage("VALUE").Set("attr", g.keys[op.key]).Set("value", g.values[op.val]).Set("seq", seq)
	case opTryGetMiss:
		req = wire.NewMessage("TRYGET").Set("attr", g.missed[op.key])
		reply = wire.NewMessage("NOTFOUND").Set("attr", g.missed[op.key])
	}
	req.Set("id", sid)
	reply.Set("id", sid)
	return req, reply
}

func (l *ladderRun) localLadder(seed uint64, seconds float64) error {
	gen := newLocalGen(seed)
	bg := context.Background()

	// attr rung: one participant, one draining subscriber with the
	// servers' default ring, as a LASS with one watcher would have.
	ref := attr.NewSpace().Join("ladder")
	sub, err := ref.Subscribe(attrspace.DefaultEventBuffer)
	if err != nil {
		return err
	}
	var pushed atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.Updates() {
			pushed.Add(1)
		}
	}()
	defer func() { ref.Unsubscribe(sub); <-drained }()

	// wire.conn rungs.
	echoes := map[string]*echoPair{}
	for _, network := range []string{"tcp", "unix"} {
		p, err := newSocketEcho(network)
		if err != nil {
			return err
		}
		defer p.close()
		echoes[network] = p
	}
	shm, err := newShmEcho()
	if err != nil {
		return err
	}
	defer shm.close()
	echoes["shm"] = shm

	// attrspace rung.
	asDaemon, err := startDaemon("lassd-attrspace", nil)
	if err != nil {
		return err
	}
	defer asDaemon.srv.Close()
	client, err := attrspace.Dial(nil, asDaemon.addr, "ladder")
	if err != nil {
		return err
	}
	defer client.Close()
	client.SetTelemetry(telemetry.NewRegistry(), nil)

	// tdp rung.
	tdpDaemon, err := startDaemon("lassd-tdp", nil)
	if err != nil {
		return err
	}
	defer tdpDaemon.srv.Close()
	handleReg := telemetry.NewRegistry()
	h, err := tdp.Init(tdp.Config{Context: "ladder", LASSAddr: tdpDaemon.addr, Identity: "bench", Telemetry: handleReg})
	if err != nil {
		return err
	}
	defer h.Exit()

	// Preload the three stores alike, as the workload does.
	kvs := make([]attr.KV, localAttrs)
	for i, k := range gen.keys {
		kvs[i] = attr.KV{Key: k, Value: gen.values[0]}
	}
	if _, err := ref.PutBatchSeq(kvs); err != nil {
		return err
	}
	if _, err := client.PutBatchV(bg, kvs); err != nil {
		return err
	}
	if err := h.PutBatch(kvs); err != nil {
		return err
	}
	last := make([]int, localAttrs) // the model; identical for every store

	attrS, asS, tdpS := l.rungSeries("attr"), l.rungSeries("attrspace"), l.rungSeries("tdp")
	connS := map[string]*series{}
	for name := range echoes {
		connS[name] = l.rec.get("wire.conn." + name + ".rtt")
	}
	encS, decS := l.rec.get("wire.codec.encode"), l.rec.get("wire.codec.decode")
	var attrM, codecM, connM, shmM, asM, tdpM rungMeter
	var codecBytes int64

	puts0, gets0, trygets0, _ := asDaemon.srv.Stats()
	mput0 := asDaemon.reg.Counter("attrspace.ops.mput").Value()
	tdpBefore := []telemetry.Snapshot{handleReg.Snapshot(), tdpDaemon.reg.Snapshot()}

	ops := make([]localOp, localChunk)
	reqs := make([]*wire.Message, localChunk)
	replies := make([]*wire.Message, localChunk)
	pairs := make([]attr.KV, localBatch)
	var scratch wire.Message
	var buf []byte
	batch := func(op *localOp) []attr.KV {
		for i, b := range op.batch {
			pairs[i] = attr.KV{Key: gen.keys[b.key], Value: gen.values[b.val]}
		}
		return pairs
	}
	var base int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for i := range ops {
			gen.next(&ops[i])
			reqs[i], replies[i] = opMessages(gen, &ops[i], base+int64(i))
		}
		// Each rung replays the chunk against a model rewound to the
		// chunk's start, so all rungs check against the same history.
		snapshot := append([]int(nil), last...)
		replay := func(rs rungSeries, m *rungMeter, rung string, do func(op *localOp) (string, error)) {
			copy(last, snapshot)
			m.begin()
			for i := range ops {
				op := &ops[i]
				t0 := time.Now()
				v, err := do(op)
				rs.add(op.kind, base+int64(i), t0, time.Since(t0))
				switch op.kind {
				case opPut:
					last[op.key] = op.val
				case opPutBatch:
					for _, b := range op.batch {
						last[b.key] = b.val
					}
				case opTryGetHit, opGetPresent:
					if err == nil && v != gen.values[last[op.key]] {
						err = fmt.Errorf("got %.20q, want value %d", v, last[op.key])
					}
				case opTryGetMiss:
					if errors.Is(err, attr.ErrNotFound) {
						err = nil
					} else if err == nil {
						err = fmt.Errorf("got %.20q, want ErrNotFound", v)
					}
				}
				if err != nil {
					l.fails.add("%s rung, op %d (%s): %v", rung, base+int64(i), opKindNames[op.kind], err)
				}
			}
			m.end(len(ops))
			l.ops += len(ops)
		}

		replay(attrS, &attrM, "attr", func(op *localOp) (v string, err error) {
			switch op.kind {
			case opPut:
				_, err = ref.PutSeq(gen.keys[op.key], gen.values[op.val])
			case opPutBatch:
				_, err = ref.PutBatchSeq(batch(op))
			case opTryGetHit:
				v, _, err = ref.TryGetSeq(gen.keys[op.key])
			case opGetPresent:
				v, _, err = ref.GetSeq(bg, gen.keys[op.key])
			case opTryGetMiss:
				v, _, err = ref.TryGetSeq(gen.missed[op.key])
			}
			return v, err
		})

		// Codec rung: encode then decode the request and the reply.
		codecM.begin()
		for i := range ops {
			for _, m := range [2]*wire.Message{reqs[i], replies[i]} {
				t0 := time.Now()
				buf = m.AppendEncode(buf[:0])
				encS.add(base+int64(i), -1, t0, time.Since(t0))
				codecBytes += int64(len(buf)) + 4 // the frame header Conn adds
				t0 = time.Now()
				err := wire.DecodeInto(&scratch, buf)
				decS.add(base+int64(i), -1, t0, time.Since(t0))
				if err != nil || scratch.Verb != m.Verb {
					l.fails.add("codec rung, op %d: decoded %q, %v; want %q", base+int64(i), scratch.Verb, err, m.Verb)
				}
			}
		}
		codecM.end(2 * len(ops))
		l.ops += len(ops)

		// Conn rungs: the same two messages as one round trip.
		for _, name := range []string{"tcp", "unix", "shm"} {
			p, s := echoes[name], connS[name]
			m := &connM
			if name == "shm" {
				m = &shmM
			}
			m.begin()
			for i := range ops {
				t0 := time.Now()
				err := p.roundTrip(reqs[i], replies[i], &scratch)
				s.add(base+int64(i), -1, t0, time.Since(t0))
				if err != nil || scratch.Verb != replies[i].Verb {
					l.fails.add("wire.conn %s rung, op %d: reply %q, %v", name, base+int64(i), scratch.Verb, err)
				}
			}
			m.end(2 * len(ops))
			l.ops += len(ops)
		}

		replay(asS, &asM, "attrspace", func(op *localOp) (v string, err error) {
			switch op.kind {
			case opPut:
				_, err = client.PutV(bg, gen.keys[op.key], gen.values[op.val])
			case opPutBatch:
				_, err = client.PutBatchV(bg, batch(op))
			case opTryGetHit:
				v, _, err = client.TryGetV(bg, gen.keys[op.key])
			case opGetPresent:
				v, _, err = client.GetV(bg, gen.keys[op.key])
			case opTryGetMiss:
				v, _, err = client.TryGetV(bg, gen.missed[op.key])
			}
			return v, err
		})

		replay(tdpS, &tdpM, "tdp", func(op *localOp) (v string, err error) {
			switch op.kind {
			case opPut:
				err = h.Put(gen.keys[op.key], gen.values[op.val])
			case opPutBatch:
				err = h.PutBatch(batch(op))
			case opTryGetHit:
				v, err = h.TryGet(gen.keys[op.key])
			case opGetPresent:
				v, err = h.Get(bg, gen.keys[op.key])
			case opTryGetMiss:
				v, err = h.TryGet(gen.missed[op.key])
			}
			return v, err
		})
		base += localChunk
	}
	if base == 0 {
		return fmt.Errorf("no chunk completed in %g s", seconds)
	}
	n := float64(base)

	l.set("attr.put_ns", attrS.kind[opPut].p50ns())
	l.set("attr.tryget_ns", attrS.kind[opTryGetHit].p50ns())
	l.set("attr.putbatch_ns", attrS.kind[opPutBatch].p50ns())
	l.set("attr.allocs_per_op", attrM.allocsPerUnit())
	l.set("attr.events.pushed", float64(pushed.Load()))
	l.set("attr.events.lost", float64(sub.Lost()))
	l.set("attr.events.coalesced", float64(sub.Coalesced()))

	l.set("wire.codec.encode_ns", encS.p50ns())
	l.set("wire.codec.decode_ns", decS.p50ns())
	l.set("wire.codec.allocs_per_msg", codecM.allocsPerUnit())
	l.set("wire.codec.bytes_per_msg", float64(codecBytes)/(2*n))

	for name, s := range connS {
		l.set("wire.conn."+name+".rtt_us", s.p50us())
	}
	l.set("wire.conn.shm.cpu_us_per_msg", shmM.cpuUSPerUnit())
	l.set("wire.conn.allocs_per_msg", float64(connM.mallocs+shmM.mallocs)/float64(connM.units+shmM.units))

	l.set("attrspace.put_us", asS.kind[opPut].p50us())
	l.set("attrspace.tryget_us", asS.kind[opTryGetHit].p50us())
	l.set("attrspace.putbatch_us", asS.kind[opPutBatch].p50us())
	l.set("attrspace.get_us", asS.kind[opGetPresent].p50us())
	l.set("attrspace.allocs_per_op", asM.allocsPerUnit())
	puts, gets, trygets, _ := asDaemon.srv.Stats()
	mputs := asDaemon.reg.Counter("attrspace.ops.mput").Value()
	l.set("attrspace.server.ops", float64(puts-puts0+gets-gets0+trygets-trygets0+mputs-mput0))
	// Beneath the client/server pair lie the transport it rides (the shm
	// ring, which already includes the codec) and the engine.
	l.selfUS("attrspace.self_us", pairedMedianUS(asS.all, connS["shm"], attrS.all))

	l.set("tdp.put_us", tdpS.kind[opPut].p50us())
	l.set("tdp.tryget_us", tdpS.kind[opTryGetHit].p50us())
	l.set("tdp.get_us", tdpS.kind[opGetPresent].p50us())
	l.set("tdp.putbatch_us", tdpS.kind[opPutBatch].p50us())
	l.set("tdp.allocs_per_op", tdpM.allocsPerUnit())
	l.selfUS("tdp.self_us", pairedMedianUS(tdpS.all, asS.all))

	// Message and flow-control counts of the tdp rung, from the handle's
	// and its LASS's registries.
	var txMsgs, stalls, winups int64
	var waitS float64
	for i, reg := range []*telemetry.Registry{handleReg, tdpDaemon.reg} {
		before, after := tdpBefore[i], reg.Snapshot()
		txMsgs += after.Counters["wire.tx.msgs"] - before.Counters["wire.tx.msgs"]
		stalls += after.Counters["wire.mux.stalls"] - before.Counters["wire.mux.stalls"]
		winups += after.Counters["wire.mux.winups"] - before.Counters["wire.mux.winups"]
		waitS += after.Histograms["wire.mux.windowwait"].Sum - before.Histograms["wire.mux.windowwait"].Sum
	}
	l.set("wire.tx_msgs_per_op", float64(txMsgs)/n)
	l.set("wire.mux.stalls", float64(stalls))
	l.set("wire.mux.windowwait_us", waitS*1e6/n)
	l.set("wire.mux.winups_per_op", float64(winups)/n)
	return nil
}
