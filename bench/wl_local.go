package main

import (
	"context"
	"errors"
	"fmt"

	"tdp"
	"tdp/internal/telemetry"
)

// The local_ops op stream: one TDP daemon's traffic against the LASS of
// its own host. Shares are per mille.
const (
	localAttrs   = 1024
	localBatch   = 8
	localVariant = 64 // distinct values per size class
)

const (
	opPut = iota
	opTryGetHit
	opPutBatch
	opGetPresent
	opTryGetMiss
)

var localMix = [...]struct {
	kind, perMille int
}{{opPut, 450}, {opTryGetHit, 450}, {opPutBatch, 40}, {opGetPresent, 30}, {opTryGetMiss, 30}}

// Value sizes: 32 B 85 %, 256 B 12 %, 4 KiB 3 %.
var localSizes = [...]struct {
	bytes, perMille int
}{{32, 850}, {256, 120}, {4096, 30}}

// localOp is one generated operation. key indexes the attribute (or
// the never-written attribute for a miss); val indexes localGen.values.
type localOp struct {
	kind  int
	key   int
	val   int
	batch [localBatch]struct{ key, val int }
}

// localGen turns a seed into the op stream and owns the attribute names
// and the value pool the ops index.
type localGen struct {
	r      *rng
	keys   []string
	missed []string
	values []string // localVariant values of each size class, in class order
}

func newLocalGen(seed uint64) *localGen {
	root := newRNG(seed)
	g := &localGen{r: root.fork("local.ops")}
	for i := 0; i < localAttrs; i++ {
		g.keys = append(g.keys, fmt.Sprintf("bench.local.attr%04d", i))
		g.missed = append(g.missed, fmt.Sprintf("bench.local.none%04d", i))
	}
	fill := root.fork("local.values")
	for class, sz := range localSizes {
		for v := 0; v < localVariant; v++ {
			g.values = append(g.values, fillerValue(fmt.Sprintf("c%d.%02d.", class, v), sz.bytes, fill))
		}
	}
	return g
}

// fillerValue returns a printable value of exactly size bytes that
// starts with prefix; the rest is drawn from r.
func fillerValue(prefix string, size int, r *rng) string {
	b := make([]byte, size)
	n := copy(b, prefix)
	for i := n; i < size; i++ {
		b[i] = 'a' + byte(r.intn(26))
	}
	return string(b)
}

func (g *localGen) value() int {
	p := g.r.intn(1000)
	for class, sz := range localSizes {
		if p < sz.perMille {
			return class*localVariant + g.r.intn(localVariant)
		}
		p -= sz.perMille
	}
	panic("localSizes shares do not sum to 1000")
}

func (g *localGen) next(op *localOp) {
	p := g.r.intn(1000)
	for _, m := range localMix {
		if p < m.perMille {
			op.kind = m.kind
			break
		}
		p -= m.perMille
	}
	op.key = g.r.intn(localAttrs)
	switch op.kind {
	case opPut:
		op.val = g.value()
	case opPutBatch:
		for i := range op.batch {
			op.batch[i].key = g.r.intn(localAttrs)
			op.batch[i].val = g.value()
		}
	}
}

func (op *localOp) hashInto(h *streamHash) {
	h.add(uint64(op.kind), uint64(op.key), uint64(op.val))
	if op.kind == opPutBatch {
		for _, b := range op.batch {
			h.add(uint64(b.key), uint64(b.val))
		}
	}
}

// localWorkload drives one tdp.Handle against a same-host LASS and
// checks every read against the last value this handle put.
type localWorkload struct {
	gen   *localGen
	lass  *daemon
	h     *tdp.Handle
	reg   *telemetry.Registry
	last  []int // per attribute: index of the last value put
	op    localOp
	pairs []tdp.KV
	fails failureLog
}

func (w *localWorkload) setup(seed uint64, sz sizing) error {
	w.gen = newLocalGen(seed)
	lass, err := startDaemon("lassd", nil)
	if err != nil {
		return err
	}
	w.lass = lass
	w.reg = telemetry.NewRegistry()
	w.h, err = tdp.Init(tdp.Config{
		Context: "bench-local", LASSAddr: lass.addr, Identity: "bench", Telemetry: w.reg,
	})
	if err != nil {
		return err
	}
	w.pairs = make([]tdp.KV, localBatch)
	w.last = make([]int, localAttrs)
	// Preload every attribute so hits hit and Get never blocks.
	for base := 0; base < localAttrs; base += 256 {
		pairs := make([]tdp.KV, 0, 256)
		for i := base; i < base+256; i++ {
			pairs = append(pairs, tdp.KV{Key: w.gen.keys[i], Value: w.gen.values[0]})
		}
		if err := w.h.PutBatch(pairs); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return warmUp(w, sz.warm)
}

func (w *localWorkload) step() bool {
	op := &w.op
	w.gen.next(op)
	g := w.gen
	switch op.kind {
	case opPut:
		if err := w.h.Put(g.keys[op.key], g.values[op.val]); err != nil {
			return w.fails.add("Put %s: %v", g.keys[op.key], err)
		}
		w.last[op.key] = op.val
	case opPutBatch:
		for i, b := range op.batch {
			w.pairs[i] = tdp.KV{Key: g.keys[b.key], Value: g.values[b.val]}
		}
		if err := w.h.PutBatch(w.pairs); err != nil {
			return w.fails.add("PutBatch: %v", err)
		}
		for _, b := range op.batch {
			w.last[b.key] = b.val
		}
	case opTryGetHit:
		v, err := w.h.TryGet(g.keys[op.key])
		if err != nil || v != g.values[w.last[op.key]] {
			return w.fails.add("TryGet %s = %.20q, %v; want value %d", g.keys[op.key], v, err, w.last[op.key])
		}
	case opGetPresent:
		v, err := w.h.Get(context.Background(), g.keys[op.key])
		if err != nil || v != g.values[w.last[op.key]] {
			return w.fails.add("Get %s = %.20q, %v; want value %d", g.keys[op.key], v, err, w.last[op.key])
		}
	case opTryGetMiss:
		if v, err := w.h.TryGet(g.missed[op.key]); !errors.Is(err, tdp.ErrNotFound) {
			return w.fails.add("TryGet %s = %.20q, %v; want ErrNotFound", g.missed[op.key], v, err)
		}
	}
	return true
}

// finish reads every attribute back once more: the space must hold
// exactly the last acknowledged value of each.
func (w *localWorkload) finish() (checked int) {
	snap, err := w.h.Snapshot()
	if err != nil {
		w.fails.add("final Snapshot: %v", err)
		return 1
	}
	for i, k := range w.gen.keys {
		if snap[k] != w.gen.values[w.last[i]] {
			w.fails.add("final %s = %.20q; want value %d", k, snap[k], w.last[i])
		}
	}
	if len(snap) != localAttrs {
		w.fails.add("final Snapshot holds %d attributes; want %d", len(snap), localAttrs)
	}
	return localAttrs + 1
}

func (w *localWorkload) registries() []*telemetry.Registry {
	return []*telemetry.Registry{w.reg, w.lass.reg}
}

func (w *localWorkload) failures() *failureLog { return &w.fails }

func (w *localWorkload) close() {
	if w.h != nil {
		w.h.Exit()
	}
	if w.lass != nil {
		w.lass.srv.Close()
	}
}

func localStreamHash(seed uint64, n int) uint64 {
	g := newLocalGen(seed)
	h := newStreamHash()
	var op localOp
	for i := 0; i < n; i++ {
		g.next(&op)
		op.hashInto(&h)
	}
	for _, v := range g.values {
		h.add(uint64(len(v)), uint64(v[len(v)-1]))
	}
	return uint64(h)
}
