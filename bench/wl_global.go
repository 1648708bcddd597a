package main

import (
	"context"
	"fmt"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
)

// Both global workloads run a tdp.Handle{GlobalViaLASS} against the
// caching LASS of a globalPool. Values carry a version so a reader can
// tell which write it saw: "v" + 8 digits + filler, globalValueSize
// bytes in all.
const (
	globalValueSize = 64
	globalBatch     = 8
)

func versionedValue(version int, filler string) string {
	return fmt.Sprintf("v%08d%s", version, filler[:globalValueSize-9])
}

// valueVersion parses the version back out; -1 when v is not a value
// this benchmark wrote.
func valueVersion(v string) int {
	if len(v) != globalValueSize || v[0] != 'v' {
		return -1
	}
	n := 0
	for _, c := range v[1:9] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func attrNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%05d", prefix, i)
	}
	return names
}

// preload writes version-1 values for every name straight at the
// context's owning shard and returns the client, which stays joined so
// the context outlives the preload.
func preload(addr, contextName string, names []string, filler string) (*attrspace.Client, error) {
	c, err := attrspace.Dial(attrspace.TCPDial, addr, contextName)
	if err != nil {
		return nil, err
	}
	first := versionedValue(1, filler)
	pairs := make([]attrspace.KV, 0, 256)
	for i, name := range names {
		pairs = append(pairs, attrspace.KV{Key: name, Value: first})
		if len(pairs) == cap(pairs) || i == len(names)-1 {
			if err := c.PutBatch(pairs); err != nil {
				c.Close()
				return nil, fmt.Errorf("preload %s: %w", contextName, err)
			}
			pairs = pairs[:0]
		}
	}
	return c, nil
}

func initGlobal(lassAddr, contextName string, reg *telemetry.Registry) (*tdp.Handle, error) {
	return tdp.Init(tdp.Config{
		Context: contextName, LASSAddr: lassAddr, GlobalViaLASS: true,
		Identity: "bench", Telemetry: reg,
	})
}

// --- global_read -----------------------------------------------------

const (
	readHotAttrs  = 1024  // fits the 4,096-entry cache
	readColdAttrs = 16384 // 4x the cache bound
)

const (
	grHot = iota
	grCold
	grForeignWrite
)

type globalReadOp struct{ kind, key int }

type globalReadGen struct{ r *rng }

// next draws hot reads 99.4 %, cold reads 0.5 %, foreign writes 0.1 %.
// The shares of the two slow kinds are a fifth of what the issue first
// proposed (2.5 % and 0.5 %): every miss parks both ends of the shm
// ring, and on this code each one slows about three of the hits that
// follow it, so at 3 % a tenth of all ops were slow, op_p90_us sat on
// the edge between the two modes (10..210 us from round to round) and
// ops_per_s spread 34 % from run to run. At 0.6 % both repeat within
// a few percent, and the miss path still runs some 350 times a second.
func (g *globalReadGen) next(op *globalReadOp) {
	switch p := g.r.intn(1000); {
	case p < 994:
		op.kind, op.key = grHot, g.r.intn(readHotAttrs)
	case p < 999:
		op.kind, op.key = grCold, g.r.intn(readColdAttrs)
	default:
		op.kind, op.key = grForeignWrite, g.r.intn(readHotAttrs)
	}
}

// globalReadWorkload reads a hot context that fits the LASS cache and a
// cold one that cannot, while a client dialled straight at the hot
// context's shard rewrites hot attributes behind the cache's back. The
// check is the cache's coherence promise: the version read for an
// attribute never goes backwards and never exceeds what was written.
type globalReadWorkload struct {
	gen        globalReadGen
	pool       *globalPool
	reg        *telemetry.Registry
	hot, cold  *tdp.Handle
	foreign    *attrspace.Client // joined to the hot context at its shard
	coldKeeper *attrspace.Client
	hotNames   []string
	coldNames  []string
	filler     string
	written    []int // per hot attribute: newest version written
	seen       []int // per hot attribute: newest version read
	op         globalReadOp
	fails      failureLog
}

func (w *globalReadWorkload) setup(seed uint64, sz sizing) error {
	root := newRNG(seed)
	w.gen = globalReadGen{r: root.fork("global_read.ops")}
	w.filler = fillerValue("", globalValueSize, root.fork("global_read.values"))
	w.hotNames = attrNames("bench.hot.", readHotAttrs)
	w.coldNames = attrNames("bench.cold.", readColdAttrs)
	pool, err := startGlobalPool()
	if err != nil {
		return err
	}
	w.pool = pool
	hotCtx, coldCtx := contextOn("bench-hot", 0), contextOn("bench-cold", 1)
	if w.foreign, err = preload(pool.shards[0].addr, hotCtx, w.hotNames, w.filler); err != nil {
		return err
	}
	if w.coldKeeper, err = preload(pool.shards[1].addr, coldCtx, w.coldNames, w.filler); err != nil {
		return err
	}
	w.reg = telemetry.NewRegistry()
	if w.hot, err = initGlobal(pool.lass.addr, hotCtx, w.reg); err != nil {
		return err
	}
	if w.cold, err = initGlobal(pool.lass.addr, coldCtx, w.reg); err != nil {
		return err
	}
	w.written = make([]int, readHotAttrs)
	w.seen = make([]int, readHotAttrs)
	for i := range w.written {
		w.written[i], w.seen[i] = 1, 1
	}
	// Fill the cache with the whole hot context before the stream
	// starts, so hot reads are hits from the first warm-up op on.
	for i, name := range w.hotNames {
		if v, err := w.hot.TryGetGlobal(name); err != nil || valueVersion(v) != 1 {
			return fmt.Errorf("fill %s (%d) = %.12q, %v", name, i, v, err)
		}
	}
	return warmUp(w, sz.warm)
}

func (w *globalReadWorkload) step() bool {
	op := &w.op
	w.gen.next(op)
	switch op.kind {
	case grHot:
		name := w.hotNames[op.key]
		v, err := w.hot.TryGetGlobal(name)
		got := valueVersion(v)
		if err != nil || got < w.seen[op.key] || got > w.written[op.key] {
			return w.fails.add("TryGetGlobal %s = version %d, %v; want %d..%d",
				name, got, err, w.seen[op.key], w.written[op.key])
		}
		w.seen[op.key] = got
	case grCold:
		name := w.coldNames[op.key]
		if v, err := w.cold.TryGetGlobal(name); err != nil || valueVersion(v) != 1 {
			return w.fails.add("TryGetGlobal %s = version %d, %v; want 1", name, valueVersion(v), err)
		}
	case grForeignWrite:
		name := w.hotNames[op.key]
		next := w.written[op.key] + 1
		if err := w.foreign.Put(name, versionedValue(next, w.filler)); err != nil {
			return w.fails.add("foreign Put %s: %v", name, err)
		}
		w.written[op.key] = next
	}
	return true
}

// finish checks the shard itself: it must hold the newest version of
// every hot attribute, whatever the cache in front of it saw.
func (w *globalReadWorkload) finish() (checked int) {
	snap, err := w.foreign.Snapshot()
	if err != nil {
		w.fails.add("final shard Snapshot: %v", err)
		return 1
	}
	for i, name := range w.hotNames {
		if got := valueVersion(snap[name]); got != w.written[i] {
			w.fails.add("final shard %s = version %d; want %d", name, got, w.written[i])
		}
	}
	return readHotAttrs
}

func (w *globalReadWorkload) registries() []*telemetry.Registry {
	return append(w.pool.registries(), w.reg)
}

func (w *globalReadWorkload) failures() *failureLog { return &w.fails }

func (w *globalReadWorkload) close() {
	for _, h := range []*tdp.Handle{w.hot, w.cold} {
		if h != nil {
			h.Exit()
		}
	}
	for _, c := range []*attrspace.Client{w.foreign, w.coldKeeper} {
		if c != nil {
			c.Close()
		}
	}
	if w.pool != nil {
		w.pool.close()
	}
}

func globalReadStreamHash(seed uint64, n int) uint64 {
	g := globalReadGen{r: newRNG(seed).fork("global_read.ops")}
	h := newStreamHash()
	var op globalReadOp
	for i := 0; i < n; i++ {
		g.next(&op)
		h.add(uint64(op.kind), uint64(op.key))
	}
	return uint64(h)
}

// --- global_write ----------------------------------------------------

const (
	writeAttrs    = 1024
	writeVariant  = 64
	writeContexts = 4 // two per shard: context i lives on shard i % shardCount
)

// globalWriteOp is a PutGlobal (batch false) or a PutBatchGlobal of
// globalBatch pairs, against context ctx.
type globalWriteOp struct {
	batch bool
	ctx   int
	pairs [globalBatch]struct{ key, val int }
}

type globalWriteGen struct {
	r *rng
	n int
}

// Shares per mille: single puts 950, batches 50.
func (g *globalWriteGen) next(op *globalWriteOp) {
	op.batch = g.r.intn(1000) >= 950
	op.ctx = g.n % writeContexts
	g.n++
	n := 1
	if op.batch {
		n = globalBatch
	}
	for i := 0; i < n; i++ {
		op.pairs[i].key = g.r.intn(writeAttrs)
		op.pairs[i].val = g.r.intn(writeVariant)
	}
}

// globalWriteWorkload writes through the caching LASS into four
// contexts, two per shard, one handle each, taken in turn; at the end it
// compares a snapshot taken straight from each shard with the last value
// acknowledged for every attribute.
//
// In turn, and four rather than the two the issue first proposed,
// because of where a write's round trip lies on this code: about 60 us
// while both ends of the handle's shm ring are still spinning, about
// 250 us once they have parked, with the 100 us spin budget in between.
// Two handles picked at random kept each ring half awake, the loop
// flipped between the two regimes every second or so, and the share of
// time in each — so op_p50_us and ops_per_s — differed from run to run
// by up to 2x. With four handles in turn a ring has always parked by
// the time its next op comes, which is also how a real daemon, writing
// now and then, finds it.
type globalWriteWorkload struct {
	gen     globalWriteGen
	pool    *globalPool
	reg     *telemetry.Registry
	ctxs    [writeContexts]string
	handles [writeContexts]*tdp.Handle
	names   []string
	values  []string
	last    [writeContexts][]int // per context and attribute: index of the last value acknowledged
	op      globalWriteOp
	kvs     []tdp.KV
	fails   failureLog
}

// globalWriteValues is the pool of distinct values the write stream's
// ops index.
func globalWriteValues(root *rng) []string {
	fill := root.fork("global_write.values")
	values := make([]string, writeVariant)
	for v := range values {
		values[v] = fillerValue(fmt.Sprintf("w%02d.", v), globalValueSize, fill)
	}
	return values
}

func (w *globalWriteWorkload) setup(seed uint64, sz sizing) error {
	root := newRNG(seed)
	w.gen = globalWriteGen{r: root.fork("global_write.ops")}
	w.values = globalWriteValues(root)
	w.names = attrNames("bench.write.", writeAttrs)
	w.kvs = make([]tdp.KV, globalBatch)
	pool, err := startGlobalPool()
	if err != nil {
		return err
	}
	w.pool = pool
	w.reg = telemetry.NewRegistry()
	for i := range w.handles {
		w.ctxs[i] = contextOn(fmt.Sprintf("bench-write%d", i), i%shardCount)
		if w.handles[i], err = initGlobal(pool.lass.addr, w.ctxs[i], w.reg); err != nil {
			return err
		}
		w.last[i] = make([]int, writeAttrs)
		// Preload through the LASS so the model covers every attribute
		// the final snapshot will hold.
		pairs := make([]tdp.KV, 0, 256)
		for k, name := range w.names {
			pairs = append(pairs, tdp.KV{Key: name, Value: w.values[0]})
			if len(pairs) == cap(pairs) || k == len(w.names)-1 {
				if err := w.handles[i].PutBatchGlobal(pairs); err != nil {
					return fmt.Errorf("preload %s: %w", w.ctxs[i], err)
				}
				pairs = pairs[:0]
			}
		}
	}
	return warmUp(w, sz.warm)
}

func (w *globalWriteWorkload) step() bool {
	op := &w.op
	w.gen.next(op)
	h := w.handles[op.ctx]
	if !op.batch {
		p := op.pairs[0]
		if err := h.PutGlobal(w.names[p.key], w.values[p.val]); err != nil {
			return w.fails.add("PutGlobal %s/%s: %v", w.ctxs[op.ctx], w.names[p.key], err)
		}
		w.last[op.ctx][p.key] = p.val
		return true
	}
	for i, p := range op.pairs {
		w.kvs[i] = tdp.KV{Key: w.names[p.key], Value: w.values[p.val]}
	}
	if err := h.PutBatchGlobal(w.kvs); err != nil {
		return w.fails.add("PutBatchGlobal %s: %v", w.ctxs[op.ctx], err)
	}
	for _, p := range op.pairs {
		w.last[op.ctx][p.key] = p.val
	}
	return true
}

func (w *globalWriteWorkload) finish() (checked int) {
	for i, name := range w.ctxs {
		checked += writeAttrs + 1
		snap, err := shardSnapshot(w.pool.shards[i%shardCount].addr, name)
		if err != nil {
			w.fails.add("final Snapshot of %s at shard %d: %v", name, i, err)
			continue
		}
		if len(snap) != writeAttrs {
			w.fails.add("shard %d holds %d attributes of %s; want %d", i, len(snap), name, writeAttrs)
		}
		for k, attr := range w.names {
			if snap[attr] != w.values[w.last[i][k]] {
				w.fails.add("shard %d %s/%s = %.12q; want value %d", i, name, attr, snap[attr], w.last[i][k])
			}
		}
	}
	// Read-your-writes through the same LASS, for one attribute of each
	// context: the cache must answer with the last acknowledged value.
	for i, h := range w.handles {
		checked++
		if v, err := h.TryGetGlobal(w.names[0]); err != nil || v != w.values[w.last[i][0]] {
			w.fails.add("TryGetGlobal %s/%s = %.12q, %v; want value %d", w.ctxs[i], w.names[0], v, err, w.last[i][0])
		}
	}
	return checked
}

// shardSnapshot joins contextName straight at a shard, bypassing the
// LASS, and copies it.
func shardSnapshot(addr, contextName string) (map[string]string, error) {
	c, err := attrspace.DialCtx(context.Background(), attrspace.TCPDial, addr, contextName)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Snapshot()
}

func (w *globalWriteWorkload) registries() []*telemetry.Registry {
	return append(w.pool.registries(), w.reg)
}

func (w *globalWriteWorkload) failures() *failureLog { return &w.fails }

func (w *globalWriteWorkload) close() {
	for _, h := range w.handles {
		if h != nil {
			h.Exit()
		}
	}
	if w.pool != nil {
		w.pool.close()
	}
}

func globalWriteStreamHash(seed uint64, n int) uint64 {
	g := globalWriteGen{r: newRNG(seed).fork("global_write.ops")}
	h := newStreamHash()
	var op globalWriteOp
	for i := 0; i < n; i++ {
		g.next(&op)
		h.add(uint64(op.ctx))
		if !op.batch {
			h.add(uint64(op.pairs[0].key), uint64(op.pairs[0].val))
			continue
		}
		for _, p := range op.pairs {
			h.add(uint64(p.key), uint64(p.val))
		}
	}
	return uint64(h)
}
