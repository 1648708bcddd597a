package main

import (
	"context"
	"fmt"
	"time"

	"tdp/internal/attr"
	"tdp/internal/attrspace"
)

// The global ladder replays the global_read and global_write streams
// against the LASS's GlobalCache called directly (cache and router) and
// against clients dialled straight at the owning shards (the rung
// beneath both).

const (
	globalReadChunk  = 2048
	globalWriteChunk = 64
)

func (l *ladderRun) globalLadder(seed uint64, seconds float64) error {
	root := newRNG(seed)
	bg := context.Background()
	pool, err := startGlobalPool()
	if err != nil {
		return err
	}
	defer pool.close()
	cache := pool.cache
	lassReg := pool.lass.reg

	// Contexts: the read stream's hot and cold ones, the write stream's
	// four, and a twin of each of those for the direct writes, so they do
	// not disturb what the router's writes are checked against.
	filler := fillerValue("", globalValueSize, root.fork("global_read.values"))
	hotNames, coldNames := attrNames("bench.hot.", readHotAttrs), attrNames("bench.cold.", readColdAttrs)
	hotCtx, coldCtx := contextOn("ladder-hot", 0), contextOn("ladder-cold", 1)
	hotShard, err := preload(pool.shards[0].addr, hotCtx, hotNames, filler)
	if err != nil {
		return err
	}
	defer hotShard.Close()
	coldShard, err := preload(pool.shards[1].addr, coldCtx, coldNames, filler)
	if err != nil {
		return err
	}
	defer coldShard.Close()
	var writeCtx [writeContexts]string
	var direct [writeContexts]*attrspace.Client
	for i := range direct {
		shard := i % shardCount
		writeCtx[i] = contextOn(fmt.Sprintf("ladder-write%d", i), shard)
		if direct[i], err = attrspace.Dial(attrspace.TCPDial, pool.shards[shard].addr, contextOn(fmt.Sprintf("ladder-direct%d", i), shard)); err != nil {
			return err
		}
		defer direct[i].Close()
	}
	// A local participant per cached context, as a daemon using the
	// cache would be: the cache drops contexts nobody on the LASS joined.
	for _, name := range append([]string{hotCtx, coldCtx}, writeCtx[:]...) {
		holder, err := attrspace.Dial(nil, pool.lass.addr, name)
		if err != nil {
			return err
		}
		defer holder.Close()
	}
	for _, name := range hotNames {
		if _, _, err := cache.TryGet(bg, hotCtx, name); err != nil {
			return fmt.Errorf("fill %s: %w", name, err)
		}
	}
	writeNames := attrNames("bench.write.", writeAttrs)
	writeValues := globalWriteValues(root)

	readGen := globalReadGen{r: root.fork("global_read.ops")}
	writeGen := globalWriteGen{r: root.fork("global_write.ops")}
	hitS, missS := l.rec.get("attrspace.cache.hit"), l.rec.get("attrspace.cache.miss")
	shardGetS := l.rec.get("attrspace.shard.tryget")
	routerPutS, routerBatchS := l.rec.get("attrspace.router.put"), l.rec.get("attrspace.router.putbatch")
	shardPutS, applyS := l.rec.get("attrspace.shard.put"), l.rec.get("attrspace.cache.put_apply")
	misses := lassReg.Counter("attrspace.cache.misses")
	before := lassReg.Snapshot()

	written := make([]int, readHotAttrs)
	seen := make([]int, readHotAttrs)
	for i := range written {
		written[i], seen[i] = 1, 1
	}
	readOps := make([]globalReadOp, globalReadChunk)
	missed := make([]bool, globalReadChunk)
	writeOps := make([]globalWriteOp, globalWriteChunk)
	kvs := make([]attr.KV, globalBatch)
	var cacheNS, beneathNS int64 // the read stream's time in the cache rung, and beneath it
	var reads int64
	var readBase, writeBase int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// Run for the time given, and until every series has a sample: batches
	// and misses are rare enough for a very short run to see none.
	for time.Now().Before(deadline) || len(routerBatchS.ns) == 0 || len(missS.ns) == 0 {
		// Read stream, cache rung. Whether an op was a hit is read off
		// the cache's own miss counter.
		for i := range readOps {
			op := &readOps[i]
			readGen.next(op)
			id := readBase + int64(i)
			missed[i] = false
			if op.kind == grForeignWrite {
				next := written[op.key] + 1
				if _, err := hotShard.PutV(bg, hotNames[op.key], versionedValue(next, filler)); err != nil {
					l.fails.add("cache rung, op %d: foreign put: %v", id, err)
				}
				written[op.key] = next
				continue
			}
			ctxName, names := hotCtx, hotNames
			if op.kind == grCold {
				ctxName, names = coldCtx, coldNames
			}
			name := names[op.key]
			m0 := misses.Value()
			t0 := time.Now()
			v, _, err := cache.TryGet(bg, ctxName, name)
			d := time.Since(t0)
			missed[i] = misses.Value() != m0
			if missed[i] {
				missS.add(id, -1, t0, d)
			} else {
				hitS.add(id, -1, t0, d)
			}
			cacheNS += d.Nanoseconds()
			reads++
			got := valueVersion(v)
			switch {
			case err != nil:
				l.fails.add("cache rung, op %d: TryGet %s: %v", id, name, err)
			case op.kind == grCold && got != 1:
				l.fails.add("cache rung, op %d: %s = version %d, want 1", id, name, got)
			case op.kind == grHot && (got < seen[op.key] || got > written[op.key]):
				l.fails.add("cache rung, op %d: %s = version %d, want %d..%d", id, name, got, seen[op.key], written[op.key])
			case op.kind == grHot:
				seen[op.key] = got
			}
		}
		l.ops += len(readOps)
		// Read stream, shard rung: the ops the cache sent upstream, asked
		// of the owning shard directly.
		for i := range readOps {
			if !missed[i] {
				continue
			}
			op := &readOps[i]
			c, names := hotShard, hotNames
			if op.kind == grCold {
				c, names = coldShard, coldNames
			}
			name := names[op.key]
			t0 := time.Now()
			_, _, err := c.TryGetV(bg, name)
			d := time.Since(t0)
			shardGetS.add(readBase+int64(i), -1, t0, d)
			beneathNS += d.Nanoseconds()
			l.ops++
			if err != nil {
				l.fails.add("shard rung, op %d: TryGetV %s: %v", readBase+int64(i), name, err)
			}
		}
		readBase += globalReadChunk

		// Write stream, router rung, with the read-your-writes probe
		// after every single put.
		for i := range writeOps {
			op := &writeOps[i]
			writeGen.next(op)
			id := writeBase + int64(i)
			if op.batch {
				for k, p := range op.pairs {
					kvs[k] = attr.KV{Key: writeNames[p.key], Value: writeValues[p.val]}
				}
				t0 := time.Now()
				_, err := cache.PutBatch(bg, writeCtx[op.ctx], kvs)
				routerBatchS.add(id, -1, t0, time.Since(t0))
				if err != nil {
					l.fails.add("router rung, op %d: PutBatch: %v", id, err)
				}
				continue
			}
			name, value := writeNames[op.pairs[0].key], writeValues[op.pairs[0].val]
			t0 := time.Now()
			_, err := cache.Put(bg, writeCtx[op.ctx], name, value)
			span := routerPutS.add(id, -1, t0, time.Since(t0))
			if err != nil {
				l.fails.add("router rung, op %d: Put: %v", id, err)
				continue
			}
			t0 = time.Now()
			v, _, err := cache.TryGet(bg, writeCtx[op.ctx], name)
			applyS.add(id, span, t0, time.Since(t0))
			if err != nil || v != value {
				l.fails.add("router rung, op %d: read-your-writes %s = %.12q, %v", id, name, v, err)
			}
		}
		l.ops += len(writeOps)
		// Write stream, shard rung: the same single puts straight at the
		// shard that owns the op's context.
		for i := range writeOps {
			op := &writeOps[i]
			if op.batch {
				continue
			}
			t0 := time.Now()
			_, err := direct[op.ctx].PutV(bg, writeNames[op.pairs[0].key], writeValues[op.pairs[0].val])
			shardPutS.add(writeBase+int64(i), -1, t0, time.Since(t0))
			l.ops++
			if err != nil {
				l.fails.add("shard rung, op %d: PutV: %v", writeBase+int64(i), err)
			}
		}
		writeBase += globalWriteChunk
	}

	after := lassReg.Snapshot()
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hits, miss := delta("attrspace.cache.hits"), delta("attrspace.cache.misses")
	l.set("attrspace.cache.hit_us", hitS.p50us())
	l.set("attrspace.cache.miss_us", missS.p50us())
	l.set("attrspace.cache.hit_ratio", hits/(hits+miss))
	l.set("attrspace.cache.fills", delta("attrspace.cache.fills"))
	l.set("attrspace.cache.invalidations", delta("attrspace.cache.invalidations"))
	l.set("attrspace.cache.flushes", delta("attrspace.cache.flushes"))
	// Mean time per read spent in the cache layer itself: the whole
	// stream's time in the cache rung less what its misses cost when
	// asked of the shard directly. A mean, not a median, because the
	// stream is a mixture: the median read is a hit with nothing beneath.
	l.selfUS("attrspace.cache.self_us", float64(cacheNS-beneathNS)/float64(reads)/1e3)
	l.set("attrspace.cache.put_apply_us", applyS.p50us())

	l.set("attrspace.router.put_us", routerPutS.p50us())
	l.set("attrspace.router.putbatch_us", routerBatchS.p50us())
	l.set("attrspace.shard.put_us", shardPutS.p50us())
	l.set("attrspace.shard.tryget_us", shardGetS.p50us())
	l.selfUS("attrspace.router.self_us", pairedMedianUS(routerPutS, shardPutS))
	l.set("attrspace.router.pooled", delta("attrspace.router.pooled"))
	l.set("attrspace.router.fallback", delta("attrspace.router.fallback"))
	var shardErrors float64
	for i := 0; i < shardCount; i++ {
		shardErrors += delta(fmt.Sprintf("attrspace.router.shard.%d.errors", i))
	}
	l.set("attrspace.router.shard_errors", shardErrors)
	return nil
}
