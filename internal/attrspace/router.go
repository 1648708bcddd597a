package attrspace

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tdp/internal/liveness"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// This file is the LASS-side shard router: the piece that turns the
// GlobalCache from a relay onto one CASS into a relay onto a ShardMap
// of them. It owns one shardConn per shard, each keeping up one
// connection (joined to the "tdp.router" context) that carries the
// pooled data ops: it speaks the ctx-scope verbs of the op table
// (CPUT, CGET, …), so any context's ops ride it, named per message by
// a ctx field.
//
// One cycle is in flight per shard: one corked write and one bounded
// in-flight window. The caller that finds the shard idle leads: it runs
// the cycle of its own op on its own goroutine — one op in flight costs
// no queue, no hand-off and no goroutine. Callers that arrive meanwhile
// follow: they queue, and when the leader's cycle ends it hands the
// queue to a drainer goroutine, which runs the same cycle on batches of
// them until nothing is queued. Concurrent callers thus group-commit,
// which both amortizes the per-frame cost and bounds how many operations
// can be in limbo when a shard dies mid-batch. The shard's heartbeat
// pings the connection the ops ride: a missed PONG fails it (every
// stranded op is answered ErrConnLost), later ops fail fast with
// ErrShardDown instead of hanging on dial timeouts, only that shard's
// hash range degrades, and the shard's connect loop brings it back. The
// router never retries an op: an op of unknown fate is its caller's to
// resolve.
//
// Blocking waits and subscriptions stay on the per-context upstream
// connections the cache holds (cacheCtx.up), whose reference is also
// what lets a ctx-scope op find its context. Multi-context
// scatter-gather (SnapshotMany, Contexts listing, per-shard STATS) fans
// out concurrently across shardConns and merges.

// ErrShardDown reports an operation routed to a shard whose connection
// is currently lost: the op fails fast rather than queueing behind
// a dial that cannot succeed. Ops on other shards are unaffected — this
// error is the degraded mode, not an outage of the global space.
var ErrShardDown = errors.New("attrspace: shard down")

// defaultShardBatch bounds the operations one drain cycle corks into a
// single write when CacheConfig.ShardBatch is zero. The bound is the
// router's flow control: at most this many ops are in flight per shard
// (so a shard crash strands a bounded set), and no single shard's burst
// can monopolize the sender.
const defaultShardBatch = 64

// routerContext is the infrastructure context each shard connection joins.
// It carries no data — the ctx-scope ops name their real target per
// message. The InfraContextPrefix exempts it from shard ownership
// enforcement, since it must exist on every shard.
const routerContext = InfraContextPrefix + "router"

// shardOp is one caller's operation awaiting its cycle, and the request
// it carries, built in place. An op whose outcome its caller received is
// reused, request and channel included; one whose caller stopped waiting
// is not (the drainer still sends and completes it), so no cycle ever
// encodes a request that is being refilled.
type shardOp struct {
	m     *wire.Message
	reply replyKind       // its slot's kind: set with its verb, never around a cycle
	done  chan shardReply // capacity 1: a cycle answers each of its ops once
}

// shardReply carries an op's outcome: the raw reply (nil for one the
// slot answered: a mutation's OK, a read's VALUE or NOTFOUND), the
// client it arrived on (chunked replies need its reassembly buffer) and
// the slot it came through, for a caller that is done with the reply to
// release.
type shardReply struct {
	reply *wire.Message
	pool  *Client
	slot  *replySlot
	err   error
}

// release hands the reply's slot back to the pooled client; the caller
// must have finished reading the reply (see replySlot).
func (r shardReply) release() {
	if r.pool != nil {
		r.pool.release(r.slot)
	}
}

// shardSend is one op of the cycle in flight and the slot its reply
// will come through.
type shardSend struct {
	op   *shardOp
	slot *replySlot
}

// shardConn is the router's state for one shard: its one connection,
// kept up, and the cycles that ride it.
//
// The connection is dialed in the background and redialed on the
// liveness schedule (50 ms doubling to 2 s, jittered, forever) whenever
// it dies; with a heartbeat, a connection whose pings go unanswered is
// retired the same way.
type shardConn struct {
	gc   *GlobalCache
	idx  int
	addr string

	mu     sync.Mutex
	cur    *Client       // the connection cycles ride; nil while disconnected
	ever   bool          // cur has been set once: nil now means the shard is down
	ready  chan struct{} // closed by the first install
	closed bool
	done   chan struct{} // closed by close: stops the connect loop and heartbeats

	queue    []*shardOp
	spare    []*shardOp // the emptied slice queue swaps with; nil while a cycle has it as its batch
	freeOps  []*shardOp // never longer than the peak number of concurrent callers
	draining bool       // a cycle is in flight, a leader's or the drainer's: callers queue

	// The cycle's scratch — there is one cycle at a time per shard.
	sends []shardSend
	lone  [1]*shardOp // a leader's batch

	gUp         *telemetry.Gauge // set under mu where cur is
	gErrors     *telemetry.Counter
	gInflight   *telemetry.Gauge
	cPooled     *telemetry.Counter
	cReconnects *telemetry.Counter
}

const (
	// shardDialTimeout bounds each dial + HELLO round trip, so a shard
	// that accepts connections but never answers cannot wedge the loop.
	shardDialTimeout = 3 * time.Second
	// shardConnectWait bounds how long an op waits for the shard's first
	// connection before failing with ErrConnLost.
	shardConnectWait = 5 * time.Second
)

// newShardConn starts the connect loop of shard idx; the first
// connection is made in the background, and an op that needs it waits
// in client.
func (gc *GlobalCache) newShardConn(idx int) *shardConn {
	reg := gc.srv.tel.Load().reg
	prefix := "attrspace.router.shard." + strconv.Itoa(idx) + "."
	sh := &shardConn{
		gc:          gc,
		idx:         idx,
		addr:        gc.shards.Addr(idx),
		ready:       make(chan struct{}),
		done:        make(chan struct{}),
		gUp:         reg.Gauge(prefix + "up"),
		gErrors:     reg.Counter(prefix + "errors"),
		gInflight:   reg.Gauge(prefix + "inflight"),
		cPooled:     reg.Counter("attrspace.router.pooled"),
		cReconnects: reg.Counter("session.reconnects"),
	}
	go sh.connect()
	return sh
}

// downErr wraps ErrShardDown with this shard's identity; every fail-fast
// site returns through here. The ops it fails are counted where they
// fail — in do, or in a mirror's set-up — once each, however many ops
// one refused cycle carried.
func (sh *shardConn) downErr() error {
	return fmt.Errorf("%w: shard %d (%s)", ErrShardDown, sh.idx, sh.addr)
}

// live returns the shard's connection without waiting — nil while
// disconnected — and whether it has ever held one: nil before the first
// connect means "not yet", after it "down" (ops fail fast on the second
// and wait out the first).
func (sh *shardConn) live() (c *Client, ever bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cur, sh.ever
}

// connect is the single-flight reconnect loop: exactly one runs per
// outage (started by newShardConn and by lost), and it ends as soon as a
// connection is installed or the shard closes.
func (sh *shardConn) connect() {
	liveness.Retry(liveness.System, sh.done, liveness.Schedule{}, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), shardDialTimeout)
		defer cancel()
		c, err := DialCtx(ctx, sh.gc.dial, sh.addr, routerContext)
		if err != nil {
			sh.gc.srv.log().Debugf("attrspace: shard %d connect %s failed: %v", sh.idx, sh.addr, err)
			return err
		}
		sh.install(c)
		return nil
	})
}

// install publishes a freshly dialed connection, wires its loss trigger
// and starts its heartbeat. A shard closed meanwhile closes it instead.
func (sh *shardConn) install(c *Client) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		c.Close()
		return
	}
	reconnect := sh.ever
	if !reconnect {
		close(sh.ready)
	}
	sh.cur, sh.ever = c, true
	sh.gUp.Set(1)
	sh.mu.Unlock()

	if reconnect {
		sh.cReconnects.Inc()
		sh.gc.srv.log().Infof("attrspace: shard %d reconnected to %s", sh.idx, sh.addr)
	}
	// The loss trigger arms after publication: if the client is already
	// dead, onClose fires at once and retires it.
	c.onClose(func(error) { sh.lost(c) })
	if sh.gc.heartbeat > 0 {
		go sh.heartbeat(c)
	}
}

// lost retires connection c: the first caller (its onClose hook, or its
// heartbeat) clears it and starts the next connect loop; later callers
// for the same connection are no-ops.
func (sh *shardConn) lost(c *Client) {
	sh.mu.Lock()
	if sh.closed || sh.cur != c {
		sh.mu.Unlock()
		return
	}
	sh.cur = nil
	sh.gUp.Set(0)
	sh.mu.Unlock()
	c.Close()
	sh.gc.srv.log().Debugf("attrspace: shard %d lost its connection to %s", sh.idx, sh.addr)
	go sh.connect()
}

// heartbeat probes connection c with periodic PINGs, each bounded by one
// interval, and retires it through lost when one goes unanswered. It
// runs alongside everything else the connection does — a chunked
// snapshot included, so a large reply does not read as a dead transport
// — and ends with the connection: a ping on a closed client fails at
// once.
func (sh *shardConn) heartbeat(c *Client) {
	beat := sh.gc.heartbeat
	if err := liveness.Watch(liveness.System, sh.done, beat, beat, c.ping); err != nil {
		sh.gc.srv.log().Debugf("attrspace: shard %d heartbeat to %s failed: %v", sh.idx, sh.addr, err)
		sh.lost(c)
	}
}

// close stops the connect loop and heartbeat, answers every queued op
// and closes the connection.
func (sh *shardConn) close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	c, queue := sh.cur, sh.queue
	sh.cur, sh.queue = nil, nil
	close(sh.done)
	sh.gUp.Set(0)
	sh.mu.Unlock()
	for _, op := range queue {
		op.done <- shardReply{err: ErrClientClosed}
	}
	if c != nil {
		c.Close()
	}
}

// client returns the connection the next cycle rides. A shard that has
// lost its connection is down and fails at once; only before its first
// connect does an op wait, bounded by ctx and shardConnectWait, so
// start-up ordering — LASS before CASS — keeps working. With a
// connection in hand it allocates nothing.
func (sh *shardConn) client(ctx context.Context) (*Client, error) {
	var bound <-chan time.Time
	for {
		sh.mu.Lock()
		c, ever, closed := sh.cur, sh.ever, sh.closed
		sh.mu.Unlock()
		switch {
		case closed:
			return nil, errCacheClosed
		case c != nil:
			return c, nil
		case ever:
			return nil, sh.downErr()
		}
		if bound == nil {
			t := time.NewTimer(shardConnectWait)
			defer t.Stop()
			bound = t.C
		}
		select {
		case <-sh.ready:
		case <-sh.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-bound:
			return nil, fmt.Errorf("%w: no connection to %s after %v", ErrConnLost, sh.addr, shardConnectWait)
		}
	}
}

// op takes an op off the free list, or makes one, with its request
// started as one of spec's for the caller to fill.
func (sh *shardConn) op(spec *opSpec) *shardOp {
	sh.mu.Lock()
	var op *shardOp
	if n := len(sh.freeOps); n > 0 {
		op, sh.freeOps = sh.freeOps[n-1], sh.freeOps[:n-1]
	} else {
		op = &shardOp{m: new(wire.Message), done: make(chan shardReply, 1)}
	}
	sh.mu.Unlock()
	op.m.Reset()
	op.m.Verb = spec.verb
	op.reply = spec.reply
	return op
}

// do names contextName as the target of op's ctx-scope request (""
// for the one daemon-scope listing), runs it through a cycle — its own
// when the shard is idle, the drainer's next otherwise — and returns its
// reply. Fails fast when the shard is down. Each op that fails — with
// an error, or with an ERROR reply, the shard's or the one a lost
// connection leaves — is one of the shard's errors, but for a follower's
// that stopped waiting: its op is still sent, and its outcome is
// nobody's.
func (sh *shardConn) do(ctx context.Context, contextName string, op *shardOp) shardReply {
	if contextName != "" {
		op.m.Set("ctx", contextName)
	}
	var r shardReply
	switch lead, err := sh.enter(op); {
	case err != nil:
		r.err = err
	case lead:
		// The leader's cycle carries its own op and nothing else, so it
		// runs under the leader's ctx, like a request on a connection of
		// its own. draining is set, so whoever arrives meanwhile queues;
		// when the cycle ends the queue is handed to a drainer, or the
		// shard is idle again.
		sh.lone[0] = op
		sh.cycle(ctx, sh.lone[:])
		sh.handOff()
		r = <-op.done
	default:
		select {
		case r = <-op.done:
		case <-ctx.Done():
			// The drainer still completes the op (done is buffered); this
			// caller just stops waiting, and the op is never reused.
			return shardReply{err: ctx.Err()}
		}
	}
	sh.mu.Lock()
	sh.freeOps = append(sh.freeOps, op)
	sh.mu.Unlock()
	if r.err != nil || (r.reply != nil && r.reply.Verb == "ERROR") {
		sh.gErrors.Inc()
	}
	return r
}

// enter admits op to the shard: as the leader when it is idle, into the
// queue behind the cycle in flight otherwise.
func (sh *shardConn) enter(op *shardOp) (lead bool, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case sh.cur == nil && sh.ever:
		return false, sh.downErr()
	case sh.gc.isClosed():
		return false, errCacheClosed
	}
	if lead = !sh.draining; lead {
		sh.draining = true
	} else {
		sh.queue = append(sh.queue, op)
	}
	return lead, nil
}

// handOff ends a leader's cycle. Whether anything queued up behind it is
// read under the mutex producers test draining under: either the shard
// goes idle and the next caller leads, or a drainer takes the queue and
// draining stays set — never both, never neither.
func (sh *shardConn) handOff() {
	if batch := sh.nextBatch(nil); batch != nil {
		go sh.drain(batch)
	}
}

// nextBatch takes the next cycle's ops off the queue — at most
// gc.batch — or, when nothing is queued, leaves the shard idle (nil).
// prev is the drain cycle just finished: its slice becomes the spare the
// queue swaps onto, so steady state alternates two slices and allocates
// neither.
func (sh *shardConn) nextBatch(prev []*shardOp) []*shardOp {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev != nil {
		clear(prev)
		sh.spare = prev[:0]
	}
	n := len(sh.queue)
	if n == 0 {
		sh.draining = false
		return nil
	}
	if n > sh.gc.batch {
		n = sh.gc.batch
	}
	// batch keeps the whole backing array (nothing appends to it), so
	// the spare it becomes is as roomy as the queue ever had to be.
	batch := sh.queue[:n]
	rest := append(sh.spare[:0], sh.queue[n:]...)
	clear(sh.queue[n:])
	sh.queue, sh.spare = rest, nil
	return batch
}

// cycle sends batch upstream in one corked write and answers every op
// of it: with its reply — a real one, or the synthetic conn-error reply
// fail() injects when the transport dies — or, under a leader's ctx that
// ends first, with the ctx's error, the request in flight abandoned as
// Client.exchange abandons one. The replies are read by the shard
// connection's resident reader, which its onClose hook keeps running:
// a cycle's ops are sent before any is awaited, so none of them may be
// handed the read side (Client.send, not an uncancellable exchange).
// One cycle in flight per shard — a bounded window that back-pressures
// producers, keeps any one shard from monopolizing the router, and caps
// the ops in limbo when the shard dies mid-cycle. Independent shards'
// cycles overlap, which is where the aggregate throughput beyond one
// daemon comes from.
func (sh *shardConn) cycle(ctx context.Context, batch []*shardOp) {
	pool, err := sh.client(ctx)
	if err != nil {
		for _, op := range batch {
			op.done <- shardReply{err: err}
		}
		return
	}
	sends := sh.sends[:0]
	pool.wc.Cork()
	for _, op := range batch {
		slot, err := pool.send(op.m, op.reply)
		if err != nil {
			op.done <- shardReply{err: err}
			continue
		}
		sends = append(sends, shardSend{op: op, slot: slot})
	}
	pool.wc.Uncork()
	sh.gInflight.Set(int64(len(sends)))
	for _, s := range sends {
		if reply, err := pool.await(ctx, s.slot); err != nil {
			s.op.done <- shardReply{err: err}
		} else {
			s.op.done <- shardReply{reply: reply, pool: pool, slot: s.slot}
		}
	}
	sh.gInflight.Set(0)
	sh.cPooled.Add(int64(len(sends)))
	clear(sends)
	sh.sends = sends
}

// drain is the group-commit loop a leader hands its followers to: a
// cycle of the batch, then of up to gc.batch of what queued up
// meanwhile, and so on until nothing has. The drainer serves many
// callers and outlives each, so it runs under no caller's context:
// before the shard's first connect it waits as long as
// shardConnectWait allows.
func (sh *shardConn) drain(batch []*shardOp) {
	for ; batch != nil; batch = sh.nextBatch(batch) {
		sh.cycle(context.Background(), batch)
	}
}

// The single-context operations: Client's requests and reply parsers,
// at ctx scope.

// mutate is the round trip of put, putBatch and delete (Client.mutate,
// through a cycle). origin, when not empty, is the id the shard gave the
// subscription of the mirror the write is made for: the shard does not
// echo the write to it.
func (sh *shardConn) mutate(ctx context.Context, contextName, origin string, op *shardOp) (uint64, error) {
	if origin != "" {
		op.m.Set("origin", origin)
	}
	r := sh.do(ctx, contextName, op)
	seq, err := seqReply(r.slot, r.reply, r.err)
	r.release()
	return seq, err
}

func (sh *shardConn) put(ctx context.Context, contextName, origin, attribute, value string) (uint64, error) {
	op := sh.op(opFor(opPut, scopeCtx))
	putReq(op.m, attribute, value)
	return sh.mutate(ctx, contextName, origin, op)
}

func (sh *shardConn) putBatch(ctx context.Context, contextName, origin string, pairs []KV) (uint64, error) {
	op := sh.op(opFor(opMPut, scopeCtx))
	batchReq(op.m, pairs)
	return sh.mutate(ctx, contextName, origin, op)
}

func (sh *shardConn) tryGet(ctx context.Context, contextName, attribute string) (string, uint64, error) {
	op := sh.op(opFor(opTryGet, scopeCtx))
	attrReq(op.m, attribute)
	r := sh.do(ctx, contextName, op)
	v, seq, err := valueReply(r.slot, r.reply, r.err)
	r.release()
	return v, seq, err
}

func (sh *shardConn) delete(ctx context.Context, contextName, origin, attribute string) (uint64, error) {
	op := sh.op(opFor(opDelete, scopeCtx))
	attrReq(op.m, attribute)
	return sh.mutate(ctx, contextName, origin, op)
}

func (sh *shardConn) snapshot(ctx context.Context, contextName string) (map[string]string, error) {
	r := sh.do(ctx, contextName, sh.op(opFor(opSnapshot, scopeCtx)))
	if r.err != nil {
		return nil, r.err
	}
	out := make(map[string]string)
	return out, r.pool.entries(r.reply, nil, func(e entry) { out[e.k] = e.v })
}

func (sh *shardConn) contexts(ctx context.Context) ([]string, error) {
	r := sh.do(ctx, "", sh.op(opFor(opContexts, scopeDaemon)))
	return namesReply(r.reply, r.err)
}

// scatter runs fn(0) … fn(n-1) concurrently and returns their results
// by index.
func scatter[T any](n int, fn func(i int) (T, error)) ([]T, []error) {
	vals, errs := make([]T, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return vals, errs
}

// SnapshotMany snapshots several contexts in one scatter-gather: the
// names group by owning shard, each shard's snapshots coalesce into
// Cork-batched drain cycles on its pooled connection, and the shards
// run concurrently. The result maps context name → snapshot for every
// context that answered; err is the first failure (a down shard) with
// the successes still returned — a degraded pool yields a partial,
// labeled picture rather than nothing.
func (gc *GlobalCache) SnapshotMany(ctx context.Context, names []string) (map[string]map[string]string, error) {
	snaps, errs := scatter(len(names), func(i int) (map[string]string, error) {
		return gc.shard(names[i]).snapshot(ctx, names[i])
	})
	out := make(map[string]map[string]string, len(names))
	var firstErr error
	for i, name := range names {
		if errs[i] == nil {
			out[name] = snaps[i]
		} else if firstErr == nil {
			firstErr = fmt.Errorf("context %q: %w", name, errs[i])
		}
	}
	return out, firstErr
}

// GlobalContexts lists the context names alive across every shard
// (deduplicated, unsorted). Shards that are down are skipped — the
// listing is best-effort by design, like the paper's monitoring verbs —
// with err reporting the first skip cause when any shard could not
// answer.
func (gc *GlobalCache) GlobalContexts(ctx context.Context) ([]string, error) {
	lists, errs := scatter(gc.shards.Len(), func(i int) ([]string, error) {
		return gc.conns[i].contexts(ctx)
	})
	seen := make(map[string]struct{})
	var out []string
	var firstErr error
	for i, names := range lists {
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
		for _, name := range names {
			if _, dup := seen[name]; !dup {
				seen[name] = struct{}{}
				out = append(out, name)
			}
		}
	}
	return out, firstErr
}

// ShardStats fetches each live shard's telemetry snapshot
// concurrently — the scatter half of `STATS scope=tree` on a sharded
// LASS. Down or unreachable shards contribute nothing; the rollup is
// the surviving pool's picture.
func (gc *GlobalCache) ShardStats() []telemetry.Snapshot {
	snaps, errs := scatter(gc.shards.Len(), func(i int) (snap telemetry.Snapshot, err error) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		pool, err := gc.conns[i].client(ctx)
		if err == nil {
			_, snap, err = pool.ServerStats(ctx, "")
		}
		return snap, err
	})
	var out []telemetry.Snapshot
	for i, snap := range snaps {
		if errs[i] == nil {
			out = append(out, snap)
		}
	}
	return out
}
