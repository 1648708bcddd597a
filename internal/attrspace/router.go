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
// Each op is its caller's own request on that connection: the caller
// sends it and awaits the reply under its own context, and the
// connection's resident reader hands every reply to its waiter by id,
// so concurrent callers pipeline without a queue. The shard's heartbeat
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

// routerContext is the infrastructure context each shard connection joins.
// It carries no data — the ctx-scope ops name their real target per
// message. The InfraContextPrefix exempts it from shard ownership
// enforcement, since it must exist on every shard.
const routerContext = InfraContextPrefix + "router"

// shardConn is the router's state for one shard: its one connection,
// kept up, and the requests that ride it.
//
// The connection is dialed in the background and redialed on the
// liveness schedule (50 ms doubling to 2 s, jittered, forever) whenever
// it dies; with a heartbeat, a connection whose pings go unanswered is
// retired the same way.
type shardConn struct {
	gc   *GlobalCache
	idx  int
	addr string

	mu       sync.Mutex
	cur      *Client       // the connection ops ride; nil while disconnected
	ever     bool          // cur has been set once: nil now means the shard is down
	ready    chan struct{} // closed by the first install
	closed   bool
	done     chan struct{}   // closed by close: stops the connect loop and heartbeats
	freeReqs []*wire.Message // never longer than the peak number of concurrent senders

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
// fail — in do — once each.
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

// close stops the connect loop and heartbeat and closes the connection,
// which answers every op in flight on it.
func (sh *shardConn) close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	c := sh.cur
	sh.cur = nil
	close(sh.done)
	sh.gUp.Set(0)
	sh.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// client returns the connection the next op rides. A shard that has
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

// req takes a request off the free list, or makes one, started as one
// of spec's for the caller to fill.
func (sh *shardConn) req(spec *opSpec) *wire.Message {
	sh.mu.Lock()
	var m *wire.Message
	if n := len(sh.freeReqs); n > 0 {
		m, sh.freeReqs = sh.freeReqs[n-1], sh.freeReqs[:n-1]
	} else {
		m = new(wire.Message)
	}
	sh.mu.Unlock()
	m.Reset()
	m.Verb = spec.verb
	return m
}

// do names contextName as the target of m, a ctx-scope request of spec's
// ("" for the one daemon-scope listing), sends it on the shard's
// connection and awaits its reply under ctx. m goes back on the free
// list as soon as it is encoded. The reply is read by the connection's
// resident reader, which its onClose hook keeps running, and comes with
// the client it arrived on (chunked replies need its reassembly buffer)
// and the slot it came through, for the caller to release once it has
// read the reply (nil along with any error: a slot whose caller stopped
// waiting is never released — see replySlot). Fails fast
// when the shard is down. Each op that fails — with an error, or with
// an ERROR reply, the shard's or the one a lost connection leaves — is
// one of the shard's errors.
func (sh *shardConn) do(ctx context.Context, contextName string, spec *opSpec, m *wire.Message) (pool *Client, slot *replySlot, reply *wire.Message, err error) {
	if contextName != "" {
		m.Set("ctx", contextName)
	}
	pool, err = sh.client(ctx)
	if err == nil {
		slot, err = pool.send(m, spec.reply)
	}
	sh.mu.Lock()
	sh.freeReqs = append(sh.freeReqs, m)
	sh.mu.Unlock()
	if err == nil {
		sh.cPooled.Inc()
		sh.gInflight.Add(1)
		if reply, err = pool.await(ctx, slot); err != nil {
			slot = nil // abandoned by await: never released
		}
		sh.gInflight.Add(-1)
	}
	if err != nil || (reply != nil && reply.Verb == "ERROR") {
		sh.gErrors.Inc()
	}
	return pool, slot, reply, err
}

// The single-context operations: Client's requests and reply parsers,
// at ctx scope.

// mutate is the round trip of put, putBatch and delete (Client.mutate,
// at ctx scope). origin, when not empty, is the id the shard gave the
// subscription of the mirror the write is made for: the shard does not
// echo the write to it.
func (sh *shardConn) mutate(ctx context.Context, contextName, origin string, spec *opSpec, m *wire.Message) (uint64, error) {
	if origin != "" {
		m.Set("origin", origin)
	}
	pool, slot, reply, err := sh.do(ctx, contextName, spec, m)
	seq, err := seqReply(slot, reply, err)
	pool.release(slot)
	return seq, err
}

func (sh *shardConn) put(ctx context.Context, contextName, origin, attribute, value string) (uint64, error) {
	spec := opFor(opPut, scopeCtx)
	return sh.mutate(ctx, contextName, origin, spec, putReq(sh.req(spec), attribute, value))
}

func (sh *shardConn) putBatch(ctx context.Context, contextName, origin string, pairs []KV) (uint64, error) {
	spec := opFor(opMPut, scopeCtx)
	return sh.mutate(ctx, contextName, origin, spec, batchReq(sh.req(spec), pairs))
}

func (sh *shardConn) tryGet(ctx context.Context, contextName, attribute string) (string, uint64, error) {
	spec := opFor(opTryGet, scopeCtx)
	pool, slot, reply, err := sh.do(ctx, contextName, spec, attrReq(sh.req(spec), attribute))
	v, seq, err := valueReply(slot, reply, err)
	pool.release(slot)
	return v, seq, err
}

func (sh *shardConn) delete(ctx context.Context, contextName, origin, attribute string) (uint64, error) {
	spec := opFor(opDelete, scopeCtx)
	return sh.mutate(ctx, contextName, origin, spec, attrReq(sh.req(spec), attribute))
}

func (sh *shardConn) snapshot(ctx context.Context, contextName string) (map[string]string, error) {
	spec := opFor(opSnapshot, scopeCtx)
	pool, _, reply, err := sh.do(ctx, contextName, spec, sh.req(spec))
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	return out, pool.entries(reply, nil, func(e entry) { out[e.k] = e.v })
}

func (sh *shardConn) contexts(ctx context.Context) ([]string, error) {
	spec := opFor(opContexts, scopeDaemon)
	_, _, reply, err := sh.do(ctx, "", spec, sh.req(spec))
	return namesReply(reply, err)
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

// SnapshotMany snapshots several contexts in one scatter-gather: one
// request per context, each on its owning shard's pooled connection,
// all in flight at once. The result maps context name → snapshot for every
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
