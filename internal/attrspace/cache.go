package attrspace

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"tdp/internal/attr"
	"tdp/internal/telemetry"
)

// GlobalCache is the LASS side of the global-scope verbs (GPUT, GGET, …): a
// read-through, write-through mirror of CASS attributes, kept coherent
// by the seq the CASS assigns every write.
//
// The paper's LASS/CASS split (§3.2) puts one attribute space server
// on every execution host and one next to the tool front-end; a
// global tdp_get therefore pays a front-end round trip on every call.
// The cache exploits the split for locality instead: the first global
// op for a context opens one upstream connection from the LASS to the
// CASS, joins the context, and subscribes to its events — one mirror
// of the context (cacheCtx), a replica under the subscription's id.
// From then on
//
//   - reads hit the local entry map when it holds the attribute
//     (live or deleted) and otherwise fill it from one upstream round
//     trip, versioned by the CASS-assigned per-context seq;
//   - writes (GPUT/GMPUT/GDEL) go through to the CASS and apply to the
//     mirror with the acked seq before the client sees OK, giving
//     read-your-writes to every client of the same LASS. That is all
//     the mirror ever hears of them: the writes carry the id the CASS
//     gave the mirror's subscription as their origin, and the CASS does
//     not echo a write to the subscription it names;
//   - everybody else's writes arrive as EVENTs and update or tombstone
//     entries. Acks, fills and events all compare by seq, so whichever
//     order they land in, the newest write of an attribute wins;
//   - a write whose outcome the mirror never learns — the pooled
//     connection lost with the request in flight, the caller gone
//     before the reply, the cache closing — may have been applied with
//     nothing left to say so. Such a write retires the mirror
//     (teardown); the next global op starts one under a new
//     subscription, to which a write of the old one that lands late is a
//     foreign write, echoed like any other. An ERROR the shard itself
//     answered settles the write (nothing was applied) and costs
//     nothing;
//   - an EVENT carrying lost=<d> (the server's subscription dropped
//     updates for us) flushes the context's entries — the cache never
//     trusts a picture with a gap;
//   - an upstream OpDestroy or connection failure tears the context's
//     cache down entirely; the next global op re-dials.
//
// Entries per context are bounded (MaxEntries); beyond the bound an
// arbitrary entry is evicted, which only costs a future miss. When the
// last local participant of a context leaves, its mirror is retired
// (left), so the cache's upstream reference does not pin a CASS context
// after everyone exited. A mirror made by calling GlobalCache directly,
// with no local participant, lives until Close, an upstream destroy or
// the loss of its connection.
type GlobalCache struct {
	srv       *Server // telemetry + local space (left)
	shards    *ShardMap
	dial      DialFunc
	max       int
	batch     int
	heartbeat time.Duration

	mu     sync.Mutex
	ctxs   map[string]*cacheCtx
	closed bool

	conns []*shardConn // one per shard, index-aligned with shards
}

// CacheConfig tunes EnableGlobalCache.
type CacheConfig struct {
	// Dial opens upstream connections to the CASS; nil means TCPDial.
	Dial DialFunc
	// MaxEntries bounds cached entries per context; 0 means 4096.
	MaxEntries int
	// ShardBatch bounds how many pooled operations one per-shard drain
	// cycle corks into a single write; 0 means 64. See router.go.
	ShardBatch int
	// ShardHeartbeat is the interval at which each shard's pooled
	// connection is pinged; 0 means 1s, negative disables heartbeats
	// (liveness then rests on transport read errors alone).
	ShardHeartbeat time.Duration
}

// EnableGlobalCache turns this server into a caching LASS: the
// global-scope verbs forward to the CASS(es) at cassAddr — a single endpoint or a
// comma-separated shard list ("host1:7170,host2:7170") — through a
// GlobalCache. Call once, before serving traffic; the cache closes
// with the server. With more than one shard, `STATS scope=tree` on
// this server additionally folds in each live shard's snapshot.
func (s *Server) EnableGlobalCache(cassAddr string, cfg CacheConfig) *GlobalCache {
	if cfg.Dial == nil {
		cfg.Dial = TCPDial
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	if cfg.ShardBatch <= 0 {
		cfg.ShardBatch = defaultShardBatch
	}
	switch {
	case cfg.ShardHeartbeat == 0:
		cfg.ShardHeartbeat = time.Second
	case cfg.ShardHeartbeat < 0:
		cfg.ShardHeartbeat = 0
	}
	gc := &GlobalCache{
		srv:       s,
		shards:    ParseShardAddrs(cassAddr),
		dial:      cfg.Dial,
		max:       cfg.MaxEntries,
		batch:     cfg.ShardBatch,
		heartbeat: cfg.ShardHeartbeat,
		ctxs:      make(map[string]*cacheCtx),
	}
	gc.conns = make([]*shardConn, gc.shards.Len())
	for i := range gc.conns {
		gc.conns[i] = gc.newShardConn(i)
	}
	if gc.shards.Len() > 1 {
		// Sharded pool: fold the shards' telemetry into this server's
		// tree-scope STATS, preserving any callback already installed
		// (e.g. an mrnet rollup).
		prev := s.statsKids.Load()
		s.SetStatsChildren(func() []telemetry.Snapshot {
			kids := gc.ShardStats()
			if prev != nil {
				kids = append(kids, (*prev)()...)
			}
			return kids
		})
	}
	s.gcache.Store(gc)
	return gc
}

// ShardMap returns the shard assignment this cache routes by.
func (gc *GlobalCache) ShardMap() *ShardMap { return gc.shards }

// shard returns the shardConn owning the named context.
func (gc *GlobalCache) shard(contextName string) *shardConn {
	return gc.conns[gc.shards.ShardFor(contextName)]
}

func (gc *GlobalCache) isClosed() bool {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.closed
}

// cacheCtx is one mirror of one context: one upstream connection and
// its subscription, and the replica the subscription keeps coherent
// (tombstones matter here: they stop an in-flight fill that read the
// attribute just before its deletion from resurrecting it).
type cacheCtx struct {
	gc     *GlobalCache
	name   string
	ready  chan struct{} // closed when up, origin and initE are settled
	up     *Client
	origin string // up's subscription id, stamped on every write made through this mirror
	initE  error

	mu   sync.RWMutex
	gone bool
	rep  replica
}

// Close tears down every cached context and upstream connection.
func (gc *GlobalCache) Close() {
	gc.mu.Lock()
	if gc.closed {
		gc.mu.Unlock()
		return
	}
	gc.closed = true
	ctxs := gc.ctxs
	gc.ctxs = make(map[string]*cacheCtx)
	gc.mu.Unlock()
	for _, cc := range ctxs {
		cc.teardown()
	}
	for _, sh := range gc.conns {
		sh.close()
	}
}

// left retires the mirror of a context a connection of this server has
// just left, if no local participant is left in it, releasing the
// cache's CASS reference so the upstream context can be destroyed once
// its real participants exit. The test is made under gc.mu, where ctx
// registers mirrors, so a mirror whose creation races the last leave —
// a blocking GET's, on a connection that died — is either found here or
// refused there: the leaving connection cancels the context its
// requests run under before it leaves.
func (gc *GlobalCache) left(name string) {
	gc.mu.Lock()
	cc := gc.ctxs[name]
	if cc == nil || gc.srv.space.Refs(name) != 0 {
		gc.mu.Unlock()
		return
	}
	delete(gc.ctxs, name)
	gc.mu.Unlock()
	cc.teardown()
}

// errCacheClosed reports an operation on a closed cache.
var errCacheClosed = errors.New("attrspace: global cache closed")

// ctx returns the (ready) cache context for name, creating it — dial,
// HELLO, subscribe — on first use. Creation happens outside the cache
// lock so a slow CASS dial for one context never stalls global ops in
// others; concurrent first users share one creation via the ready
// channel. A caller whose ctx has ended creates nothing (see left).
func (gc *GlobalCache) ctx(ctx context.Context, name string) (*cacheCtx, error) {
	for {
		gc.mu.Lock()
		if gc.closed {
			gc.mu.Unlock()
			return nil, errCacheClosed
		}
		cc := gc.ctxs[name]
		if cc == nil {
			if err := ctx.Err(); err != nil {
				gc.mu.Unlock()
				return nil, err
			}
			cc = &cacheCtx{
				gc:    gc,
				name:  name,
				ready: make(chan struct{}),
				rep:   replica{entries: make(map[string]rentry), max: gc.max},
			}
			gc.ctxs[name] = cc
			gc.mu.Unlock()
			cc.init()
			if cc.initE != nil {
				gc.drop(cc)
				return nil, cc.initE
			}
			return cc, nil
		}
		gc.mu.Unlock()
		select {
		case <-cc.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if cc.initE != nil {
			// Creation failed in another goroutine; it already removed
			// the entry — retry with a fresh one.
			gc.drop(cc)
			continue
		}
		cc.mu.RLock()
		gone := cc.gone
		cc.mu.RUnlock()
		if gone {
			gc.drop(cc)
			continue
		}
		return cc, nil
	}
}

// drop removes cc from the context map if it is still the registered
// entry for its name.
func (gc *GlobalCache) drop(cc *cacheCtx) {
	gc.mu.Lock()
	if gc.ctxs[cc.name] == cc {
		delete(gc.ctxs, cc.name)
	}
	gc.mu.Unlock()
}

// init dials the CASS, joins the context, and subscribes — in that
// order, which is what makes the cache coherent: every fill is
// requested after the subscription is live on the CASS, so any write
// newer than what a fill observed must produce an event we will see,
// or be one of this mirror's own, whose ack we will.
func (cc *cacheCtx) init() {
	defer close(cc.ready)
	sh := cc.gc.shard(cc.name)
	if c, ever := sh.live(); c == nil && ever {
		// The owning shard's connection is lost: fail fast instead of
		// burning a dial timeout. Other shards' contexts are
		// unaffected — this is the degraded mode.
		sh.gErrors.Inc()
		cc.initE = sh.downErr()
		return
	}
	up, err := Dial(cc.gc.dial, sh.addr, cc.name)
	if err != nil {
		cc.initE = err
		return
	}
	up.onClose(func(error) { go cc.teardown() })
	origin, err := up.subscribe(cc.onEvent)
	if err != nil {
		up.Close()
		cc.initE = err
		return
	}
	cc.mu.Lock()
	cc.up, cc.origin = up, origin
	gone := cc.gone
	cc.mu.Unlock()
	if gone {
		// Retired while it was being made (left, Close): teardown found
		// no connection to close.
		up.Close()
	}
}

// teardown retires the mirror: it leaves the context map, flushes its
// entries and closes its upstream connection.
func (cc *cacheCtx) teardown() {
	cc.gc.drop(cc)
	cc.mu.Lock()
	if cc.gone {
		cc.mu.Unlock()
		return
	}
	cc.gone = true
	up := cc.up
	n := len(cc.rep.entries)
	clear(cc.rep.entries)
	cc.mu.Unlock()
	if n > 0 {
		cc.gc.srv.tel.Load().cacheFlush.Inc()
	}
	if up != nil {
		up.Close()
	}
}

// onEvent applies one upstream event. It is the upstream client's
// event handler (installed by subscribe), run by its reader, so
// events apply in CASS order and none can be dropped client-side;
// server-side drops surface as ev.Lost and flush the whole context.
func (cc *cacheCtx) onEvent(ev Event) {
	tel := cc.gc.srv.tel.Load()
	if ev.Lost > 0 {
		// The server's subscription dropped events for us: the mirror
		// can no longer be trusted. Flush; demand fills warm it back up
		// with authoritative seqs.
		cc.mu.Lock()
		clear(cc.rep.entries)
		cc.mu.Unlock()
		tel.cacheFlush.Inc()
	}
	switch ev.Op {
	case "put":
		cc.store(ev.Attr, ev.Value, ev.Seq, false)
	case "delete":
		cc.store(ev.Attr, "", ev.Seq, true)
		tel.cacheInval.Inc()
	case "destroy":
		// Run off the reader: teardown closes the upstream client
		// whose frame this handler is still inside.
		go cc.teardown()
	}
}

// store installs value@seq (or a tombstone) unless a newer entry is
// already present. Both fills and events funnel through here, so the
// freshest write wins regardless of arrival order.
func (cc *cacheCtx) store(attribute, value string, seq uint64, dead bool) {
	cc.mu.Lock()
	if !cc.gone {
		cc.rep.apply(attribute, value, seq, dead)
	}
	cc.mu.Unlock()
}

// lookup probes the cache: the entry, tombstone or not, on a hit.
func (cc *cacheCtx) lookup(attribute string) (rentry, bool) {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	e, ok := cc.rep.entries[attribute]
	return e, ok && !cc.gone
}

// wrote takes the outcome of a mutation sent under this mirror's
// origin. No event will report that write to this mirror, so the ack is
// the only word of it: an error that leaves open whether the shard
// applied it — a transport loss (IsRetryable) or the caller's context
// ending first; not the shard's own ERROR answer, not a down shard's
// refusal before anything was sent — retires the mirror. The test errs
// on the safe side in one case: a context that ends while the router
// still waits for the shard's first connect has sent nothing and is
// retired all the same — a start-up that timed out refills its mirror
// once.
func (cc *cacheCtx) wrote(err error) error {
	if err != nil && (IsRetryable(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		cc.teardown()
	}
	return err
}

// Put writes through to the CASS, then installs the acked value in the
// cache before returning, so a subsequent read through this LASS sees
// it (read-your-writes).
func (gc *GlobalCache) Put(ctx context.Context, contextName, attribute, value string) (uint64, error) {
	cc, err := gc.ctx(ctx, contextName)
	if err != nil {
		return 0, err
	}
	seq, err := gc.shard(contextName).put(ctx, contextName, cc.origin, attribute, value)
	if cc.wrote(err) != nil {
		return 0, err
	}
	cc.store(attribute, value, seq, false)
	return seq, nil
}

// PutBatch writes a batch through to the CASS (one MPUT) and installs
// every pair: the engine assigns the batch consecutive seqs ending at
// the acked one.
func (gc *GlobalCache) PutBatch(ctx context.Context, contextName string, pairs []attr.KV) (uint64, error) {
	cc, err := gc.ctx(ctx, contextName)
	if err != nil {
		return 0, err
	}
	last, err := gc.shard(contextName).putBatch(ctx, contextName, cc.origin, pairs)
	if cc.wrote(err) != nil {
		return 0, err
	}
	first := last - uint64(len(pairs)) + 1
	for i, p := range pairs {
		cc.store(p.Key, p.Value, first+uint64(i), false)
	}
	return last, nil
}

// TryGet answers from the cache when possible; on a miss it fills from
// one upstream round trip. A cached tombstone answers ErrNotFound
// locally — that is a hit: the deletion is known, not guessed.
func (gc *GlobalCache) TryGet(ctx context.Context, contextName, attribute string) (string, uint64, error) {
	return gc.read(ctx, contextName, attribute, false)
}

// Get blocks until the attribute exists globally. A live cache entry
// answers immediately; otherwise (miss or tombstone) the blocking GET
// is forwarded to the CASS and the result fills the cache. The wait
// always rides the per-context connection, never the pooled shard
// path: a drain cycle must not stall behind an op that may block
// forever.
func (gc *GlobalCache) Get(ctx context.Context, contextName, attribute string) (string, uint64, error) {
	return gc.read(ctx, contextName, attribute, true)
}

// read is TryGet and, blocking, Get.
func (gc *GlobalCache) read(ctx context.Context, contextName, attribute string, block bool) (string, uint64, error) {
	cc, err := gc.ctx(ctx, contextName)
	if err != nil {
		return "", 0, err
	}
	tel := gc.srv.tel.Load()
	if e, ok := cc.lookup(attribute); ok && !(block && e.dead) {
		tel.cacheHits.Inc()
		if e.dead {
			return "", 0, attr.ErrNotFound
		}
		return e.value, e.seq, nil
	}
	tel.cacheMiss.Inc()
	// The fill is kept under attribute, and the router's op can outlive
	// this caller: neither may hold a view of the request's frame.
	attribute = strings.Clone(attribute)
	var v string
	var seq uint64
	if block {
		v, seq, err = cc.up.GetAt(ctx, Local, attribute)
	} else {
		v, seq, err = gc.shard(contextName).tryGet(ctx, contextName, attribute)
	}
	if err != nil {
		return "", 0, err
	}
	cc.store(attribute, v, seq, false)
	tel.cacheFills.Inc()
	return v, seq, nil
}

// Delete writes the deletion through to the CASS and tombstones the
// local entry with the acked seq.
func (gc *GlobalCache) Delete(ctx context.Context, contextName, attribute string) (uint64, error) {
	cc, err := gc.ctx(ctx, contextName)
	if err != nil {
		return 0, err
	}
	seq, err := gc.shard(contextName).delete(ctx, contextName, cc.origin, attribute)
	if cc.wrote(err) != nil {
		return 0, err
	}
	if seq > 0 {
		cc.store(attribute, "", seq, true)
	}
	return seq, nil
}

// Snapshot always asks the CASS: a snapshot must be complete, and the
// cache only ever holds the attributes someone read or that events
// touched.
func (gc *GlobalCache) Snapshot(ctx context.Context, contextName string) (map[string]string, error) {
	cc, err := gc.ctx(ctx, contextName)
	if err != nil {
		return nil, err
	}
	return cc.up.SnapshotAt(ctx, Local)
}
