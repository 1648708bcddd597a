// Package attr implements the TDP attribute space: a set of named
// contexts, each holding (attribute, value) string pairs, with
// blocking get, asynchronous change notification, and reference-counted
// context lifetime.
//
// The paper (§2.1, §3.2) specifies that information in the shared
// space is kept as (attribute, value) pairs where both sides are
// NUL-free strings, that tdp_get blocks until the attribute appears,
// that a resource manager may hold a separate space (a "context") per
// tool, and that a context shared between a resource manager and
// several tools is destroyed when the last participant calls tdp_exit.
// This package is the in-memory engine behind both the LASS and CASS
// servers (package attrspace) and the in-process fast path used by the
// public tdp package.
//
// # Concurrency model
//
// The store is sharded: contexts are spread over a fixed array of
// shards by a hash of the context name, and each shard carries its own
// sync.RWMutex. Operations in different contexts therefore contend
// only when the contexts hash to the same shard (1/64 by default);
// read-only operations (TryGet, Snapshot, Len) take the shard lock
// shared. Per-context ordering is preserved: every mutation of a
// context holds its shard lock exclusively, so the context's Seq
// counter still totally orders its updates.
//
// Subscriber delivery is asynchronous. A Put appends the Update to
// each subscription's bounded ring buffer while it holds the shard
// lock (an O(1) slice write), and a per-subscription delivery
// goroutine drains the ring onto the subscriber's channel. Publishers
// therefore never block on slow subscribers and never perform channel
// operations inside the store's critical section. When a ring
// overflows, updates for the same attribute coalesce to the latest
// value; if nothing coalesces, the oldest update is dropped and
// counted (Subscription.Lost) — OpDestroy is never dropped. Blocked
// Gets are woken outside the lock through buffered channels, exactly
// one value each.
//
// # Identities
//
// A Space mints every identity it hands out from one generator: a
// random base drawn when the Space is made, plus a counter. A context
// gets one at creation — its incarnation: the same name destroyed and
// created again, here or in a restarted daemon, is another incarnation —
// and a subscription gets one at registration (Subscription.ID). A
// writer that mirrors the context itself — the caching LASS, which
// learns each of its writes' seq from the acknowledgement — has no use
// for the event that reports its own write back to it, so a reference
// may name the subscription it writes for (SetOrigin), and a put or
// delete made through it skips that subscription. Everything without an
// origin, and OpDestroy always, is delivered to everyone.
package attr

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrNoContext is returned when an operation references a context that
// does not exist (never joined, or already destroyed).
var ErrNoContext = errors.New("attr: no such context")

// ErrClosed is returned when operating on a reference after Leave.
var ErrClosed = errors.New("attr: reference already released")

// ErrNotFound is returned by non-blocking lookups for absent attributes.
var ErrNotFound = errors.New("attr: attribute not found")

// Op describes what happened to an attribute in an Update.
type Op int

const (
	// OpPut records an insert or overwrite of an attribute.
	OpPut Op = iota
	// OpDelete records removal of an attribute.
	OpDelete
	// OpDestroy records destruction of the whole context (last leave).
	OpDestroy
)

// String returns the mnemonic used in traces and logs.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpDestroy:
		return "destroy"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Update is delivered to subscribers when a context changes.
type Update struct {
	Context string // context name
	Attr    string // attribute name; empty for OpDestroy
	Value   string // new value for OpPut; previous value for OpDelete
	Op      Op
	Seq     uint64 // per-context modification sequence number
}

// entry is one stored attribute: its value and the context sequence
// number of the write that produced it. The per-entry version is what
// lets a downstream cache (the LASS read-through cache for CASS
// attributes) order fills against invalidation events.
type entry struct {
	value string
	seq   uint64
}

// spaceContext is one named attribute space.
type spaceContext struct {
	name    string
	inc     uint64 // the incarnation, minted at creation
	sh      *shard // owning shard; its mutex guards every field below
	refs    int
	attrs   map[string]entry
	seq     uint64
	waiters map[string][]chan Update // blocked Gets per attribute
	subs    map[*Subscription]struct{}
}

// shard is one lock domain of the sharded context map.
type shard struct {
	mu       sync.RWMutex
	contexts map[string]*spaceContext
}

// DefaultShards is the shard count NewSpace uses. 64 shards keep the
// per-shard collision probability low for realistic pool sizes
// (hundreds of live job contexts) at a fixed, small footprint.
const DefaultShards = 64

// Space holds every context. A single Space instance backs one
// attribute space server (one LASS or the CASS).
type Space struct {
	shards []shard
	mask   uint32

	idBase uint64        // 60 random bits: ids from two Spaces do not meet
	ids    atomic.Uint64 // ids minted so far
}

// mint returns a new identity: never 0, unique within the Space and, by
// its random base, across daemons — at most 12 characters in base 36.
func (s *Space) mint() uint64 { return s.idBase + s.ids.Add(1) }

// NewSpace returns an empty attribute space with DefaultShards shards.
func NewSpace() *Space {
	return NewSpaceShards(DefaultShards)
}

// NewSpaceShards returns an empty attribute space with n shards
// (rounded up to a power of two, minimum 1). n = 1 degenerates to a
// single global lock — useful only as a benchmark baseline.
func NewSpaceShards(n int) *Space {
	if n < 1 {
		n = 1
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Space{shards: make([]shard, size), mask: uint32(size - 1), idBase: rand.Uint64() >> 4}
	for i := range s.shards {
		s.shards[i].contexts = make(map[string]*spaceContext)
	}
	return s
}

// shardFor picks the shard owning a context name (FNV-1a).
func (s *Space) shardFor(name string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return &s.shards[h&s.mask]
}

// Join enters the named context, creating it if needed, and returns a
// reference. Each successful Join must be balanced by Leave; the
// context and all its attributes are destroyed when the last reference
// leaves, mirroring tdp_exit semantics.
func (s *Space) Join(name string) *Ref {
	ref := new(Ref)
	s.join(name, true, ref)
	return ref
}

// JoinExisting enters the named context through ref only when somebody
// already holds it, reporting false (and joining nothing) otherwise. The
// existence check and the join are one shard-lock hold, so a caller can
// never create — or write into and then destroy — a context whose last
// holder left between the two. ref is the caller's: a new one, or one
// it has left, which starts over with origin 0 and nothing suppressed.
func (s *Space) JoinExisting(name string, ref *Ref) bool {
	return s.join(name, false, ref)
}

func (s *Space) join(name string, create bool, ref *Ref) bool {
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.contexts[name]
	if c == nil {
		if !create {
			return false
		}
		c = &spaceContext{
			name:    name,
			inc:     s.mint(),
			sh:      sh,
			attrs:   make(map[string]entry),
			waiters: make(map[string][]chan Update),
			subs:    make(map[*Subscription]struct{}),
		}
		sh.contexts[name] = c
	}
	c.refs++
	ref.space, ref.ctx, ref.origin = s, c, 0
	ref.suppressed.Store(0)
	return true
}

// Contexts returns the names of live contexts, sorted.
func (s *Space) Contexts() []string {
	var names []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for n := range sh.contexts {
			names = append(names, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Refs reports the current reference count of a context, or 0 when the
// context does not exist.
func (s *Space) Refs(name string) int {
	sh := s.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if c := sh.contexts[name]; c != nil {
		return c.refs
	}
	return 0
}

// Ref is one participant's handle on a context. It is safe for
// concurrent use by multiple goroutines.
type Ref struct {
	space *Space
	mu    sync.Mutex
	ctx   *spaceContext // nil after Leave

	origin     uint64        // see SetOrigin; 0 for almost every reference
	suppressed atomic.Uint64 // updates not queued for the origin subscription
}

// SetOrigin names the subscription (Subscription.ID) this reference's
// mutations are made for: they are not queued for it. Call it before the
// reference is used; origin 0, the default, is nobody's.
func (r *Ref) SetOrigin(origin uint64) { r.origin = origin }

// Suppressed reports how many updates this reference's mutations have
// withheld from its origin subscription.
func (r *Ref) Suppressed() uint64 { return r.suppressed.Load() }

// publish queues u, a mutation made through r, for every subscription
// but r's origin. Callers hold the shard lock.
func (c *spaceContext) publish(r *Ref, u Update) {
	for sub := range c.subs {
		if sub.ID == r.origin {
			r.suppressed.Add(1)
			continue
		}
		sub.enqueue(u) // O(1) ring append; never blocks
	}
}

// Context returns the context name, or "" after Leave.
func (r *Ref) Context() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctx == nil {
		return ""
	}
	return r.ctx.name
}

func (r *Ref) live() (*spaceContext, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctx == nil {
		return nil, ErrClosed
	}
	return r.ctx, nil
}

// Put stores attribute = value, waking any blocked Gets and notifying
// subscribers. Matching the paper's blocking tdp_put, Put returns only
// once the value is visible in the space.
func (r *Ref) Put(attribute, value string) error {
	_, err := r.PutSeq(attribute, value)
	return err
}

// PutSeq is Put returning the context sequence number assigned to the
// write. The LASS→CASS cache uses it to version cache fills.
func (r *Ref) PutSeq(attribute, value string) (uint64, error) {
	c, err := r.live()
	if err != nil {
		return 0, err
	}
	sh := c.sh
	sh.mu.Lock()
	c.seq++
	c.attrs[attribute] = entry{value: value, seq: c.seq}
	u := Update{Context: c.name, Attr: attribute, Value: value, Op: OpPut, Seq: c.seq}
	waiters := c.waiters[attribute]
	delete(c.waiters, attribute)
	c.publish(r, u)
	sh.mu.Unlock()

	for _, w := range waiters {
		w <- u // buffered, never blocks
	}
	return u.Seq, nil
}

// KV is one attribute/value pair in a batched put.
type KV struct {
	Key   string
	Value string
}

// PutBatch stores every pair in order under a single lock acquisition,
// waking blocked Gets and notifying subscribers exactly as the
// equivalent sequence of Puts would (one Update per pair, consecutive
// sequence numbers). It is the engine behind the MPUT wire verb: a
// daemon publishing its startup attributes pays one lock round and one
// wakeup sweep instead of N.
func (r *Ref) PutBatch(pairs []KV) error {
	_, err := r.PutBatchSeq(pairs)
	return err
}

// PutBatchSeq is PutBatch returning the sequence number of the last
// pair's write (pair i received seq last-len+i+1). Zero pairs return
// seq 0.
func (r *Ref) PutBatchSeq(pairs []KV) (uint64, error) {
	if len(pairs) == 0 {
		return 0, nil
	}
	c, err := r.live()
	if err != nil {
		return 0, err
	}
	sh := c.sh
	type wake struct {
		chans []chan Update
		u     Update
	}
	var wakes []wake
	sh.mu.Lock()
	for _, p := range pairs {
		c.seq++
		c.attrs[p.Key] = entry{value: p.Value, seq: c.seq}
		u := Update{Context: c.name, Attr: p.Key, Value: p.Value, Op: OpPut, Seq: c.seq}
		if ws := c.waiters[p.Key]; len(ws) > 0 {
			wakes = append(wakes, wake{chans: ws, u: u})
			delete(c.waiters, p.Key)
		}
		c.publish(r, u)
	}
	last := c.seq
	sh.mu.Unlock()

	for _, w := range wakes {
		for _, ch := range w.chans {
			ch <- w.u // buffered, never blocks
		}
	}
	return last, nil
}

// TryGet returns the current value without blocking. It returns
// ErrNotFound when the attribute is absent.
func (r *Ref) TryGet(attribute string) (string, error) {
	v, _, err := r.TryGetSeq(attribute)
	return v, err
}

// TryGetSeq is TryGet additionally returning the sequence number of
// the write that produced the value.
func (r *Ref) TryGetSeq(attribute string) (string, uint64, error) {
	c, err := r.live()
	if err != nil {
		return "", 0, err
	}
	sh := c.sh
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := c.attrs[attribute]
	if !ok {
		return "", 0, ErrNotFound
	}
	return e.value, e.seq, nil
}

// Get blocks until the attribute is present (or ctx is done) and
// returns its value. This is the paper's blocking tdp_get: paradynd
// blocks on "pid" until the starter puts it.
func (r *Ref) Get(ctx context.Context, attribute string) (string, error) {
	v, _, err := r.GetSeq(ctx, attribute)
	return v, err
}

// GetSeq is Get additionally returning the sequence number of the
// write that produced the value.
func (r *Ref) GetSeq(ctx context.Context, attribute string) (string, uint64, error) {
	c, err := r.live()
	if err != nil {
		return "", 0, err
	}
	sh := c.sh
	// Fast path: present already — shared lock only.
	sh.mu.RLock()
	if e, ok := c.attrs[attribute]; ok {
		sh.mu.RUnlock()
		return e.value, e.seq, nil
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	// Re-check: a Put may have landed between the two locks.
	if e, ok := c.attrs[attribute]; ok {
		sh.mu.Unlock()
		return e.value, e.seq, nil
	}
	wait := make(chan Update, 1)
	c.waiters[attribute] = append(c.waiters[attribute], wait)
	sh.mu.Unlock()

	select {
	case u := <-wait:
		return u.Value, u.Seq, nil
	case <-ctx.Done():
		sh.mu.Lock()
		// Remove our waiter unless Put already consumed it.
		ws := c.waiters[attribute]
		for i, w := range ws {
			if w == wait {
				c.waiters[attribute] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(c.waiters[attribute]) == 0 {
			delete(c.waiters, attribute)
		}
		sh.mu.Unlock()
		// A Put may have raced with cancellation; prefer the value.
		select {
		case u := <-wait:
			return u.Value, u.Seq, nil
		default:
		}
		return "", 0, ctx.Err()
	}
}

// Delete removes an attribute. Deleting an absent attribute is a no-op.
func (r *Ref) Delete(attribute string) error {
	_, err := r.DeleteSeq(attribute)
	return err
}

// DeleteSeq is Delete returning the sequence number assigned to the
// deletion; a no-op delete of an absent attribute returns 0.
func (r *Ref) DeleteSeq(attribute string) (uint64, error) {
	c, err := r.live()
	if err != nil {
		return 0, err
	}
	sh := c.sh
	sh.mu.Lock()
	prev, ok := c.attrs[attribute]
	if !ok {
		sh.mu.Unlock()
		return 0, nil
	}
	c.seq++
	delete(c.attrs, attribute)
	u := Update{Context: c.name, Attr: attribute, Value: prev.value, Op: OpDelete, Seq: c.seq}
	c.publish(r, u)
	sh.mu.Unlock()
	return u.Seq, nil
}

// Snapshot returns a copy of every attribute in the context.
func (r *Ref) Snapshot() (map[string]string, error) {
	c, err := r.live()
	if err != nil {
		return nil, err
	}
	sh := c.sh
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make(map[string]string, len(c.attrs))
	for k, e := range c.attrs {
		out[k] = e.value
	}
	return out, nil
}

// Versioned is a value paired with the seq of the write that produced
// it, as returned by SnapshotSeq.
type Versioned struct {
	Value string
	Seq   uint64
}

// SnapshotSeq returns a copy of every attribute together with the seq
// of the write that produced it, plus the context's current sequence
// number: what a versioned snapshot (SNAP seqs=1) answers.
func (r *Ref) SnapshotSeq() (map[string]Versioned, uint64, error) {
	c, err := r.live()
	if err != nil {
		return nil, 0, err
	}
	sh := c.sh
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make(map[string]Versioned, len(c.attrs))
	for k, e := range c.attrs {
		out[k] = Versioned{Value: e.value, Seq: e.seq}
	}
	return out, c.seq, nil
}

// Len reports the number of attributes in the context.
func (r *Ref) Len() (int, error) {
	c, err := r.live()
	if err != nil {
		return 0, err
	}
	sh := c.sh
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(c.attrs), nil
}

// Leave releases the reference. When the last participant leaves, the
// context is destroyed: attributes are dropped, blocked Gets fail
// closed (their channels are abandoned but their contexts will cancel
// them), and subscribers receive a final OpDestroy update and are
// closed. Leave is idempotent per reference.
func (r *Ref) Leave() error {
	r.mu.Lock()
	c := r.ctx
	r.ctx = nil
	r.mu.Unlock()
	if c == nil {
		return ErrClosed
	}
	sh := c.sh
	sh.mu.Lock()
	c.refs--
	if c.refs > 0 {
		sh.mu.Unlock()
		return nil
	}
	delete(sh.contexts, c.name)
	c.seq++
	u := Update{Context: c.name, Op: OpDestroy, Seq: c.seq}
	for sub := range c.subs {
		sub.enqueue(u)
		sub.finish()
	}
	clear(c.subs)
	clear(c.waiters)
	sh.mu.Unlock()
	return nil
}

// Subscription delivers Updates for a context through a bounded ring
// buffer drained by a dedicated delivery goroutine, so publishers
// never block on (or even perform channel operations for) a slow
// subscriber.
//
// Overflow policy, in order:
//  1. An update whose attribute already has a queued update replaces
//     it in place (coalesce-to-latest — the subscriber still observes
//     the final value of every attribute, though intermediate values
//     and cross-attribute interleaving may be elided; Coalesced
//     counts these).
//  2. Otherwise the oldest queued update is dropped (Lost counts
//     these). A consumer that needs to detect elision — a cache that
//     must invalidate what it missed — watches Lost.
//  3. OpDestroy is never coalesced away or dropped.
//
// The consumer must drain Updates until the channel closes, or call
// Unsubscribe; an abandoned, undrained subscription pins its delivery
// goroutine.
type Subscription struct {
	// Set at registration, under the lock that registered it, and never
	// changed: the subscription's id, the origin a mirror names on its
	// writes (Ref.SetOrigin) so they are not queued for it; the
	// incarnation of the context it was made on; and the context seq it
	// starts after — every later update reaches it or is counted Lost.
	ID, Inc, Seq uint64

	ch   chan Update
	wake chan struct{} // cap 1: "queue non-empty or done changed"
	stop chan struct{} // closed by Unsubscribe: abort delivery

	mu       sync.Mutex
	queue    []Update
	idx      map[string]int // attr -> absolute index of newest queued update
	base     int            // absolute index of queue[0]
	limit    int
	done     bool // no further enqueues; delivery closes ch once drained
	lost     uint64
	coal     uint64
	stopOnce sync.Once
}

// Updates returns the channel on which updates arrive. The channel is
// closed when the subscription is cancelled or the context destroyed.
func (s *Subscription) Updates() <-chan Update { return s.ch }

// Depth reports the number of updates currently queued (excluding any
// buffered in the delivery channel).
func (s *Subscription) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Lost reports the cumulative count of updates dropped on ring
// overflow (coalesced updates are not lost; see Coalesced).
func (s *Subscription) Lost() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lost
}

// Coalesced reports the cumulative count of updates that replaced an
// older queued update for the same attribute on ring overflow.
func (s *Subscription) Coalesced() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coal
}

// enqueue adds an update to the ring. Called with the owning shard's
// lock held, so it must stay O(1) and non-blocking.
func (s *Subscription) enqueue(u Update) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	if len(s.queue) >= s.limit && u.Op != OpDestroy {
		// Coalesce to latest for the same attribute.
		if abs, ok := s.idx[u.Attr]; ok && abs >= s.base {
			if q := &s.queue[abs-s.base]; q.Op != OpDestroy {
				*q = u
				s.coal++
				s.mu.Unlock()
				s.signal()
				return
			}
		}
		// Nothing to coalesce: drop the oldest non-destroy update.
		for i := range s.queue {
			if s.queue[i].Op != OpDestroy {
				if s.idx[s.queue[i].Attr] == s.base+i {
					delete(s.idx, s.queue[i].Attr)
				}
				copy(s.queue[i:], s.queue[i+1:])
				s.queue = s.queue[:len(s.queue)-1]
				s.lost++
				break
			}
		}
		// Indexes after the removed slot shifted down by one; rather
		// than rewrite the map (O(n)), rebase: entries are validated
		// against the queue on use, so a slightly stale index only
		// costs a missed coalesce, never a wrong one — except that a
		// stale index could now point at a different attr's slot.
		// Rebuild to stay exact; the ring is small and overflow is the
		// rare path.
		for i := range s.queue {
			s.idx[s.queue[i].Attr] = s.base + i
		}
	}
	s.queue = append(s.queue, u)
	if u.Op != OpDestroy {
		s.idx[u.Attr] = s.base + len(s.queue) - 1
	}
	s.mu.Unlock()
	s.signal()
}

func (s *Subscription) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// finish marks the subscription complete: no more enqueues; the
// delivery goroutine closes the channel once the ring drains.
func (s *Subscription) finish() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	s.signal()
}

// run is the delivery goroutine: it drains the ring in batches onto
// the subscriber channel and closes the channel on completion.
func (s *Subscription) run() {
	var batch []Update
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			done := s.done
			s.mu.Unlock()
			if done {
				close(s.ch)
				return
			}
			select {
			case <-s.wake:
				continue
			case <-s.stop:
				close(s.ch)
				return
			}
		}
		// Swap the queue out; publishers keep appending to a fresh one.
		batch, s.queue = s.queue, batch[:0]
		s.base += len(batch)
		clear(s.idx)
		s.mu.Unlock()
		for i := range batch {
			select {
			case s.ch <- batch[i]:
			case <-s.stop:
				close(s.ch)
				return
			}
		}
	}
}

// Subscribe registers for all subsequent updates in the context. The
// buffer argument sizes both the ring buffer and the delivery channel
// (minimum 1); size it for the expected burst — on overflow the ring
// coalesces per attribute and then drops oldest (see Subscription).
func (r *Ref) Subscribe(buffer int) (*Subscription, error) {
	c, err := r.live()
	if err != nil {
		return nil, err
	}
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{
		ID:    r.space.mint(),
		ch:    make(chan Update, buffer),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		idx:   make(map[string]int),
		limit: buffer,
	}
	sh := c.sh
	sh.mu.Lock()
	if r.isClosed() || c.refs == 0 {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	sub.Inc, sub.Seq = c.inc, c.seq
	c.subs[sub] = struct{}{}
	sh.mu.Unlock()
	go sub.run()
	return sub, nil
}

func (r *Ref) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctx == nil
}

// Unsubscribe cancels a subscription and closes its channel. Updates
// still queued at cancellation are discarded.
func (r *Ref) Unsubscribe(sub *Subscription) {
	r.mu.Lock()
	c := r.ctx
	r.mu.Unlock()
	if c != nil {
		sh := c.sh
		sh.mu.Lock()
		delete(c.subs, sub)
		sh.mu.Unlock()
	}
	sub.mu.Lock()
	sub.done = true
	sub.mu.Unlock()
	sub.stopOnce.Do(func() { close(sub.stop) })
}
