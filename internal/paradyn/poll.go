package paradyn

import (
	"encoding/json"
	"sync"
	"time"

	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// This file is the pull half of the tool protocol: how a parent (the
// front-end, or an mrnet node standing in for one) asks a registrant for
// its telemetry, and how the registrant answers.
//
//	parent → child:  STATS  scope=tree [_tid= _sid=]
//	child → parent:  STATSV daemon= json=<telemetry.Snapshot>
//	child → parent:  DONE   status= json=<final telemetry.Snapshot>
//
// A snapshot is the registrant's whole registry, so the parent keeps the
// last one per registrant and merges them (telemetry.MergeSnapshots):
// a repeated or late reply replaces, never adds. Nothing flows while
// nobody asks.

// PollWait bounds a poll per level of the tree under the poller: a
// parent whose deepest child reports depth d waits PollWait × (d+1)
// for the replies, so a child node that is itself waiting out a hung
// daemon still answers before its parent gives up on it. A child that
// misses the bound is answered from its last reply. A live daemon
// answers in microseconds; the bound is sized for the slowest honest
// poll measured here — 10,240 simulated daemons on one 2-vCPU box under
// the race detector, where one full poll takes up to 2.6 s (EXPERIMENTS
// E38).
const PollWait = 5 * time.Second

// Peer is the poll state a parent keeps for one registrant: its last
// snapshot, its reported tree depth, and the reply an outstanding STATS
// awaits.
type Peer struct {
	mu    sync.Mutex
	last  telemetry.Snapshot
	depth int64
	wait  chan struct{} // non-nil while a STATS is outstanding; closed by its reply
}

// NewPeer starts a registrant's poll state from its REGISTER, whose
// depth= an mrnet node sets to its subtree depth. A re-registration
// passes the entry it replaces and starts from that entry's last
// snapshot, so a resumed registrant is not counted twice and its
// counters do not dip before its first reply.
func NewPeer(reg *wire.Message, old *Peer) *Peer {
	p := &Peer{depth: int64(reg.Int("depth", 0))}
	if old != nil {
		p.last = old.Last()
	}
	return p
}

// Ask sends STATS scope=tree on c unless one is already outstanding,
// and returns the channel its reply closes. The send runs on its own
// goroutine, so a registrant that has stopped reading stalls nobody.
func (p *Peer) Ask(c *wire.Conn, tid, sid string) <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wait != nil {
		return p.wait
	}
	ch := make(chan struct{})
	p.wait = ch
	m := wire.NewMessage("STATS").Set("scope", "tree")
	if tid != "" {
		m.SetTrace(tid, sid)
	}
	go func() {
		if c.Send(m) != nil {
			p.Drop()
		}
	}()
	return ch
}

// Answer takes a STATSV reply or a DONE: its json= snapshot, when
// present, becomes the registrant's last, and a waiting poll is
// released.
func (p *Peer) Answer(m *wire.Message) {
	snap, err := telemetry.ParseSnapshot([]byte(m.Get("json")))
	p.mu.Lock()
	if err == nil {
		p.last = snap
		if d, ok := snap.Gauges[TreeDepth]; ok {
			p.depth = d
		}
	}
	p.release()
	p.mu.Unlock()
}

// Drop releases a waiting poll without a reply: the registrant's
// connection is gone.
func (p *Peer) Drop() {
	p.mu.Lock()
	p.release()
	p.mu.Unlock()
}

func (p *Peer) release() {
	if p.wait != nil {
		close(p.wait)
		p.wait = nil
	}
}

// Retire keeps what a registrant that died before DONE had counted:
// its counters and histograms stay in every later merge, while its
// gauges (levels of a host that is gone) and its subtree's live daemon
// count drop out.
func (p *Peer) Retire() {
	p.mu.Lock()
	defer p.mu.Unlock()
	counters := make(map[string]int64, len(p.last.Counters))
	for k, v := range p.last.Counters {
		if k != TreeDaemons {
			counters[k] = v
		}
	}
	p.last = telemetry.Snapshot{Counters: counters, Histograms: p.last.Histograms}
	p.depth = 0
}

// Last returns the registrant's last snapshot. It is replaced, never
// modified, so the caller may read it without a lock.
func (p *Peer) Last() telemetry.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// Depth returns the registrant's tree depth: 0 for a daemon, the
// subtree depth an mrnet node last reported.
func (p *Peer) Depth() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.depth
}

// The topology metrics an mrnet node adds to its rollup: the live
// daemons under it (a counter, so the root's is the pool's) and its
// depth (a gauge, so the root's is the tree's).
const (
	TreeDaemons = "mrnet.tree.daemons"
	TreeDepth   = "mrnet.tree.depth"
)

// Await waits for every reply in waits, all within one bound, and
// returns how many had not arrived by then.
func Await(waits []<-chan struct{}, bound time.Duration) (stale int) {
	t := time.NewTimer(bound)
	defer t.Stop()
	expired := false
	for _, w := range waits {
		if !expired {
			select {
			case <-w:
				continue
			case <-t.C:
				expired = true
			}
		}
		select {
		case <-w:
		default:
			stale++
		}
	}
	return stale
}

// WithSnapshot sets m's json= to snap, the encoding of STATSV and DONE.
// A snapshot that does not encode (a NaN histogram sum) is left out, and
// the parent keeps the registrant's previous one.
func WithSnapshot(m *wire.Message, snap telemetry.Snapshot) *wire.Message {
	if data, err := json.Marshal(snap); err == nil {
		m.Set("json", string(data))
	}
	return m
}

// StatsReply is daemon's STATSV answer to the STATS req: snap, with
// req's id echoed.
func StatsReply(req *wire.Message, daemon string, snap telemetry.Snapshot) *wire.Message {
	m := wire.NewMessage("STATSV").Set("daemon", daemon)
	if id := req.Get("id"); id != "" {
		m.Set("id", id)
	}
	return WithSnapshot(m, snap)
}
