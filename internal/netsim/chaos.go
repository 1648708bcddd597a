// Chaos: deterministic fault injection layered over any net.Conn
// dialer. The attrspace chaos suite drives clients through mid-frame
// cuts, latency spikes and killed shm rings, and the router's
// reconnecting Session through refuse-then-accept daemons — all
// seeded, so a failing run replays byte-for-byte.
package netsim

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrChaosCut is returned by a write that the fault injector cut
// mid-frame; the connection is closed underneath it.
var ErrChaosCut = fmt.Errorf("netsim: chaos cut connection")

// ErrChaosRefused is returned by a dial while the injector is
// partitioned or consuming a RefuseNext budget.
var ErrChaosRefused = fmt.Errorf("netsim: chaos refused dial")

// ChaosConfig tunes the fault injector. The zero value injects
// nothing; faults switch on per knob.
type ChaosConfig struct {
	// Seed fixes the RNG so every run injects the same faults at the
	// same byte offsets. 0 seeds from the clock (non-deterministic).
	Seed int64
	// CutAfterBytes, when > 0, gives each connection a write budget
	// drawn from [CutAfterBytes/2, CutAfterBytes*3/2]; the write that
	// exhausts it is truncated mid-frame and the connection closed —
	// the classic torn-frame kill.
	CutAfterBytes int
	// LatencyEvery, when > 0, makes every Nth write on a connection
	// stall for Latency first — a transient slow-drip rather than a
	// failure.
	LatencyEvery int
	Latency      time.Duration
}

// ChaosStats counts what the injector actually did.
type ChaosStats struct {
	Dials   int // dials passed through (faulty conn handed out)
	Refused int // dials rejected (partition or RefuseNext budget)
	Cuts    int // connections killed mid-frame by the byte budget or CutAll
	Spikes  int // writes delayed by a latency spike
}

// Chaos wraps a DialFunc with seeded fault injection. One Chaos is
// shared by every connection it dials, so Partition/Heal/CutAll act on
// the whole client at once — the shape of a daemon crash as seen from
// its clients.
type Chaos struct {
	cfg ChaosConfig

	mu          sync.Mutex
	rng         *rand.Rand
	partitioned bool
	refuse      int
	conns       map[*chaosConn]struct{}
	stats       ChaosStats
}

// NewChaos returns an injector with the given configuration.
func NewChaos(cfg ChaosConfig) *Chaos {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Chaos{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		conns: make(map[*chaosConn]struct{}),
	}
}

// Dial wraps inner with this injector: refused while partitioned (or a
// RefuseNext budget remains), otherwise the dialed connection carries
// the injector's byte budget and latency schedule.
func (c *Chaos) Dial(inner func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c.mu.Lock()
		if c.partitioned || c.refuse > 0 {
			if c.refuse > 0 {
				c.refuse--
			}
			c.stats.Refused++
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrChaosRefused, addr)
		}
		budget := -1
		if c.cfg.CutAfterBytes > 0 {
			budget = c.cfg.CutAfterBytes/2 + c.rng.Intn(c.cfg.CutAfterBytes+1)
		}
		c.stats.Dials++
		c.mu.Unlock()
		raw, err := inner(addr)
		if err != nil {
			return nil, err
		}
		cc := &chaosConn{Conn: raw, ch: c, budget: budget}
		c.mu.Lock()
		c.conns[cc] = struct{}{}
		c.mu.Unlock()
		return cc, nil
	}
}

// Partition severs the client from the network: every live connection
// is cut and every dial refused until Heal.
func (c *Chaos) Partition() {
	c.mu.Lock()
	c.partitioned = true
	c.mu.Unlock()
	c.CutAll()
}

// Heal ends a partition; subsequent dials pass through again.
func (c *Chaos) Heal() {
	c.mu.Lock()
	c.partitioned = false
	c.mu.Unlock()
}

// RefuseNext makes the next n dials fail — the window between a daemon
// dying and its replacement binding the port.
func (c *Chaos) RefuseNext(n int) {
	c.mu.Lock()
	c.refuse += n
	c.mu.Unlock()
}

// CutAll closes every live connection this injector handed out — a
// daemon kill as the clients experience it.
func (c *Chaos) CutAll() {
	c.mu.Lock()
	conns := make([]*chaosConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	c.conns = make(map[*chaosConn]struct{})
	c.stats.Cuts += len(conns)
	c.mu.Unlock()
	for _, cc := range conns {
		cc.Conn.Close()
	}
}

// Stats returns a snapshot of the injector's activity so far.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// drop unregisters a connection the injector (or its user) closed.
func (c *Chaos) drop(cc *chaosConn) {
	c.mu.Lock()
	delete(c.conns, cc)
	c.mu.Unlock()
}

// chaosConn is one faulty connection: writes burn the byte budget and
// the one that exhausts it leaves the wire truncated mid-frame.
type chaosConn struct {
	net.Conn
	ch *Chaos

	mu     sync.Mutex
	budget int // bytes until the cut; -1 = never
	writes int
	dead   bool
}

func (cc *chaosConn) Write(p []byte) (int, error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return 0, ErrChaosCut
	}
	cc.writes++
	spike := cc.ch.cfg.LatencyEvery > 0 && cc.writes%cc.ch.cfg.LatencyEvery == 0
	cut := cc.budget >= 0 && len(p) >= cc.budget
	var keep int
	if cut {
		keep = cc.budget
		cc.dead = true
	} else if cc.budget >= 0 {
		cc.budget -= len(p)
	}
	cc.mu.Unlock()

	if spike {
		cc.ch.mu.Lock()
		cc.ch.stats.Spikes++
		cc.ch.mu.Unlock()
		time.Sleep(cc.ch.cfg.Latency)
	}
	if !cut {
		return cc.Conn.Write(p)
	}
	// Torn frame: emit a strict prefix of the caller's buffer, then
	// kill the transport. The peer decodes a truncated length-prefixed
	// frame followed by EOF — exactly a daemon dying mid-reply.
	n := 0
	if keep > 0 {
		n, _ = cc.Conn.Write(p[:keep])
	}
	cc.Conn.Close()
	cc.ch.drop(cc)
	cc.ch.mu.Lock()
	cc.ch.stats.Cuts++
	cc.ch.mu.Unlock()
	return n, ErrChaosCut
}

func (cc *chaosConn) Close() error {
	cc.ch.drop(cc)
	return cc.Conn.Close()
}

// SameHost delegates to the wrapped connection so the shared-memory
// transport can still engage (and then be chaos-killed) through the
// injector. Struct embedding does not promote methods through the
// net.Conn interface, so the probe is explicit.
func (cc *chaosConn) SameHost() bool {
	if sh, ok := cc.Conn.(interface{ SameHost() bool }); ok {
		return sh.SameHost()
	}
	return false
}

// RefuseListener wraps l so the first n accepted connections are
// closed immediately — a daemon that is up but resetting clients
// (mid-restart, backlogged, or crashing on accept) before it settles.
func RefuseListener(l net.Listener, n int) net.Listener {
	return &refuseListener{Listener: l, left: n}
}

type refuseListener struct {
	net.Listener
	mu   sync.Mutex
	left int
}

func (rl *refuseListener) Accept() (net.Conn, error) {
	for {
		c, err := rl.Listener.Accept()
		if err != nil {
			return nil, err
		}
		rl.mu.Lock()
		refuse := rl.left > 0
		if refuse {
			rl.left--
		}
		rl.mu.Unlock()
		if !refuse {
			return c, nil
		}
		c.Close()
	}
}
