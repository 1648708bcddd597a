package scenario

import (
	"fmt"
	"net"
	"sync"

	"tdp/internal/paradyn"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// Fleet is a pool of simulated tool daemons: the cheapest thing that
// speaks the daemon half of the tool protocol (REGISTER, STATS →
// STATSV, DONE) at 10k+ instances. Each daemon is a registry and a wire
// connection from its own simulated host into a reduction-tree leaf,
// with one goroutine answering the leaf's polls from the registry. The
// sink at the top of the plane never sends RUN, so nothing else ever
// arrives, and a bounded worker pool (ForAll) drives the whole fleet.
type Fleet struct {
	size  int
	leafs []string
	dial  func(i int, addr string) (net.Conn, error)
	regs  []*telemetry.Registry

	mu    sync.Mutex
	conns []*wire.Conn
}

// NewFleet prepares (but does not connect) a fleet of size daemons;
// daemon i dials leafs[i%len(leafs)] via dial.
func NewFleet(size int, leafs []string, dial func(i int, addr string) (net.Conn, error)) *Fleet {
	regs := make([]*telemetry.Registry, size)
	for i := range regs {
		regs[i] = telemetry.NewRegistry()
	}
	return &Fleet{size: size, leafs: leafs, dial: dial, regs: regs, conns: make([]*wire.Conn, size)}
}

// Size returns the fleet size.
func (f *Fleet) Size() int { return f.size }

// Name returns daemon i's registered name.
func (f *Fleet) Name(i int) string { return fmt.Sprintf("d%05d", i) }

func (f *Fleet) conn(i int) *wire.Conn {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.conns[i]
}

func (f *Fleet) setConn(i int, c *wire.Conn) {
	f.mu.Lock()
	old := f.conns[i]
	f.conns[i] = c
	f.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// register dials daemon i's leaf and sends REGISTER; resume marks a
// reconnect after Kill, which replaces the dead registration instead
// of tripping the duplicate check.
func (f *Fleet) register(i int, resume bool) error {
	raw, err := f.dial(i, f.leafs[i%len(f.leafs)])
	if err != nil {
		return fmt.Errorf("%s: dial: %w", f.Name(i), err)
	}
	wc := wire.NewConn(raw)
	m := wire.NewMessage("REGISTER").
		Set("daemon", f.Name(i)).
		Set("host", hostName(i)).
		SetInt("pid", i+1)
	if resume {
		m.Set("resume", "1")
	}
	if err := wc.Send(m); err != nil {
		wc.Close()
		return fmt.Errorf("%s: register: %w", f.Name(i), err)
	}
	f.setConn(i, wc)
	go f.serve(i, wc)
	return nil
}

// serve answers the leaf's polls on wc from daemon i's registry until
// the connection closes.
func (f *Fleet) serve(i int, wc *wire.Conn) {
	m := new(wire.Message)
	for wc.RecvInto(m) == nil {
		if m.Verb == "STATS" {
			wc.Send(paradyn.StatsReply(m, f.Name(i), f.regs[i].Snapshot()))
		}
	}
}

// Register connects and registers daemon i for the first time.
func (f *Fleet) Register(i int) error { return f.register(i, false) }

// Resume reconnects daemon i after a Kill, resume-replacing its
// registration at the leaf.
func (f *Fleet) Resume(i int) error { return f.register(i, true) }

// Kill abruptly closes daemon i's connection — the leaf sees the child
// die, retires its snapshot, and publishes a synthetic host_down. The
// daemon's registry survives for a Resume.
func (f *Fleet) Kill(i int) {
	f.setConn(i, nil)
}

// SetCounter sets daemon i's cumulative counter to value; the next poll
// that reaches the daemon reads it.
func (f *Fleet) SetCounter(i int, name string, value int64) {
	c := f.regs[i].Counter(name)
	c.Add(value - c.Value())
}

// ObserveHist merges h's observations into daemon i's histogram.
func (f *Fleet) ObserveHist(i int, name string, h telemetry.HistogramSnapshot) {
	f.regs[i].Histogram(name, h.Bounds).Merge(h)
}

// Done reports daemon i's exit status with its final snapshot, the
// polite way (DONE then EOF, so the leaf counts it toward aggregate
// completion instead of a host_down).
func (f *Fleet) Done(i int, status int) error {
	wc := f.conn(i)
	if wc == nil {
		return fmt.Errorf("%s: not registered", f.Name(i))
	}
	m := paradyn.WithSnapshot(wire.NewMessage("DONE").SetInt("status", status), f.regs[i].Snapshot())
	if err := wc.Send(m); err != nil {
		return fmt.Errorf("%s: done: %w", f.Name(i), err)
	}
	return nil
}

// CloseAll drops every live connection.
func (f *Fleet) CloseAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, c := range f.conns {
		if c != nil {
			c.Close()
			f.conns[i] = nil
		}
	}
}

// ForAll runs fn(i) for every daemon index on a bounded worker pool
// (workers ≤ 0 means 128) and returns the first error with a count of
// how many failed.
func (f *Fleet) ForAll(workers int, fn func(i int) error) error {
	return ForEach(f.size, workers, fn)
}

// ForEach is ForAll for an arbitrary index range — phases use it to
// drive per-job or per-shard work with the same bounded-parallelism
// policy as the fleet.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = 128
	}
	if workers > n {
		workers = n
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
		failed int
	)
	idx := make(chan int, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if first != nil {
		return fmt.Errorf("%d/%d failed, first: %w", failed, n, first)
	}
	return nil
}
