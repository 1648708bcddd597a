// Package faults implements fault detection for the three entity
// kinds a resource manager launches under TDP — the application
// process (AP), the run-time tool (RT), and auxiliary services (AS)
// such as attribute space servers or multicast networks. The paper
// lists this as a required interface ("the RM must be able to detect
// these failures, respond to them, and perhaps communicate their
// occurrence to the other entities") while deferring the full fault
// model to future work; this package supplies a working version of
// that future work for the reproduction's experiments.
//
// A Supervisor watches processes through kernel events and services
// through periodic pings. Unexpected terminations and failed pings
// become Fault records, delivered on a channel and optionally
// published into the attribute space so surviving entities learn of
// the failure through the normal TDP notification path.
package faults

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/liveness"
	"tdp/internal/procsim"
)

// Role classifies the failed entity, following the paper's AP/RT/AS
// taxonomy.
type Role int

const (
	// RoleApplication is the job process itself.
	RoleApplication Role = iota
	// RoleTool is a run-time tool daemon.
	RoleTool
	// RoleAux is an auxiliary service (attribute server, multicast net).
	RoleAux
)

// String names the role as in the paper.
func (r Role) String() string {
	switch r {
	case RoleApplication:
		return "AP"
	case RoleTool:
		return "RT"
	case RoleAux:
		return "AS"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Fault describes one detected failure.
type Fault struct {
	Role   Role
	PID    procsim.PID // zero for services
	Name   string      // service name or executable
	Status procsim.ExitStatus
	Err    error // ping error for services
	When   time.Time
}

// String renders "AP pid=1000 killed(SIGKILL)" style records.
func (f Fault) String() string {
	if f.Role == RoleAux {
		return fmt.Sprintf("%s %s: %v", f.Role, f.Name, f.Err)
	}
	if f.Err != nil {
		return fmt.Sprintf("%s %s pid=%d: %v", f.Role, f.Name, f.PID, f.Err)
	}
	return fmt.Sprintf("%s %s pid=%d %s", f.Role, f.Name, f.PID, f.Status)
}

// ExpectCleanExit is the default fault predicate: anything but a
// signal-free zero exit is a fault.
func ExpectCleanExit(st procsim.ExitStatus) bool {
	return !st.Signaled() && st.Code == 0
}

// Supervisor detects faults in watched processes and services.
type Supervisor struct {
	kernel *procsim.Kernel
	sub    *procsim.EventSub
	faults chan Fault
	clock  liveness.Clock // service probes' time source; tests substitute a fake

	mu      sync.Mutex
	watched map[procsim.PID]watchEntry
	closed  bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
	history []Fault
}

type watchEntry struct {
	role     Role
	name     string
	expected func(procsim.ExitStatus) bool
}

// NewSupervisor starts fault detection on the kernel.
func NewSupervisor(k *procsim.Kernel) *Supervisor {
	s := &Supervisor{
		kernel:  k,
		sub:     k.Subscribe(),
		faults:  make(chan Fault, 64),
		clock:   liveness.System,
		watched: make(map[procsim.PID]watchEntry),
		stopCh:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *Supervisor) loop() {
	defer s.wg.Done()
	for {
		e, ok := s.sub.Next()
		if !ok {
			return
		}
		if e.Kind != procsim.EventExited {
			continue
		}
		s.mu.Lock()
		w, ok := s.watched[e.PID]
		if ok {
			delete(s.watched, e.PID)
		}
		s.mu.Unlock()
		if !ok {
			continue
		}
		if w.expected(e.Status) {
			continue
		}
		s.report(Fault{Role: w.role, PID: e.PID, Name: w.name, Status: e.Status, When: time.Now()})
	}
}

func (s *Supervisor) report(f Fault) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.history = append(s.history, f)
	s.mu.Unlock()
	select {
	case s.faults <- f:
	default:
		// Bounded channel: the history still records the fault.
	}
}

// Watch registers a process for fault detection. expected classifies
// exit statuses as normal (true) or faulty (false); nil means
// ExpectCleanExit.
func (s *Supervisor) Watch(role Role, pid procsim.PID, name string, expected func(procsim.ExitStatus) bool) {
	if expected == nil {
		expected = ExpectCleanExit
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watched[pid] = watchEntry{role: role, name: name, expected: expected}
}

// Unwatch removes a process (e.g. when the RM reaps it deliberately).
func (s *Supervisor) Unwatch(pid procsim.PID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.watched, pid)
}

// DefaultPingTimeout bounds one service probe when WatchService is given
// no timeout. Hung daemons — accepting connections but never replying —
// are indistinguishable from healthy ones without a bound.
const DefaultPingTimeout = 2 * time.Second

// WatchService probes an auxiliary service every interval, each probe
// bounded by timeout (<= 0 means DefaultPingTimeout); the first failed
// or unanswered probe reports a fault and stops the watch (re-watch
// after recovery).
func (s *Supervisor) WatchService(name string, interval, timeout time.Duration, probe func(context.Context) error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	if timeout <= 0 {
		timeout = DefaultPingTimeout
	}
	clk := s.clock
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := liveness.Watch(clk, s.stopCh, interval, timeout, probe); err != nil {
			s.report(Fault{Role: RoleAux, Name: name, Err: err, When: clk.Now()})
		}
	}()
}

// WatchLiveness detects hangs: a process that is nominally running but
// whose safe-point progress counter has not advanced for staleAfter is
// reported as a fault (it can be neither stopped nor exited — those
// are legitimate quiescent states). Detection stops after the first
// report or when the process exits.
func (s *Supervisor) WatchLiveness(pid procsim.PID, name string, interval, staleAfter time.Duration) error {
	p, err := s.kernel.Process(pid)
	if err != nil {
		return err
	}
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		last := p.Progress()
		lastChange := time.Now()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-ticker.C:
				switch p.State() {
				case procsim.StateExited:
					return
				case procsim.StateStopped, procsim.StateCreated:
					lastChange = time.Now() // paused on purpose; not a hang
					continue
				}
				cur := p.Progress()
				if cur != last {
					last = cur
					lastChange = time.Now()
					continue
				}
				if time.Since(lastChange) >= staleAfter {
					s.report(Fault{
						Role: RoleApplication, PID: pid, Name: name,
						Err:  fmt.Errorf("faults: no progress for %v (hung)", staleAfter),
						When: time.Now(),
					})
					return
				}
			}
		}
	}()
	return nil
}

// Faults returns the fault delivery channel.
func (s *Supervisor) Faults() <-chan Fault { return s.faults }

// History returns all faults detected so far.
func (s *Supervisor) History() []Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Fault, len(s.history))
	copy(out, s.history)
	return out
}

// PublishTo mirrors every subsequent fault into the attribute space as
// attribute "fault" = "<role> <name> ..." so other TDP entities learn
// of it through the ordinary notification path. Call once; runs until
// Close.
func (s *Supervisor) PublishTo(h *tdp.Handle) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.stopCh:
				return
			case f, ok := <-s.faults:
				if !ok {
					return
				}
				h.Put("fault", f.String())
			}
		}
	}()
}

// Close stops detection.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	s.kernel.Cancel(s.sub)
	s.wg.Wait()
}

// PingAttrSpace returns a WatchService probe for an attribute space
// server: one attrspace.Probe (dial, PING, close) per call.
func PingAttrSpace(dial attrspace.DialFunc, addr string) func(context.Context) error {
	return func(ctx context.Context) error { return attrspace.Probe(ctx, dial, addr) }
}
