package procsim

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Process is one simulated process. All exported methods are safe for
// concurrent use.
type Process struct {
	kernel *Kernel
	pid    PID
	spec   Spec

	subs []*EventSub // this process's subscribers; guarded by kernel.mu, see Kernel.subs

	mu     sync.Mutex
	cond   sync.Cond // on mu
	state  State
	parked bool // program goroutine is blocked at a safe point
	killed bool
	sig    string
	tracer string // attached tool identity, "" when untraced

	status    ExitStatus
	exited    chan struct{} // closed by exit, once status and routing are recorded
	toTracer  bool          // routing delivered the status to the tracer
	parentErr error         // ErrStatusStolen when routing starved the parent

	checkpoint    string // latest program-saved checkpoint
	hasCheckpoint bool
	progress      uint64 // safe-point counter, for liveness detection

	cpu atomic.Int64 // simulated CPU time in µs: Compute adds one per unit

	probes  map[string][]*probeEntry // copy-on-write: a list is never changed in place
	probeID int

	symbols map[string]bool
}

type probeEntry struct {
	id      int
	owner   string
	point   string
	onEntry func(*ProcContext)
	onExit  func(*ProcContext)
}

func newProcess(k *Kernel, pid PID, spec Spec) *Process {
	p := &Process{
		kernel:  k,
		pid:     pid,
		spec:    spec,
		state:   StateCreated,
		parked:  true, // pre-main park
		exited:  make(chan struct{}),
		probes:  make(map[string][]*probeEntry),
		symbols: make(map[string]bool, len(spec.Symbols)),
	}
	for _, s := range spec.Symbols {
		p.symbols[s] = true
	}
	p.cond.L = &p.mu
	return p
}

// PID returns the process identifier.
func (p *Process) PID() PID { return p.pid }

// Executable returns the program name from the spec.
func (p *Process) Executable() string { return p.spec.Executable }

// Args returns a copy of the argv.
func (p *Process) Args() []string {
	out := make([]string, len(p.spec.Args))
	copy(out, p.spec.Args)
	return out
}

// State returns the current run state.
func (p *Process) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Tracer returns the attached tracer identity, or "".
func (p *Process) Tracer() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tracer
}

// Symbols returns the function names visible to tools, sorted. This is
// the simulator's stand-in for parsing the executable's symbol table.
func (p *Process) Symbols() []string {
	out := make([]string, 0, len(p.symbols))
	for s := range p.symbols {
		out = append(out, s)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// run is the program goroutine.
func (p *Process) run() {
	ctx := &ProcContext{proc: p}
	// Pre-main park: wait in StateCreated until continued or killed.
	p.mu.Lock()
	for p.state == StateCreated && !p.killed {
		p.cond.Wait()
	}
	if p.killed {
		sig := p.sig
		p.mu.Unlock()
		p.exit(ExitStatus{Signal: sig})
		return
	}
	p.parked = false
	p.mu.Unlock()

	code := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); ok {
					code = -1
					return
				}
				panic(r) // real bug in a program: surface it
			}
		}()
		code = p.spec.Program.Run(ctx)
	}()

	p.mu.Lock()
	killed, sig := p.killed, p.sig
	p.mu.Unlock()
	if killed {
		p.exit(ExitStatus{Signal: sig})
	} else {
		p.exit(ExitStatus{Code: code})
	}
}

// exit records termination and routes the status per the kernel's
// StatusRouting (§2.3).
func (p *Process) exit(status ExitStatus) {
	k := p.kernel
	k.mu.Lock()
	routing := k.routing
	k.mu.Unlock()

	p.mu.Lock()
	if p.state == StateExited {
		p.mu.Unlock()
		return
	}
	p.state = StateExited
	p.parked = true
	p.status = status
	traced := p.tracer != ""
	p.toTracer = traced && (routing == RouteTracer || routing == RouteBoth)
	if traced && routing == RouteTracer {
		p.parentErr = ErrStatusStolen
	}
	close(p.exited)
	p.cond.Broadcast()
	p.mu.Unlock()

	k.publish(p, Event{Kind: EventExited, PID: p.pid, Status: status})
}

// Continue moves a created or stopped process to running. The tracer
// argument must match the attached tracer when one is attached (only
// the controlling entity may resume a traced process); pass "" from
// the process owner when untraced. This is tdp_continue_process.
func (p *Process) Continue(tracer string) error {
	p.mu.Lock()
	if p.state == StateExited {
		p.mu.Unlock()
		return fmt.Errorf("%w: process exited", ErrBadState)
	}
	if p.state == StateRunning {
		p.mu.Unlock()
		return nil
	}
	if p.tracer != "" && tracer != p.tracer {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q attached", ErrNotTracer, p.tracer)
	}
	p.state = StateRunning
	p.cond.Broadcast()
	p.mu.Unlock()
	p.kernel.publish(p, Event{Kind: EventContinued, PID: p.pid})
	return nil
}

// Stop pauses a running process at its next safe point and returns
// once it has actually parked (the park itself publishes the
// EventStopped notification). Stopping a created or stopped process
// is a no-op.
func (p *Process) Stop(tracer string) error {
	p.mu.Lock()
	switch p.state {
	case StateExited:
		p.mu.Unlock()
		return fmt.Errorf("%w: process exited", ErrBadState)
	case StateCreated, StateStopped:
		p.mu.Unlock()
		return nil
	}
	if p.tracer != "" && tracer != p.tracer {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q attached", ErrNotTracer, p.tracer)
	}
	p.state = StateStopped
	for !p.parked && p.state == StateStopped {
		p.cond.Wait()
	}
	p.mu.Unlock()
	return nil
}

// RequestStop asks the process to pause at its next safe point without
// waiting for the park. Unlike Stop, it is safe to call from a probe
// running on the process's own goroutine — the mechanism behind
// debugger breakpoints: the breakpoint probe requests the stop, and
// the process parks before executing past the instrumentation point.
func (p *Process) RequestStop(tracer string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.state {
	case StateExited:
		return fmt.Errorf("%w: process exited", ErrBadState)
	case StateCreated, StateStopped:
		return nil
	}
	if p.tracer != "" && tracer != p.tracer {
		return fmt.Errorf("%w: %q attached", ErrNotTracer, p.tracer)
	}
	p.state = StateStopped
	return nil
}

// WaitStopped blocks until the process is parked in a quiescent state
// (stopped, created, or exited). Unlike a bare park check, it does not
// return while the program is merely between safe points in the
// running state.
func (p *Process) WaitStopped() {
	p.mu.Lock()
	for !(p.parked && p.state != StateRunning) {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Attach makes tracer the controlling tool of this process, pausing it
// if running — the paper's attach sequence: obtain control, pause
// (§2.2 case 3). Attaching to a created (exec-paused) process simply
// takes control without changing state (case 2).
func (p *Process) Attach(tracer string) error {
	if tracer == "" {
		return fmt.Errorf("procsim: empty tracer identity")
	}
	p.mu.Lock()
	if p.state == StateExited {
		p.mu.Unlock()
		return fmt.Errorf("%w: process exited", ErrBadState)
	}
	if p.tracer != "" {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrAlreadyTraced, p.tracer)
	}
	p.tracer = tracer
	if p.state == StateRunning {
		p.state = StateStopped
		for !p.parked && p.state == StateStopped {
			p.cond.Wait()
		}
	}
	p.mu.Unlock()
	p.kernel.publish(p, Event{Kind: EventAttached, PID: p.pid, Tracer: tracer})
	return nil
}

// Detach releases the tracer. The process stays in its current state;
// detach with the process running or stopped as desired first.
func (p *Process) Detach(tracer string) error {
	p.mu.Lock()
	if p.tracer == "" {
		p.mu.Unlock()
		return ErrNotAttached
	}
	if p.tracer != tracer {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q attached", ErrNotTracer, p.tracer)
	}
	p.tracer = ""
	p.mu.Unlock()
	p.kernel.publish(p, Event{Kind: EventDetached, PID: p.pid, Tracer: tracer})
	return nil
}

// Kill terminates the process with the given signal name. A parked
// process dies immediately; a running one dies at its next safe point.
func (p *Process) Kill(signal string) error {
	if signal == "" {
		signal = "SIGKILL"
	}
	p.mu.Lock()
	if p.state == StateExited {
		p.mu.Unlock()
		return nil
	}
	p.killed = true
	p.sig = signal
	// Wake the program goroutine wherever it is parked.
	p.state = StateRunning
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// WaitParent blocks until the process exits and returns its status as
// the parent would see it. Under RouteTracer with a tracer attached,
// it returns ErrStatusStolen — the OS quirk §2.3 describes.
func (p *Process) WaitParent() (ExitStatus, error) {
	<-p.exited
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.parentErr != nil {
		return ExitStatus{}, p.parentErr
	}
	return p.status, nil
}

// WaitTracer blocks until exit and returns the status as the tracer
// sees it. It returns ok=false when routing did not deliver a status
// to the tracer.
func (p *Process) WaitTracer() (ExitStatus, bool) {
	<-p.exited
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.toTracer {
		return ExitStatus{}, false
	}
	return p.status, true
}

// Exited returns a channel closed when the process has terminated,
// however it died and whoever the status was routed to. It carries no
// status: a waiter that must also watch a clock or another channel
// selects on it and then asks WaitParent, WaitTracer or
// ExitStatusSnapshot, none of which block any longer.
func (p *Process) Exited() <-chan struct{} { return p.exited }

// CheckpointData returns the latest checkpoint the program saved and
// whether one exists. Valid while running and after exit — the RM
// reads it when reclaiming (vacating) a machine.
func (p *Process) CheckpointData() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.checkpoint, p.hasCheckpoint
}

// Progress returns the safe-point counter: it advances every time the
// program passes a checkpoint-able point. A stuck counter on a
// supposedly-running process indicates a hang (liveness detection).
func (p *Process) Progress() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.progress
}

// ExitStatusSnapshot returns the recorded status after exit. The
// boolean is false while the process is still alive. Unlike the Wait
// calls this is not subject to routing — it models the RM's
// authoritative bookkeeping.
func (p *Process) ExitStatusSnapshot() (ExitStatus, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != StateExited {
		return ExitStatus{}, false
	}
	return p.status, true
}

// InsertProbe adds instrumentation at a named function. The caller
// must be the attached tracer and the process must be created or
// stopped — the Dyninst-style discipline that motivates the paper's
// create-paused handshake (instrument before main runs). It returns a
// probe id for RemoveProbe.
func (p *Process) InsertProbe(tracer, point string, onEntry, onExit func(*ProcContext)) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tracer == "" {
		return 0, ErrNotAttached
	}
	if p.tracer != tracer {
		return 0, fmt.Errorf("%w: %q attached", ErrNotTracer, p.tracer)
	}
	if p.state != StateCreated && p.state != StateStopped {
		return 0, fmt.Errorf("%w: process must be paused to instrument", ErrBadState)
	}
	if !p.symbols[point] {
		return 0, fmt.Errorf("%w: %q", ErrNoSymbol, point)
	}
	p.probeID++
	e := &probeEntry{id: p.probeID, owner: tracer, point: point, onEntry: onEntry, onExit: onExit}
	list := p.probes[point]
	p.probes[point] = append(list[:len(list):len(list)], e)
	return e.id, nil
}

// RemoveProbe deletes a probe by id under the same discipline as
// InsertProbe.
func (p *Process) RemoveProbe(tracer string, id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tracer == "" {
		return ErrNotAttached
	}
	if p.tracer != tracer {
		return fmt.Errorf("%w: %q attached", ErrNotTracer, p.tracer)
	}
	if p.state != StateCreated && p.state != StateStopped {
		return fmt.Errorf("%w: process must be paused to instrument", ErrBadState)
	}
	for point, list := range p.probes {
		for i, e := range list {
			if e.id == id {
				p.probes[point] = slices.Concat(list[:i], list[i+1:])
				return nil
			}
		}
	}
	return fmt.Errorf("procsim: no probe %d", id)
}

// ProbeCount returns the number of installed probes (all points).
func (p *Process) ProbeCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.probes {
		n += len(l)
	}
	return n
}

// probesFor returns the probe list for a point. Insert and remove
// replace a list rather than change it, so the caller may range over
// it after the lock is released.
func (p *Process) probesFor(point string) []*probeEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.probes[point]
}

// ProcContext is a program's window onto its process and the kernel.
// Its methods are the safe points at which stop and kill requests take
// effect.
type ProcContext struct {
	proc *Process
}

// PID returns the process id.
func (c *ProcContext) PID() PID { return c.proc.pid }

// Args returns the process argv.
func (c *ProcContext) Args() []string { return c.proc.Args() }

// Checkpoint parks while the process is stopped and panics with the
// kill sentinel when the process has been killed. Programs running
// long loops should call it periodically; Call and Compute do so
// implicitly.
func (c *ProcContext) Checkpoint() {
	p := c.proc
	p.mu.Lock()
	if p.state == StateStopped && !p.parked {
		// First park after a stop request: announce it (this is the
		// single place EventStopped is published, so synchronous Stop,
		// async RequestStop, and Attach all produce exactly one event).
		p.parked = true
		p.cond.Broadcast() // wake Stop/Attach waiting for the park
		p.mu.Unlock()
		p.kernel.publish(p, Event{Kind: EventStopped, PID: p.pid})
		p.mu.Lock()
	}
	for p.state == StateStopped {
		p.parked = true
		p.cond.Broadcast()
		p.cond.Wait()
	}
	p.parked = false
	p.progress++
	killed, sig := p.killed, p.sig
	p.mu.Unlock()
	if killed {
		panic(killSentinel{sig: sig})
	}
}

// SaveCheckpoint records the program's logical progress so a resource
// manager can migrate or restart the job from this point — the
// simulator's stand-in for Condor's process checkpointing (the real
// thing snapshots the address space; here the program names its own
// resumption point, which exercises the same RM-side machinery).
func (c *ProcContext) SaveCheckpoint(data string) {
	p := c.proc
	p.mu.Lock()
	p.checkpoint = data
	p.hasCheckpoint = true
	p.mu.Unlock()
}

// RestartData returns the checkpoint this process was restarted from,
// or "" for a fresh start.
func (c *ProcContext) RestartData() string { return c.proc.spec.RestartData }

// Call executes body as the named function: entry probes fire, then
// body, then exit probes, with a checkpoint first. The name should be
// one of the spec's Symbols for tools to find it.
func (c *ProcContext) Call(name string, body func()) {
	c.Checkpoint()
	for _, e := range c.proc.probesFor(name) {
		if e.onEntry != nil {
			e.onEntry(c)
		}
	}
	if body != nil {
		body()
	}
	for _, e := range c.proc.probesFor(name) {
		if e.onExit != nil {
			e.onExit(c)
		}
	}
}

// Compute burns CPU for roughly units microseconds of simulated work,
// checkpointing between slices so stops remain responsive, and charges
// the process one µs of simulated CPU time per unit (CPUMicros).
func (c *ProcContext) Compute(units int) {
	for i := 0; i < units; i++ {
		c.Checkpoint()
		spin(time.Microsecond)
		c.proc.cpu.Add(1)
	}
}

// CPUMicros returns the process's simulated CPU time: the units of
// Compute it has run, whatever the host's scheduler did meanwhile. A
// profile taken from it (Paradyn's probes) measures the program, not
// the load on the machine it runs on.
func (c *ProcContext) CPUMicros() int64 { return c.proc.cpu.Load() }

// spin waits out d by the wall clock while yielding to the scheduler,
// so simulated compute measures real elapsed time without starving
// other goroutines (tool daemons, servers) on single-CPU machines the
// way a hard busy-wait would.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		runtime.Gosched()
	}
}

// Sleep blocks for d in small slices, checkpointing between them.
func (c *ProcContext) Sleep(d time.Duration) { c.Wait(d, nil) }

// Wait blocks until wake is closed or delivers a value, or d has
// passed, whichever comes first, and reports whether it was wake. It
// is a tool daemon's way to sit out a sampling interval without
// sleeping through the event it is sampling for. Like Sleep it passes
// a checkpoint at least every millisecond, so a stop or kill of the
// waiting process itself takes effect as promptly as anywhere else.
func (c *ProcContext) Wait(d time.Duration, wake <-chan struct{}) bool {
	const slice = time.Millisecond
	c.Checkpoint()
	select {
	case <-wake: // already there: no timer to arm
		c.Checkpoint()
		return true
	default:
	}
	t := time.NewTimer(min(d, slice))
	defer t.Stop() // a kill unwinds through Checkpoint's panic
	for {
		select {
		case <-wake:
			c.Checkpoint()
			return true
		case <-t.C:
		}
		c.Checkpoint()
		if d -= slice; d <= 0 {
			return false
		}
		t.Reset(min(d, slice))
	}
}

// Stdout returns the process's standard output stream.
func (c *ProcContext) Stdout() io.Writer {
	if c.proc.spec.Stdout == nil {
		return io.Discard
	}
	return c.proc.spec.Stdout
}

// Stderr returns the process's standard error stream.
func (c *ProcContext) Stderr() io.Writer {
	if c.proc.spec.Stderr == nil {
		return io.Discard
	}
	return c.proc.spec.Stderr
}

// Stdin returns the process's standard input stream.
func (c *ProcContext) Stdin() io.Reader {
	if c.proc.spec.Stdin == nil {
		return emptyReader{}
	}
	return c.proc.spec.Stdin
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }
