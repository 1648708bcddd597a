// Package procsim is the process substrate for the TDP reproduction:
// a small simulated operating system kernel with processes, a
// create-but-don't-start (exec-paused) state, attach/detach tracing,
// cooperative stop/continue, dynamic instrumentation points, stdio
// plumbing, and configurable exit-status routing.
//
// The paper's process-management interface (§2.2, §3.1) needs exactly
// five capabilities from the OS: create a process stopped "just after
// the exec call", attach to a running process and pause it, perform
// tool initialization while stopped, continue it, and observe status
// changes. Real systems provide these via fork/exec + ptrace//proc
// with semantics that differ across operating systems — the paper's
// motivation for centralizing process control in the RM (§2.3). This
// simulator implements that exact state machine deterministically,
// including the Linux wait-status quirk the paper cites, so every TDP
// code path can be exercised and tested on a laptop.
//
// A "program" is Go code that runs inside a simulated process and
// cooperates with the kernel through its ProcContext: instrumentation
// points (Call), compute kernels (Compute), and stdio. Stop requests
// take effect at the next such interaction, which models a debugger
// interrupting a traced process at a safe point.
package procsim

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
)

// PID identifies a simulated process.
type PID int

// State is a process's run state.
type State int

const (
	// StateCreated is the paper's "created but not started" state: the
	// fork and exec have completed but the process is stopped before
	// the first instruction of main (§2.2 case 2, §4.3 step 1).
	StateCreated State = iota
	// StateRunning means the program is executing.
	StateRunning
	// StateStopped means the process has been paused by a tracer or
	// the kernel at a safe point.
	StateStopped
	// StateExited means the program returned or was killed.
	StateExited
)

// String returns the conventional name of the state.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// StatusRouting selects who receives a process's exit status, modeling
// the OS variation described in §2.3 ("under Linux, the parent process
// may or may not be the recipient of the child process' termination
// code ... in one unusual case, the return code might go to both").
type StatusRouting int

const (
	// RouteParent delivers exit status to the parent only (classic Unix).
	RouteParent StatusRouting = iota
	// RouteTracer delivers exit status to the tracer when one is
	// attached at exit, starving the parent (the Linux quirk).
	RouteTracer
	// RouteBoth delivers the status to both parent and tracer (the
	// paper's "unusual case").
	RouteBoth
)

// Errors returned by kernel and process operations.
var (
	ErrNoProcess     = errors.New("procsim: no such process")
	ErrBadState      = errors.New("procsim: operation invalid in current state")
	ErrAlreadyTraced = errors.New("procsim: process already has a tracer")
	ErrNotTracer     = errors.New("procsim: caller is not the attached tracer")
	ErrNotAttached   = errors.New("procsim: no tracer attached")
	ErrStatusStolen  = errors.New("procsim: exit status delivered to tracer, not parent")
	ErrKilled        = errors.New("procsim: process killed")
	ErrNoSymbol      = errors.New("procsim: no such symbol")
)

// EventKind enumerates kernel notifications.
type EventKind int

const (
	// EventCreated fires when a process is spawned (running or paused).
	EventCreated EventKind = iota
	// EventContinued fires when a process leaves created/stopped.
	EventContinued
	// EventStopped fires when a process parks at a safe point.
	EventStopped
	// EventExited fires when a process terminates.
	EventExited
	// EventAttached fires when a tracer attaches.
	EventAttached
	// EventDetached fires when a tracer detaches.
	EventDetached
)

// String returns the mnemonic used in traces.
func (k EventKind) String() string {
	switch k {
	case EventCreated:
		return "created"
	case EventContinued:
		return "continued"
	case EventStopped:
		return "stopped"
	case EventExited:
		return "exited"
	case EventAttached:
		return "attached"
	case EventDetached:
		return "detached"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is a kernel process-state notification. The resource manager
// subscribes to these; under TDP it is the single entity responsible
// for status monitoring (§2.3).
type Event struct {
	Kind   EventKind
	PID    PID
	Status ExitStatus // valid for EventExited
	Tracer string     // valid for EventAttached/EventDetached
}

// ExitStatus is a process's termination record.
type ExitStatus struct {
	Code   int    // program return value; meaningless when Signaled
	Signal string // non-empty when killed by signal
}

// Signaled reports whether the process died from a signal.
func (e ExitStatus) Signaled() bool { return e.Signal != "" }

// String renders "exit(N)" or "killed(SIG)".
func (e ExitStatus) String() string {
	if e.Signaled() {
		return "killed(" + e.Signal + ")"
	}
	return fmt.Sprintf("exit(%d)", e.Code)
}

// Program is the code a simulated process executes. Run receives the
// process's context and returns the exit code. Implementations must
// call ctx methods (Call, Compute, Checkpoint, stdio) so stop and kill
// requests can take effect.
type Program interface {
	Run(ctx *ProcContext) int
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(*ProcContext) int

// Run implements Program.
func (f ProgramFunc) Run(ctx *ProcContext) int { return f(ctx) }

// Spec describes a process to spawn.
type Spec struct {
	Executable string    // name, for symbol tables and attribute values
	Args       []string  // argv (excluding executable)
	Program    Program   // the code to run
	Symbols    []string  // function names discoverable by tools ("parse the executable")
	Stdin      io.Reader // nil for empty stdin
	Stdout     io.Writer // nil discards
	Stderr     io.Writer // nil discards
	Parent     string    // creator identity, for bookkeeping
	// RestartData carries the checkpoint a restarted process resumes
	// from (see ProcContext.SaveCheckpoint); "" means a fresh start.
	RestartData string
}

// Kernel is the simulated operating system: a process table plus the
// event stream.
type Kernel struct {
	mu      sync.Mutex
	nextPID PID
	procs   map[PID]*Process
	routing StatusRouting
	// subs holds the kernel-wide subscriptions; Process.subs, under this
	// same mutex, the per-process ones. Both slices are replaced, never
	// changed in place, so publish delivers to the ones it read without
	// copying them.
	subs []*EventSub
}

// NewKernel returns an empty kernel with RouteParent status routing.
func NewKernel() *Kernel {
	return &Kernel{
		nextPID: 1000,
		procs:   make(map[PID]*Process),
	}
}

// SetStatusRouting selects the exit-status delivery model. It applies
// to processes that exit after the call.
func (k *Kernel) SetStatusRouting(r StatusRouting) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.routing = r
}

// subQueueMax bounds the events a subscription holds undelivered. A
// subscriber that falls further behind loses the oldest of them rather
// than blocking the kernel or growing without limit.
const subQueueMax = 128

// EventSub is a subscription to process events: every process's
// (Kernel.Subscribe) or one process's (Process.Subscribe). Events wait
// in arrival order in a queue that grows with the backlog, so a
// subscription that is kept up with costs a few events' worth of memory.
type EventSub struct {
	proc *Process // nil for a kernel-wide subscription

	mu     sync.Mutex
	cond   sync.Cond // on mu
	queue  []Event   // queue[head:] is undelivered
	head   int
	closed bool
}

// Next blocks until an event is available and returns it. After Cancel
// it returns what was still queued and then false.
func (s *EventSub) Next() (Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.head == len(s.queue) {
		if s.closed {
			return Event{}, false
		}
		s.cond.Wait()
	}
	e := s.queue[s.head]
	if s.head++; s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	return e, true
}

func (s *EventSub) deliver(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.queue)-s.head == subQueueMax {
		s.head++ // drop the oldest event to stay live
	}
	if s.head > 0 && len(s.queue) == cap(s.queue) {
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	s.queue = append(s.queue, e)
	s.cond.Signal()
}

func (s *EventSub) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Subscribe registers for all subsequent events of every process.
func (k *Kernel) Subscribe() *EventSub { return k.subscribe(nil) }

// Subscribe registers for all subsequent events of this process.
func (p *Process) Subscribe() *EventSub { return p.kernel.subscribe(p) }

// subsOf returns the list a subscription to p (nil: to every process)
// is registered in. Callers hold mu.
func (k *Kernel) subsOf(p *Process) *[]*EventSub {
	if p != nil {
		return &p.subs
	}
	return &k.subs
}

func (k *Kernel) subscribe(p *Process) *EventSub {
	s := &EventSub{proc: p}
	s.cond.L = &s.mu
	k.mu.Lock()
	subs := k.subsOf(p)
	*subs = append(slices.Clip(*subs), s)
	k.mu.Unlock()
	return s
}

// Cancel removes the subscription and ends its stream.
func (k *Kernel) Cancel(s *EventSub) {
	k.mu.Lock()
	subs := k.subsOf(s.proc)
	*subs = slices.DeleteFunc(slices.Clone(*subs), func(x *EventSub) bool { return x == s })
	k.mu.Unlock()
	s.close()
}

// publish delivers p's event e to the kernel-wide subscribers and to p's own.
func (k *Kernel) publish(p *Process, e Event) {
	k.mu.Lock()
	all, own := k.subs, p.subs
	k.mu.Unlock()
	for _, s := range all {
		s.deliver(e)
	}
	for _, s := range own {
		s.deliver(e)
	}
}

// Process returns the process with the given pid, or ErrNoProcess.
func (k *Kernel) Process(pid PID) (*Process, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := k.procs[pid]
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoProcess, pid)
	}
	return p, nil
}

// Reap removes an exited process from the process table, releasing its
// pid for bookkeeping purposes (pids are never reused). Reaping a live
// process is an error.
func (k *Kernel) Reap(pid PID) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := k.procs[pid]
	if p == nil {
		return fmt.Errorf("%w: %d", ErrNoProcess, pid)
	}
	if p.State() != StateExited {
		return fmt.Errorf("%w: cannot reap a live process", ErrBadState)
	}
	delete(k.procs, pid)
	return nil
}

// Processes returns all live (non-reaped) processes sorted by pid.
func (k *Kernel) Processes() []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pid < out[j].pid })
	return out
}

// Spawn creates a process. With paused=true the process is left in
// StateCreated — fork and exec have completed, the program has not
// entered main — which is the state tdp_create_process(paused)
// requires (§3.1). With paused=false the program starts immediately.
func (k *Kernel) Spawn(spec Spec, paused bool) (*Process, error) {
	if spec.Program == nil {
		return nil, errors.New("procsim: spec has no program")
	}
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	p := newProcess(k, pid, spec)
	k.procs[pid] = p
	k.mu.Unlock()

	k.publish(p, Event{Kind: EventCreated, PID: pid})
	go p.run()
	if !paused {
		if err := p.Continue(""); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// killSentinel unwinds a program goroutine when its process is killed
// mid-checkpoint; the runner recovers it.
type killSentinel struct{ sig string }
