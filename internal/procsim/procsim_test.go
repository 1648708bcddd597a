package procsim

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func spawnT(t *testing.T, k *Kernel, spec Spec, paused bool) *Process {
	t.Helper()
	p, err := k.Spawn(spec, paused)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	return p
}

func exitSpec(code int) Spec {
	return Spec{Executable: "exiter", Program: NewExitingProgram(code), Symbols: StdSymbols}
}

func TestSpawnRunExit(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(7), false)
	st, err := p.WaitParent()
	if err != nil {
		t.Fatalf("WaitParent: %v", err)
	}
	if st.Code != 7 || st.Signaled() {
		t.Errorf("status = %v, want exit(7)", st)
	}
	if p.State() != StateExited {
		t.Errorf("state = %v", p.State())
	}
}

// TestComputeChargesCPUTime: a process's simulated CPU time is exactly
// the units of Compute it ran, so a profile built on it is the same on
// a busy host as on an idle one.
func TestComputeChargesCPUTime(t *testing.T) {
	k := NewKernel()
	var before, after int64
	p := spawnT(t, k, Spec{Executable: "cpu", Program: ProgramFunc(func(ctx *ProcContext) int {
		ctx.Compute(3)
		before = ctx.CPUMicros()
		ctx.Sleep(time.Millisecond) // wall time, not CPU time
		ctx.Compute(40)
		after = ctx.CPUMicros()
		return 0
	})}, false)
	if _, err := p.WaitParent(); err != nil {
		t.Fatalf("WaitParent: %v", err)
	}
	if before != 3 || after != 43 {
		t.Errorf("CPUMicros = %d then %d, want 3 then 43", before, after)
	}
}

func TestSpawnPausedStaysCreated(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), true)
	time.Sleep(20 * time.Millisecond)
	if got := p.State(); got != StateCreated {
		t.Fatalf("state = %v, want created (program must not enter main)", got)
	}
	// Continue lets it finish.
	if err := p.Continue(""); err != nil {
		t.Fatalf("Continue: %v", err)
	}
	if st, err := p.WaitParent(); err != nil || st.Code != 0 {
		t.Fatalf("WaitParent = %v, %v", st, err)
	}
}

func TestPausedProcessRunsNothingBeforeContinue(t *testing.T) {
	k := NewKernel()
	var ran atomic.Bool
	prog := ProgramFunc(func(ctx *ProcContext) int {
		ran.Store(true)
		return 0
	})
	p := spawnT(t, k, Spec{Executable: "x", Program: prog}, true)
	time.Sleep(20 * time.Millisecond)
	if ran.Load() {
		t.Fatal("program entered main while in created state")
	}
	p.Continue("")
	p.WaitParent()
	if !ran.Load() {
		t.Fatal("program never ran after Continue")
	}
}

func TestStopAndContinue(t *testing.T) {
	k := NewKernel()
	spec := Spec{Executable: "spin", Program: NewSpinnerProgram(), Symbols: StdSymbols}
	p := spawnT(t, k, spec, false)
	defer p.Kill("")
	if err := p.Stop(""); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if p.State() != StateStopped {
		t.Fatalf("state = %v, want stopped", p.State())
	}
	// Stop is idempotent.
	if err := p.Stop(""); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if err := p.Continue(""); err != nil {
		t.Fatalf("Continue: %v", err)
	}
	if p.State() != StateRunning {
		t.Fatalf("state = %v, want running", p.State())
	}
}

func TestKillRunning(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, Spec{Executable: "spin", Program: NewSpinnerProgram(), Symbols: StdSymbols}, false)
	if err := p.Kill("SIGTERM"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	st, err := p.WaitParent()
	if err != nil {
		t.Fatalf("WaitParent: %v", err)
	}
	if !st.Signaled() || st.Signal != "SIGTERM" {
		t.Errorf("status = %v, want killed(SIGTERM)", st)
	}
}

func TestKillCreated(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), true)
	p.Kill("")
	st, err := p.WaitParent()
	if err != nil {
		t.Fatalf("WaitParent: %v", err)
	}
	if st.Signal != "SIGKILL" {
		t.Errorf("status = %v", st)
	}
}

func TestKillStopped(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, Spec{Executable: "spin", Program: NewSpinnerProgram(), Symbols: StdSymbols}, false)
	p.Stop("")
	p.Kill("SIGINT")
	st, err := p.WaitParent()
	if err != nil || st.Signal != "SIGINT" {
		t.Fatalf("status = %v, %v", st, err)
	}
}

func TestKillExitedIsNoop(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), false)
	p.WaitParent()
	if err := p.Kill(""); err != nil {
		t.Errorf("Kill after exit: %v", err)
	}
}

func TestAttachPausesRunningProcess(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, Spec{Executable: "spin", Program: NewSpinnerProgram(), Symbols: StdSymbols}, false)
	defer p.Kill("")
	if err := p.Attach("paradynd-1"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if p.State() != StateStopped {
		t.Errorf("state after attach = %v, want stopped", p.State())
	}
	if p.Tracer() != "paradynd-1" {
		t.Errorf("tracer = %q", p.Tracer())
	}
}

func TestAttachToCreatedKeepsState(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), true)
	if err := p.Attach("tool"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if p.State() != StateCreated {
		t.Errorf("state = %v, want created", p.State())
	}
	p.Continue("tool")
	p.WaitParent()
}

func TestSecondAttachRejected(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), true)
	p.Attach("t1")
	if err := p.Attach("t2"); !errors.Is(err, ErrAlreadyTraced) {
		t.Errorf("err = %v, want ErrAlreadyTraced", err)
	}
	p.Kill("")
}

func TestTracedProcessControlRequiresTracer(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), true)
	p.Attach("tool")
	if err := p.Continue(""); !errors.Is(err, ErrNotTracer) {
		t.Errorf("Continue by non-tracer: %v, want ErrNotTracer", err)
	}
	if err := p.Continue("other"); !errors.Is(err, ErrNotTracer) {
		t.Errorf("Continue by wrong tracer: %v", err)
	}
	if err := p.Continue("tool"); err != nil {
		t.Fatalf("Continue by tracer: %v", err)
	}
	p.WaitParent()
}

func TestDetach(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), true)
	if err := p.Detach("tool"); !errors.Is(err, ErrNotAttached) {
		t.Errorf("Detach unattached: %v", err)
	}
	p.Attach("tool")
	if err := p.Detach("other"); !errors.Is(err, ErrNotTracer) {
		t.Errorf("Detach wrong tracer: %v", err)
	}
	if err := p.Detach("tool"); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if p.Tracer() != "" {
		t.Errorf("tracer = %q after detach", p.Tracer())
	}
	// Owner can control again.
	if err := p.Continue(""); err != nil {
		t.Fatalf("Continue after detach: %v", err)
	}
	p.WaitParent()
}

func TestAttachExitedFails(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), false)
	p.WaitParent()
	if err := p.Attach("tool"); !errors.Is(err, ErrBadState) {
		t.Errorf("Attach to exited: %v", err)
	}
	if err := p.Continue(""); !errors.Is(err, ErrBadState) {
		t.Errorf("Continue exited: %v", err)
	}
	if err := p.Stop(""); !errors.Is(err, ErrBadState) {
		t.Errorf("Stop exited: %v", err)
	}
}

func TestProbesFireAndCount(t *testing.T) {
	k := NewKernel()
	phases := []PhaseSpec{{Name: "fA", Units: 1}, {Name: "fB", Units: 1}}
	spec := Spec{
		Executable: "app",
		Program:    NewPhasedProgram(5, phases),
		Symbols:    PhasedSymbols(phases),
	}
	p := spawnT(t, k, spec, true)
	if err := p.Attach("tool"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	var entries, exits atomic.Int64
	if _, err := p.InsertProbe("tool", "fA",
		func(*ProcContext) { entries.Add(1) },
		func(*ProcContext) { exits.Add(1) }); err != nil {
		t.Fatalf("InsertProbe: %v", err)
	}
	p.Continue("tool")
	p.WaitParent()
	if entries.Load() != 5 || exits.Load() != 5 {
		t.Errorf("probe fired %d/%d times, want 5/5", entries.Load(), exits.Load())
	}
}

// TestCallThroughProbesCopiesNothing: a probe fire reads the installed
// list itself, so a call through an instrumented function costs the
// probes' own work and no copy of the list.
func TestCallThroughProbesCopiesNothing(t *testing.T) {
	k := NewKernel()
	var calls atomic.Int64
	allocs := -1.0
	spec := Spec{
		Executable: "app",
		Program: ProgramFunc(func(c *ProcContext) int {
			allocs = testing.AllocsPerRun(100, func() { c.Call("fA", nil) })
			return 0
		}),
		Symbols: []string{"fA"},
	}
	p := spawnT(t, k, spec, true)
	if err := p.Attach("tool"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.InsertProbe("tool", "fA",
			func(*ProcContext) { calls.Add(1) },
			func(*ProcContext) { calls.Add(1) }); err != nil {
			t.Fatalf("InsertProbe: %v", err)
		}
	}
	p.Continue("tool")
	p.WaitParent()
	if want := int64(2 * 3 * 101); calls.Load() != want {
		t.Errorf("probes fired %d times, want %d", calls.Load(), want)
	}
	if allocs != 0 {
		t.Errorf("a call through 3 probes allocates %.1f objects, want 0", allocs)
	}
}

// TestProbeListIsCopyOnWrite: a call ranges over the list it read after
// the lock is gone, so inserting or removing a probe must leave that
// list as it was.
func TestProbeListIsCopyOnWrite(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, Spec{Executable: "app", Program: NewExitingProgram(0), Symbols: []string{"f"}}, true)
	defer p.Kill("")
	if err := p.Attach("tool"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := p.InsertProbe("tool", "f", nil, nil)
		if err != nil {
			t.Fatalf("InsertProbe: %v", err)
		}
		ids = append(ids, id)
	}
	firing := p.probesFor("f")
	if err := p.RemoveProbe("tool", ids[0]); err != nil {
		t.Fatalf("RemoveProbe: %v", err)
	}
	if _, err := p.InsertProbe("tool", "f", nil, nil); err != nil {
		t.Fatalf("InsertProbe: %v", err)
	}
	for i, e := range firing {
		if e.id != ids[i] {
			t.Errorf("list being fired changed under it: entry %d is probe %d, want %d", i, e.id, ids[i])
		}
	}
	if got := len(p.probesFor("f")); got != 3 {
		t.Errorf("%d probes installed, want 3", got)
	}
}

func TestInsertProbeDiscipline(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, Spec{Executable: "spin", Program: NewSpinnerProgram(), Symbols: StdSymbols}, false)
	defer p.Kill("")
	// No tracer attached.
	if _, err := p.InsertProbe("tool", "work", nil, nil); !errors.Is(err, ErrNotAttached) {
		t.Errorf("probe without attach: %v", err)
	}
	p.Attach("tool")
	p.Continue("tool")
	// Running: must be paused to instrument.
	if _, err := p.InsertProbe("tool", "work", nil, nil); !errors.Is(err, ErrBadState) {
		t.Errorf("probe while running: %v", err)
	}
	p.Stop("tool")
	// Wrong owner.
	if _, err := p.InsertProbe("other", "work", nil, nil); !errors.Is(err, ErrNotTracer) {
		t.Errorf("probe by non-tracer: %v", err)
	}
	// Unknown symbol.
	if _, err := p.InsertProbe("tool", "nosuchfn", nil, nil); !errors.Is(err, ErrNoSymbol) {
		t.Errorf("probe on unknown symbol: %v", err)
	}
	id, err := p.InsertProbe("tool", "work", nil, nil)
	if err != nil {
		t.Fatalf("InsertProbe: %v", err)
	}
	if p.ProbeCount() != 1 {
		t.Errorf("ProbeCount = %d", p.ProbeCount())
	}
	if err := p.RemoveProbe("tool", id); err != nil {
		t.Fatalf("RemoveProbe: %v", err)
	}
	if p.ProbeCount() != 0 {
		t.Errorf("ProbeCount after remove = %d", p.ProbeCount())
	}
	if err := p.RemoveProbe("tool", id); err == nil {
		t.Error("RemoveProbe of missing id succeeded")
	}
}

func TestSymbolTable(t *testing.T) {
	k := NewKernel()
	phases, prog := DefaultScienceApp(1)
	p := spawnT(t, k, Spec{Executable: "sci", Program: prog, Symbols: PhasedSymbols(phases)}, true)
	defer p.Kill("")
	syms := p.Symbols()
	want := []string{"compute_forces", "main", "read_input", "update_positions", "write_output"}
	if len(syms) != len(want) {
		t.Fatalf("Symbols = %v", syms)
	}
	for i := range want {
		if syms[i] != want[i] {
			t.Errorf("Symbols[%d] = %q, want %q", i, syms[i], want[i])
		}
	}
}

func TestStdioPlumbing(t *testing.T) {
	k := NewKernel()
	var out bytes.Buffer
	spec := Spec{
		Executable: "echo",
		Program:    NewEchoProgram("> "),
		Symbols:    StdSymbols,
		Stdin:      strings.NewReader("hello\nworld\n"),
		Stdout:     &out,
	}
	p := spawnT(t, k, spec, false)
	st, err := p.WaitParent()
	if err != nil {
		t.Fatalf("WaitParent: %v", err)
	}
	if st.Code != 2 {
		t.Errorf("exit code = %d, want 2 lines", st.Code)
	}
	if got := out.String(); got != "> hello\n> world\n" {
		t.Errorf("stdout = %q", got)
	}
}

func TestKernelEvents(t *testing.T) {
	k := NewKernel()
	sub := k.Subscribe()
	defer k.Cancel(sub)
	p := spawnT(t, k, exitSpec(3), true)
	p.Attach("tool")
	p.Continue("tool")
	p.WaitParent()

	want := []EventKind{EventCreated, EventAttached, EventContinued, EventExited}
	for i, wk := range want {
		e := nextEvent(t, sub)
		if e.Kind != wk || e.PID != p.PID() {
			t.Errorf("event %d = %v pid %d, want %v pid %d", i, e.Kind, e.PID, wk, p.PID())
		}
		if wk == EventExited && e.Status.Code != 3 {
			t.Errorf("exit event status = %v", e.Status)
		}
	}
}

// nextEvent is sub.Next with a bound, so a missing event fails the test
// instead of hanging it.
func nextEvent(t *testing.T, sub *EventSub) Event {
	t.Helper()
	got := make(chan Event, 1)
	go func() {
		if e, ok := sub.Next(); ok {
			got <- e
		}
	}()
	select {
	case e := <-got:
		return e
	case <-time.After(2 * time.Second):
		t.Fatal("event never arrived")
		return Event{}
	}
}

// TestProcessSubscription: a per-process subscription sees its own
// process's transitions, in order, and nothing of the thousand other
// processes' events published around them.
func TestProcessSubscription(t *testing.T) {
	k := NewKernel()
	gate := make(chan struct{})
	p := spawnT(t, k, Spec{Executable: "gated", Program: ProgramFunc(func(ctx *ProcContext) int {
		ctx.Call("work", func() { <-gate })
		ctx.Checkpoint()
		return 7
	}), Symbols: []string{"work"}}, true)
	sub := p.Subscribe()
	defer k.Cancel(sub)

	noise := func(n int) { // each spawn-and-exit publishes created, continued, exited
		for i := 0; i < n; i++ {
			spawnT(t, k, exitSpec(0), false).WaitParent()
		}
	}
	expect := func(wk EventKind) Event {
		t.Helper()
		e := nextEvent(t, sub)
		if e.Kind != wk || e.PID != p.PID() {
			t.Fatalf("event = %v pid %d, want %v pid %d", e.Kind, e.PID, wk, p.PID())
		}
		return e
	}
	noise(120)
	p.Continue("")
	noise(120)
	expect(EventContinued)
	if err := p.RequestStop(""); err != nil {
		t.Fatalf("RequestStop: %v", err)
	}
	close(gate) // the program reaches its next safe point and parks there
	p.WaitStopped()
	noise(120)
	expect(EventStopped) // published by the park, before Continue publishes below
	p.Continue("")
	p.WaitParent()
	expect(EventContinued)
	if e := expect(EventExited); e.Status.Code != 7 {
		t.Errorf("exit event status = %v", e.Status)
	}
	k.Cancel(sub)
	if e, ok := sub.Next(); ok {
		t.Errorf("event %v pid %d after the exit", e.Kind, e.PID)
	}
}

func TestStatusRoutingParent(t *testing.T) {
	k := NewKernel() // default RouteParent
	p := spawnT(t, k, exitSpec(1), true)
	p.Attach("tool")
	p.Continue("tool")
	st, err := p.WaitParent()
	if err != nil || st.Code != 1 {
		t.Fatalf("parent wait = %v, %v", st, err)
	}
	if _, ok := p.WaitTracer(); ok {
		t.Error("tracer received status under RouteParent")
	}
}

func TestStatusRoutingTracerStealsFromParent(t *testing.T) {
	// The §2.3 Linux quirk: with a tracer attached, the parent does not
	// receive the termination code.
	k := NewKernel()
	k.SetStatusRouting(RouteTracer)
	p := spawnT(t, k, exitSpec(9), true)
	p.Attach("tool")
	p.Continue("tool")
	st, ok := p.WaitTracer()
	if !ok || st.Code != 9 {
		t.Fatalf("tracer wait = %v, %v", st, ok)
	}
	if _, err := p.WaitParent(); !errors.Is(err, ErrStatusStolen) {
		t.Errorf("parent wait err = %v, want ErrStatusStolen", err)
	}
	// The kernel's bookkeeping (what the RM uses under TDP) still has it.
	if snap, ok := p.ExitStatusSnapshot(); !ok || snap.Code != 9 {
		t.Errorf("snapshot = %v, %v", snap, ok)
	}
}

func TestStatusRoutingTracerUntracedFallsBack(t *testing.T) {
	k := NewKernel()
	k.SetStatusRouting(RouteTracer)
	p := spawnT(t, k, exitSpec(2), false) // no tracer
	st, err := p.WaitParent()
	if err != nil || st.Code != 2 {
		t.Fatalf("untraced parent wait = %v, %v", st, err)
	}
}

func TestStatusRoutingBoth(t *testing.T) {
	k := NewKernel()
	k.SetStatusRouting(RouteBoth)
	p := spawnT(t, k, exitSpec(5), true)
	p.Attach("tool")
	p.Continue("tool")
	if st, err := p.WaitParent(); err != nil || st.Code != 5 {
		t.Fatalf("parent = %v, %v", st, err)
	}
	if st, ok := p.WaitTracer(); !ok || st.Code != 5 {
		t.Fatalf("tracer = %v, %v", st, ok)
	}
}

func TestWaitParentTwice(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(4), false)
	if st, err := p.WaitParent(); err != nil || st.Code != 4 {
		t.Fatalf("first wait = %v, %v", st, err)
	}
	if st, err := p.WaitParent(); err != nil || st.Code != 4 {
		t.Fatalf("second wait = %v, %v", st, err)
	}
}

func TestExitStatusSnapshotBeforeExit(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), true)
	if _, ok := p.ExitStatusSnapshot(); ok {
		t.Error("snapshot available before exit")
	}
	p.Kill("")
	p.WaitParent()
}

func TestProcessLookup(t *testing.T) {
	k := NewKernel()
	p := spawnT(t, k, exitSpec(0), true)
	defer p.Kill("")
	got, err := k.Process(p.PID())
	if err != nil || got != p {
		t.Errorf("Process(%d) = %v, %v", p.PID(), got, err)
	}
	if _, err := k.Process(1); !errors.Is(err, ErrNoProcess) {
		t.Errorf("Process(1) err = %v", err)
	}
	if n := len(k.Processes()); n != 1 {
		t.Errorf("Processes len = %d", n)
	}
}

func TestSpawnWithoutProgram(t *testing.T) {
	k := NewKernel()
	if _, err := k.Spawn(Spec{Executable: "x"}, false); err == nil {
		t.Error("Spawn without program succeeded")
	}
}

func TestArgsCopied(t *testing.T) {
	k := NewKernel()
	spec := exitSpec(0)
	spec.Args = []string{"1", "2", "3"}
	p := spawnT(t, k, spec, true)
	defer p.Kill("")
	args := p.Args()
	args[0] = "mutated"
	if p.Args()[0] != "1" {
		t.Error("Args aliases internal state")
	}
}

func TestStateAndEventStrings(t *testing.T) {
	if StateCreated.String() != "created" || StateRunning.String() != "running" ||
		StateStopped.String() != "stopped" || StateExited.String() != "exited" {
		t.Error("State strings wrong")
	}
	if State(42).String() != "state(42)" {
		t.Error("unknown state string")
	}
	if EventCreated.String() != "created" || EventExited.String() != "exited" ||
		EventAttached.String() != "attached" || EventDetached.String() != "detached" ||
		EventStopped.String() != "stopped" || EventContinued.String() != "continued" {
		t.Error("Event strings wrong")
	}
	if EventKind(42).String() != "event(42)" {
		t.Error("unknown event string")
	}
	if (ExitStatus{Code: 3}).String() != "exit(3)" {
		t.Error("ExitStatus exit string")
	}
	if (ExitStatus{Signal: "SIGKILL"}).String() != "killed(SIGKILL)" {
		t.Error("ExitStatus signal string")
	}
}

func TestStopUnblocksWhenProcessExits(t *testing.T) {
	// Stop must not hang when the program exits instead of parking.
	k := NewKernel()
	prog := ProgramFunc(func(ctx *ProcContext) int {
		return 0 // exits immediately, no checkpoints
	})
	p := spawnT(t, k, Spec{Executable: "fast", Program: prog}, false)
	// Race Stop against exit; either outcome is fine, but no deadlock.
	done := make(chan struct{})
	go func() {
		p.Stop("")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop deadlocked against exiting process")
	}
	p.WaitParent()
}

func TestManyProcesses(t *testing.T) {
	k := NewKernel()
	const n = 50
	procs := make([]*Process, n)
	for i := 0; i < n; i++ {
		procs[i] = spawnT(t, k, exitSpec(i), false)
	}
	for i, p := range procs {
		st, err := p.WaitParent()
		if err != nil || st.Code != i {
			t.Errorf("proc %d status = %v, %v", i, st, err)
		}
	}
	// PIDs are unique.
	seen := make(map[PID]bool)
	for _, p := range procs {
		if seen[p.PID()] {
			t.Errorf("duplicate pid %d", p.PID())
		}
		seen[p.PID()] = true
	}
}
