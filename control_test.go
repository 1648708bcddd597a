package tdp

import (
	"context"
	"errors"
	"testing"
	"time"

	"tdp/internal/procsim"
)

// TestStopRequestStopWaitStopped exercises the process-control surface
// a debugger-style tool uses.
func TestStopRequestStopWaitStopped(t *testing.T) {
	addr := newLASS(t)
	k := procsim.NewKernel()
	h := initT(t, Config{Context: "c", LASSAddr: addr, Kernel: k, Identity: "tool"})

	phases := []procsim.PhaseSpec{{Name: "work", Units: 2}}
	ap, err := h.CreateProcess(ProcessSpec{
		Executable: "app",
		Program:    procsim.NewPhasedProgram(100000, phases),
		Symbols:    procsim.PhasedSymbols(phases),
	}, StartPaused)
	if err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}
	tp, err := h.Attach(ap.PID())
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := tp.Continue(); err != nil {
		t.Fatalf("Continue: %v", err)
	}
	if err := tp.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if tp.State() != procsim.StateStopped {
		t.Fatalf("state = %v", tp.State())
	}
	if err := tp.Continue(); err != nil {
		t.Fatalf("Continue: %v", err)
	}
	if err := tp.RequestStop(); err != nil {
		t.Fatalf("RequestStop: %v", err)
	}
	tp.WaitStopped()
	if tp.State() != procsim.StateStopped {
		t.Fatalf("state after RequestStop+WaitStopped = %v", tp.State())
	}
	// Probe add/remove while paused.
	id, err := tp.InsertProbe("work", nil, nil)
	if err != nil {
		t.Fatalf("InsertProbe: %v", err)
	}
	if err := tp.RemoveProbe(id); err != nil {
		t.Fatalf("RemoveProbe: %v", err)
	}
	tp.Kill("")
	tp.Wait()
}

func TestProbeOpsRequireAttachment(t *testing.T) {
	addr := newLASS(t)
	k := procsim.NewKernel()
	h := initT(t, Config{Context: "c", LASSAddr: addr, Kernel: k, Identity: "rm"})
	ap, _ := h.CreateProcess(ProcessSpec{
		Executable: "app", Program: procsim.NewExitingProgram(0), Symbols: procsim.StdSymbols,
	}, StartPaused)
	defer ap.Kill("")
	// ap was created, not attached: probe operations must refuse.
	if _, err := ap.InsertProbe("work", nil, nil); !errors.Is(err, procsim.ErrNotAttached) {
		t.Errorf("InsertProbe unattached: %v", err)
	}
	if err := ap.RemoveProbe(1); !errors.Is(err, procsim.ErrNotAttached) {
		t.Errorf("RemoveProbe unattached: %v", err)
	}
	if err := ap.Detach(); !errors.Is(err, procsim.ErrNotAttached) {
		t.Errorf("Detach unattached: %v", err)
	}
}

func TestExitDetachesAttachments(t *testing.T) {
	// A tool handle that exits (or dies — kill unwinds through the
	// deferred Exit) releases its attachments so a replacement can
	// attach.
	addr := newLASS(t)
	k := procsim.NewKernel()
	rm := initT(t, Config{Context: "c", LASSAddr: addr, Kernel: k, Identity: "rm"})
	ap, _ := rm.CreateProcess(ProcessSpec{
		Executable: "srv", Program: procsim.NewSpinnerProgram(), Symbols: procsim.StdSymbols,
	}, StartRun)
	defer ap.Kill("")

	tool1, err := Init(Config{Context: "c", LASSAddr: addr, Kernel: k, Identity: "tool1"})
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	tp, err := tool1.Attach(ap.PID())
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	tp.Continue()
	tool1.Exit() // must release the attachment

	tool2 := initT(t, Config{Context: "c", LASSAddr: addr, Kernel: k, Identity: "tool2"})
	tp2, err := tool2.Attach(ap.PID())
	if err != nil {
		t.Fatalf("second Attach after Exit: %v", err)
	}
	tp2.Continue()
}

func TestDetachTwice(t *testing.T) {
	addr := newLASS(t)
	k := procsim.NewKernel()
	h := initT(t, Config{Context: "c", LASSAddr: addr, Kernel: k, Identity: "tool"})
	ap, _ := h.CreateProcess(ProcessSpec{
		Executable: "app", Program: procsim.NewSpinnerProgram(), Symbols: procsim.StdSymbols,
	}, StartRun)
	defer ap.Kill("")
	tp, err := h.Attach(ap.PID())
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := tp.Detach(); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if err := tp.Detach(); !errors.Is(err, procsim.ErrNotAttached) {
		t.Errorf("second Detach: %v", err)
	}
}

func TestWaitStatusFastPathAndSubscribeRace(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "rt"})
	// Fast path: status already present.
	h.Put(AttrStatus, "exited:exit(0)")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, err := h.WaitStatus(ctx, "exited:")
	if err != nil || v != "exited:exit(0)" {
		t.Fatalf("WaitStatus fast path = %q, %v", v, err)
	}
	// Prefix matching: waiting for "running" while exited should block
	// until cancel.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := h.WaitStatus(ctx2, "running"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WaitStatus wrong prefix: %v", err)
	}
}

func TestWaitStatusSeesTransition(t *testing.T) {
	addr := newLASS(t)
	rm := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "rm"})
	rt := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "rt"})
	got := make(chan string, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		v, err := rt.WaitStatus(ctx, "stopped")
		if err != nil {
			t.Errorf("WaitStatus: %v", err)
		}
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	rm.Put(AttrStatus, "running")
	rm.Put(AttrStatus, "stopped")
	select {
	case v := <-got:
		if v != "stopped" {
			t.Errorf("got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("transition never observed")
	}
}

func TestFormatPID(t *testing.T) {
	if FormatPID(procsim.PID(1234)) != "1234" {
		t.Errorf("FormatPID = %q", FormatPID(procsim.PID(1234)))
	}
}

// TestProcessVerbsUntracedBuildNoDetail: with no tracer, Attach,
// Continue and Detach allocate what the same three kernel calls
// allocate, plus the Process wrapper Attach returns — no "pid=N" trace
// detail is built for nobody to record.
func TestProcessVerbsUntracedBuildNoDetail(t *testing.T) {
	k := procsim.NewKernel()
	h := initT(t, Config{Context: "c", LASSAddr: newLASS(t), Kernel: k, Identity: "tool"})
	ap, err := h.CreateProcess(ProcessSpec{
		Executable: "app", Program: procsim.NewSpinnerProgram(), Symbols: procsim.StdSymbols,
	}, StartRun)
	if err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}
	defer ap.Kill("")
	p := ap.p
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	kernel := testing.AllocsPerRun(100, func() {
		note(p.Attach("tool"))
		note(p.Continue("tool"))
		note(p.Detach("tool"))
	})
	verbs := testing.AllocsPerRun(100, func() {
		tp, e := h.Attach(p.PID())
		if e != nil {
			note(e)
			return
		}
		note(tp.Continue())
		note(tp.Detach())
	})
	if err != nil {
		t.Fatalf("cycle: %v", err)
	}
	t.Logf("kernel calls %.2f allocs, tdp verbs %.2f", kernel, verbs)
	if verbs > kernel+1 {
		t.Errorf("Attach, Continue and Detach allocate %.2f objects, the kernel calls %.2f: more than the Process wrapper", verbs, kernel)
	}
}
