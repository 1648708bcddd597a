package procsim

import (
	"testing"
	"time"
)

// The tests below wait on events, never on the clock: every interval
// handed to Wait is either an hour (it must not be what ends the wait)
// or a millisecond (it must be), and no assertion measures elapsed
// time.

const never = time.Hour

// waiter spawns a process whose program makes one Wait call and
// reports what it returned. entered closes once the program is inside
// main, i.e. about to wait or waiting.
func waiter(t *testing.T, k *Kernel, d time.Duration, wake <-chan struct{}) (p *Process, entered <-chan struct{}, woke <-chan bool) {
	t.Helper()
	in, out := make(chan struct{}), make(chan bool, 1)
	p = spawnT(t, k, Spec{Executable: "waiter", Program: ProgramFunc(func(ctx *ProcContext) int {
		close(in)
		out <- ctx.Wait(d, wake)
		return 0
	})}, false)
	return p, in, out
}

func TestWaitReturnsTrueWhenWakeCloses(t *testing.T) {
	k := NewKernel()
	wake := make(chan struct{})
	p, entered, woke := waiter(t, k, never, wake)
	<-entered
	close(wake)
	if !<-woke {
		t.Error("Wait = false although wake closed an hour before the interval")
	}
	if st, err := p.WaitParent(); err != nil || st.Code != 0 {
		t.Errorf("exit = %v, %v", st, err)
	}
}

func TestWaitReturnsTrueOnAValue(t *testing.T) {
	// A buffered signal channel (the debugger's breakpoint hits) wakes
	// the wait as a closed one does.
	k := NewKernel()
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	_, _, woke := waiter(t, k, never, wake)
	if !<-woke {
		t.Error("Wait = false with a value waiting on wake")
	}
}

func TestWaitReturnsFalseWhenIntervalElapses(t *testing.T) {
	k := NewKernel()
	for _, d := range []time.Duration{0, 300 * time.Microsecond, 3500 * time.Microsecond} {
		_, _, woke := waiter(t, k, d, make(chan struct{}))
		if <-woke {
			t.Errorf("Wait(%v) = true although wake never fired", d)
		}
	}
	// Sleep is the same wait with nothing to wake it.
	done := make(chan struct{})
	spawnT(t, k, Spec{Executable: "sleeper", Program: ProgramFunc(func(ctx *ProcContext) int {
		ctx.Sleep(2 * time.Millisecond)
		close(done)
		return 0
	})}, false)
	<-done
}

func TestWaitUnwindsWhenKilled(t *testing.T) {
	k := NewKernel()
	p, entered, woke := waiter(t, k, never, make(chan struct{}))
	<-entered
	if err := p.Kill("SIGTERM"); err != nil {
		t.Fatal(err)
	}
	st, err := p.WaitParent()
	if err != nil || st.Signal != "SIGTERM" {
		t.Fatalf("exit = %v, %v; want killed(SIGTERM)", st, err)
	}
	select {
	case v := <-woke:
		t.Errorf("Wait returned %v to a killed process; the kill sentinel should have unwound it", v)
	default:
	}
}

func TestWaitParksWhileStoppedAndResumes(t *testing.T) {
	k := NewKernel()
	wake := make(chan struct{})
	p, entered, woke := waiter(t, k, never, wake)
	<-entered
	// Stop returns only once the waiting program has parked at one of
	// the wait's checkpoints.
	if err := p.Stop(""); err != nil {
		t.Fatal(err)
	}
	if got := p.State(); got != StateStopped {
		t.Fatalf("state = %v, want stopped", got)
	}
	// A wake-up that comes while the process is stopped is not lost and
	// not acted on until the process is continued.
	close(wake)
	select {
	case <-woke:
		t.Fatal("Wait returned while the process was stopped")
	default:
	}
	if err := p.Continue(""); err != nil {
		t.Fatal(err)
	}
	if !<-woke {
		t.Error("Wait = false after resume, want the pending wake-up")
	}
	p.WaitParent()
}

func TestExitedClosesHoweverTheProcessDies(t *testing.T) {
	mustBeOpen := func(t *testing.T, p *Process) {
		t.Helper()
		select {
		case <-p.Exited():
			t.Fatal("Exited closed on a live process")
		default:
		}
	}
	t.Run("parent-routed", func(t *testing.T) {
		k := NewKernel()
		p := spawnT(t, k, exitSpec(3), true)
		mustBeOpen(t, p)
		p.Continue("")
		<-p.Exited()
		if st, ok := p.ExitStatusSnapshot(); !ok || st.Code != 3 {
			t.Errorf("snapshot after Exited = %v, %v", st, ok)
		}
		if st, err := p.WaitParent(); err != nil || st.Code != 3 {
			t.Errorf("WaitParent after Exited = %v, %v", st, err)
		}
	})
	t.Run("tracer-routed", func(t *testing.T) {
		k := NewKernel()
		k.SetStatusRouting(RouteTracer)
		p := spawnT(t, k, exitSpec(9), true)
		p.Attach("tool")
		mustBeOpen(t, p)
		p.Continue("tool")
		<-p.Exited()
		if st, ok := p.WaitTracer(); !ok || st.Code != 9 {
			t.Errorf("WaitTracer after Exited = %v, %v", st, ok)
		}
	})
	t.Run("killed before main", func(t *testing.T) {
		k := NewKernel()
		p := spawnT(t, k, exitSpec(0), true)
		mustBeOpen(t, p)
		p.Kill("")
		<-p.Exited()
		if st, _ := p.ExitStatusSnapshot(); st.Signal != "SIGKILL" {
			t.Errorf("status = %v, want killed(SIGKILL)", st)
		}
	})
}
