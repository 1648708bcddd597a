package rmkit

import (
	"context"
	"strings"
	"testing"
	"time"

	"tdp"
	"tdp/internal/procsim"
	"tdp/internal/toolapi"
)

// minimalTool is a TDP tool that attaches, marks ready, continues, and
// waits for exit — the smallest real tool-side adapter.
func minimalTool() toolapi.Factory {
	return func(env toolapi.Env, args []string) procsim.Program {
		return procsim.ProgramFunc(func(pc *procsim.ProcContext) int {
			h, err := tdp.Init(tdp.Config{
				Context: env.Context, LASSAddr: env.LASSAddr, Dial: env.Dial,
				Kernel: env.Kernel, Identity: "mini",
			})
			if err != nil {
				return 1
			}
			defer h.Exit()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			pid, err := h.GetPID(ctx)
			if err != nil {
				return 1
			}
			p, err := h.Attach(pid)
			if err != nil {
				return 1
			}
			h.Put(tdp.AttrToolReady, "1")
			if err := p.Continue(); err != nil {
				return 1
			}
			if _, err := p.Wait(); err != nil {
				return 1
			}
			pc.Stdout().Write([]byte("mini done\n"))
			return 0
		})
	}
}

func TestLaunchWithTool(t *testing.T) {
	host, err := NewHost("h")
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	defer host.Close()
	var toolOut strings.Builder
	st, err := Launch(host, "ctx1", JobSpec{
		Name: "app", Program: procsim.NewExitingProgram(3), Symbols: procsim.StdSymbols,
		Tool: minimalTool(), ToolOut: &toolOut,
		Timeout: 30 * time.Second,
	}, nil, "rm")
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if st.Code != 3 {
		t.Errorf("exit = %v", st)
	}
	if !strings.Contains(toolOut.String(), "mini done") {
		t.Errorf("tool output = %q", toolOut.String())
	}
}

func TestLaunchPausedWithoutToolTimesOut(t *testing.T) {
	// A paused job with no tool to continue it hits the timeout and is
	// killed — Launch must not hang.
	host, err := NewHost("h")
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	defer host.Close()
	_, err = Launch(host, "ctx2", JobSpec{
		Name: "app", Program: procsim.NewExitingProgram(0), Symbols: procsim.StdSymbols,
		Paused:  true,
		Timeout: 50 * time.Millisecond,
	}, nil, "rm")
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("err = %v, want exceeded-timeout error", err)
	}
}

func TestLaunchToolThatNeverExitsIsReaped(t *testing.T) {
	// A tool that lingers after the app exits gets killed by reapTool,
	// after a grace shortened for the test.
	defer func(grace time.Duration) { toolGrace = grace }(toolGrace)
	toolGrace = 50 * time.Millisecond
	host, err := NewHost("h")
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	defer host.Close()
	lingering := func(env toolapi.Env, args []string) procsim.Program {
		return procsim.ProgramFunc(func(pc *procsim.ProcContext) int {
			h, err := tdp.Init(tdp.Config{
				Context: env.Context, LASSAddr: env.LASSAddr,
				Kernel: env.Kernel, Identity: "linger",
			})
			if err != nil {
				return 1
			}
			defer h.Exit()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			pid, err := h.GetPID(ctx)
			if err != nil {
				return 1
			}
			p, err := h.Attach(pid)
			if err != nil {
				return 1
			}
			p.Continue()
			pc.Sleep(time.Hour) // never exits on its own
			return 0
		})
	}
	start := time.Now()
	st, err := Launch(host, "ctx3", JobSpec{
		Name: "app", Program: procsim.NewExitingProgram(0), Symbols: procsim.StdSymbols,
		Tool:    lingering,
		Timeout: 30 * time.Second,
	}, nil, "rm")
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if st.Code != 0 {
		t.Errorf("exit = %v", st)
	}
	// The launch completes around the grace, not the tool's hour of sleep.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Launch took %v — tool reaping failed", d)
	}
}

func TestLaunchBadLASS(t *testing.T) {
	host, err := NewHost("h")
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	host.Close() // kill the LASS before launching
	_, err = Launch(host, "ctx4", JobSpec{
		Name: "app", Program: procsim.NewExitingProgram(0),
	}, nil, "rm")
	if err == nil {
		t.Error("Launch with dead LASS succeeded")
	}
}

func TestForkRMHostAccessor(t *testing.T) {
	rm, err := NewForkRM(nil)
	if err != nil {
		t.Fatalf("NewForkRM: %v", err)
	}
	defer rm.Close()
	if rm.Host() == nil || rm.Host().Kernel == nil {
		t.Error("Host accessor broken")
	}
}

func TestQueuedJobAccessors(t *testing.T) {
	rm, err := NewQueueRM(1, nil)
	if err != nil {
		t.Fatalf("NewQueueRM: %v", err)
	}
	defer rm.Close()
	qj, err := rm.Enqueue(JobSpec{Name: "x", Program: procsim.NewExitingProgram(2), Symbols: procsim.StdSymbols})
	if err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	select {
	case <-qj.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("job never finished")
	}
	st, err := qj.Result()
	if err != nil || st.Code != 2 {
		t.Errorf("Result = %v, %v", st, err)
	}
	if qj.Host() == "" {
		t.Error("Host empty after run")
	}
}
