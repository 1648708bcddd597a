package tools

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tdp"
	"tdp/internal/procsim"
	"tdp/internal/toolapi"
)

// DebuggerReport summarizes a debugging session; the daemon prints it
// as its last stdout line in the form
// "DEBUG-END breakpoint=<fn> hits=<n> status=<exit>".
type DebuggerReport struct {
	Breakpoint string
	Hits       int
	Status     string
}

// Debugger returns a gdb-style tool factory. Args: the first argument
// of the form "-b<function>" names the breakpoint target (default
// "work"); "-n<count>" limits how many hits are taken before the
// breakpoint is removed (default 3).
//
// On every hit the daemon pauses the application (through TDP — the
// controlling-entity discipline of §2.3), publishes
// "debug_state=stopped@<fn>" in the attribute space so the RM can tell
// a debugger stop from a fault, inspects the paused process (reads its
// symbol list, standing in for reading variables), publishes
// "debug_state=running", and resumes.
func Debugger() toolapi.Factory {
	return func(env toolapi.Env, args []string) procsim.Program {
		bp := "work"
		maxHits := 3
		for _, a := range args {
			if strings.HasPrefix(a, "-b") && len(a) > 2 {
				bp = a[2:]
			}
			if strings.HasPrefix(a, "-n") && len(a) > 2 {
				fmt.Sscanf(a[2:], "%d", &maxHits)
			}
		}
		return procsim.ProgramFunc(func(pc *procsim.ProcContext) int {
			return runDebugger(env, pc, bp, maxHits)
		})
	}
}

func runDebugger(env toolapi.Env, pc *procsim.ProcContext, bp string, maxHits int) int {
	fail := func(stage string, err error) int {
		fmt.Fprintf(pc.Stderr(), "debugger: %s: %v\n", stage, err)
		return 1
	}
	h, err := tdp.Init(tdp.Config{
		Context:  env.Context,
		LASSAddr: env.LASSAddr,
		Dial:     env.Dial,
		Kernel:   env.Kernel,
		Identity: "debugger",
		Tracer:   env.Tracer,
	})
	if err != nil {
		return fail("tdp_init", err)
	}
	defer h.Exit()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pid, err := h.GetPID(ctx)
	if err != nil {
		return fail("tdp_get pid", err)
	}
	proc, err := h.Attach(pid)
	if err != nil {
		return fail("tdp_attach", err)
	}

	// Verify the breakpoint target exists in the symbol table.
	found := false
	for _, s := range proc.Symbols() {
		if s == bp {
			found = true
			break
		}
	}
	if !found {
		return fail("breakpoint", fmt.Errorf("no symbol %q in %s", bp, proc.Executable()))
	}

	// The breakpoint: the probe, running on the application's own
	// goroutine at the instrumentation point, requests a stop — the
	// process parks before executing past the breakpoint — and signals
	// this daemon, which inspects and resumes.
	hitCh := make(chan struct{}, 64)
	armed := maxHits
	probeID, err := proc.InsertProbe(bp, func(*procsim.ProcContext) {
		if armed <= 0 {
			return
		}
		armed--
		proc.RequestStop()
		select {
		case hitCh <- struct{}{}:
		default:
		}
	}, nil)
	if err != nil {
		return fail("insert breakpoint", err)
	}

	if err := h.Put(tdp.AttrToolReady, "1"); err != nil {
		return fail("tool_ready", err)
	}
	if err := proc.Continue(); err != nil {
		return fail("tdp_continue", err)
	}

	hits := 0
	for hits < maxHits {
		if !pc.Wait(10*time.Second, hitCh) {
			goto sessionEnd // no more hits coming; avoid hanging
		}
		if _, done := proc.ExitStatus(); done {
			goto sessionEnd
		}
		hits++
		proc.WaitStopped() // the app parks right after the probe
		h.Put("debug_state", "stopped@"+bp)
		fmt.Fprintf(pc.Stdout(), "DEBUG stop %d at %s\n", hits, bp)
		// "Inspect" the paused process.
		_ = proc.Symbols()
		h.Put("debug_state", "running")
		if err := proc.Continue(); err != nil {
			goto sessionEnd
		}
	}
sessionEnd:
	// Remove the breakpoint (requires a paused process) and let the
	// application run to completion.
	if _, done := proc.ExitStatus(); !done {
		if err := proc.Stop(); err == nil {
			proc.RemoveProbe(probeID)
			proc.Continue()
		}
	}
	pc.Wait(20*time.Second, proc.Exited())
	st, _ := proc.ExitStatus()
	fmt.Fprintf(pc.Stdout(), "DEBUG-END breakpoint=%s hits=%d status=%s\n", bp, hits, st)
	return 0
}
