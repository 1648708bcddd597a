// Package tools provides two additional run-time tools built purely on
// the TDP library, used to demonstrate the paper's m + n claim: with
// TDP, any tool runs under any resource manager without per-pair
// porting.
//
//   - Tracer: a Vampir/PCL-style event tracer. It represents the
//     paper's case-1/case-2 tools that must be in place before the
//     application starts executing ("the Vampir trace tool requires
//     the tracing to be started before the application starts
//     execution", §2.2) — it refuses to attach to an already-running
//     process.
//
//   - Debugger: a gdb/TotalView-style controller. It sets a
//     breakpoint on a function, and on each hit pauses the
//     application, "inspects" it, publishes the stop in the attribute
//     space (the §2 process-control bullet: pause/resume must be
//     coordinated with the RM), and resumes.
package tools

import (
	"context"
	"fmt"
	"time"

	"tdp"
	"tdp/internal/procsim"
	"tdp/internal/toolapi"
)

// Tracer returns the event-tracing tool factory. The resulting daemon
// writes one line per traced event to its stdout (which an RM routes
// to the tool output file): "TRACE <enter|leave> <fn> <us-since-start>".
func Tracer() toolapi.Factory {
	return func(env toolapi.Env, args []string) procsim.Program {
		return procsim.ProgramFunc(func(pc *procsim.ProcContext) int {
			return runTracer(env, pc)
		})
	}
}

func runTracer(env toolapi.Env, pc *procsim.ProcContext) int {
	fail := func(stage string, err error) int {
		fmt.Fprintf(pc.Stderr(), "tracer: %s: %v\n", stage, err)
		return 1
	}
	h, err := tdp.Init(tdp.Config{
		Context:  env.Context,
		LASSAddr: env.LASSAddr,
		Dial:     env.Dial,
		Kernel:   env.Kernel,
		Identity: "tracer",
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
	// Tracing must start before the application does: insist on the
	// created (exec-paused) state before attaching.
	kproc, err := env.Kernel.Process(pid)
	if err != nil {
		return fail("lookup", err)
	}
	if kproc.State() != procsim.StateCreated {
		return fail("precondition", fmt.Errorf(
			"application already %s; the tracer requires create-paused mode (+SuspendJobAtExec)", kproc.State()))
	}
	proc, err := h.Attach(pid)
	if err != nil {
		return fail("tdp_attach", err)
	}

	type event struct {
		kind string
		fn   string
		at   time.Duration
	}
	events := make(chan event, 4096)
	start := time.Now()
	for _, sym := range proc.Symbols() {
		sym := sym
		if _, err := proc.InsertProbe(sym,
			func(*procsim.ProcContext) {
				select {
				case events <- event{"enter", sym, time.Since(start)}:
				default: // ring overflow: drop rather than stall the app
				}
			},
			func(*procsim.ProcContext) {
				select {
				case events <- event{"leave", sym, time.Since(start)}:
				default:
				}
			}); err != nil {
			return fail("instrument "+sym, err)
		}
	}

	if err := h.Put(tdp.AttrToolReady, "1"); err != nil {
		return fail("tool_ready", err)
	}
	if err := proc.Continue(); err != nil {
		return fail("tdp_continue", err)
	}

	// Drain events until the application exits, then flush.
	count := 0
	flush := func() {
		for {
			select {
			case e := <-events:
				fmt.Fprintf(pc.Stdout(), "TRACE %s %s %d\n", e.kind, e.fn, e.at.Microseconds())
				count++
			default:
				return
			}
		}
	}
	for !pc.Wait(2*time.Millisecond, proc.Exited()) {
		flush()
	}
	flush()
	st, _ := proc.ExitStatus()
	fmt.Fprintf(pc.Stdout(), "TRACE-END %s events=%d\n", st, count)
	return 0
}
