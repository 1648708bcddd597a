// Package rmkit provides two additional resource managers — a plain
// fork-style runner and a PBS-like FIFO queue — built on the same TDP
// library as the Condor miniature. Together with the three run-time
// tools (paradynd, tracer, debugger) they demonstrate the paper's
// central claim: porting m tools and n resource managers to TDP costs
// m + n adapters, after which all m × n pairings work. The whole
// RM-side adapter is the Launch function below.
package rmkit

import (
	"fmt"
	"io"
	"time"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/toolapi"
)

// JobSpec describes one job for the rmkit resource managers.
type JobSpec struct {
	Name     string
	Program  procsim.Program
	Symbols  []string
	Args     []string
	Stdin    io.Reader
	Stdout   io.Writer
	Stderr   io.Writer
	Paused   bool // create the process suspended at exec (for tools)
	Tool     toolapi.Factory
	ToolArgs []string
	ToolOut  io.Writer
	ToolErr  io.Writer
	Timeout  time.Duration // 0 means 60s
}

// Host is the execution environment an rmkit RM runs jobs on: a
// process kernel plus a LASS. It is the rmkit equivalent of a condor
// Machine.
type Host struct {
	Name     string
	Kernel   *procsim.Kernel
	LASS     *attrspace.Server
	LASSAddr string
	Dial     attrspace.DialFunc
}

// NewHost boots an execution host with a loopback-TCP LASS.
func NewHost(name string) (*Host, error) {
	srv, addr, err := tdp.ServeLASS("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rmkit: host %s: %w", name, err)
	}
	return &Host{Name: name, Kernel: procsim.NewKernel(), LASS: srv, LASSAddr: addr}, nil
}

// Close shuts down the host's LASS.
func (h *Host) Close() { h.LASS.Close() }

// Launch is the complete RM-side TDP integration: create the
// application (paused when a tool is present), launch the tool daemon,
// publish the pid, monitor status, wait for completion. Every rmkit RM
// — and in spirit, any RM — is this function plus scheduling policy.
func Launch(host *Host, jobCtx string, spec JobSpec, tracer *telemetry.Tracer, rmIdentity string) (procsim.ExitStatus, error) {
	if spec.Timeout <= 0 {
		spec.Timeout = 60 * time.Second
	}
	h, err := tdp.Init(tdp.Config{
		Context:  jobCtx,
		LASSAddr: host.LASSAddr,
		Dial:     host.Dial,
		Kernel:   host.Kernel,
		Identity: rmIdentity,
		Tracer:   tracer,
	})
	if err != nil {
		return procsim.ExitStatus{}, err
	}
	defer h.Exit()

	mode := tdp.StartRun
	if spec.Paused || spec.Tool != nil {
		mode = tdp.StartPaused
	}
	ap, err := h.CreateProcess(tdp.ProcessSpec{
		Executable: spec.Name,
		Args:       spec.Args,
		Program:    spec.Program,
		Symbols:    spec.Symbols,
		Stdin:      spec.Stdin,
		Stdout:     spec.Stdout,
		Stderr:     spec.Stderr,
	}, mode)
	if err != nil {
		return procsim.ExitStatus{}, err
	}
	stopMon, err := h.MonitorProcess(ap)
	if err != nil {
		return procsim.ExitStatus{}, err
	}
	defer stopMon()

	var rt *tdp.Process
	if spec.Tool != nil {
		env := toolapi.Env{
			Machine:  host.Name,
			Kernel:   host.Kernel,
			LASSAddr: host.LASSAddr,
			Dial:     host.Dial,
			Context:  jobCtx,
			Tracer:   tracer,
		}
		rt, err = h.CreateProcess(tdp.ProcessSpec{
			Executable: "tool",
			Args:       spec.ToolArgs,
			Program:    spec.Tool(env, spec.ToolArgs),
			Stdout:     spec.ToolOut,
			Stderr:     spec.ToolErr,
		}, tdp.StartRun)
		if err != nil {
			ap.Kill("")
			return procsim.ExitStatus{}, fmt.Errorf("rmkit: launch tool: %w", err)
		}
		if err := h.PublishPID(ap); err != nil {
			ap.Kill("")
			rt.Kill("")
			return procsim.ExitStatus{}, err
		}
	}

	exit, err := waitWithTimeout(ap, spec.Timeout)
	host.Kernel.Reap(ap.PID())
	if rt != nil {
		reapTool(rt)
		host.Kernel.Reap(rt.PID())
	}
	return exit, err
}

func waitWithTimeout(p *tdp.Process, d time.Duration) (procsim.ExitStatus, error) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.Exited():
		return p.Wait()
	case <-t.C:
		p.Kill("SIGKILL")
		exit, err := p.Wait()
		if err != nil {
			return procsim.ExitStatus{}, fmt.Errorf("rmkit: job timed out: %w", err)
		}
		return exit, fmt.Errorf("rmkit: job exceeded %v and was killed", d)
	}
}

// toolGrace is how long a tool may outlive its application before
// reapTool kills it; a variable so that a test need not wait it out.
var toolGrace = 5 * time.Second

func reapTool(rt *tdp.Process) {
	t := time.NewTimer(toolGrace)
	defer t.Stop()
	select {
	case <-rt.Exited():
	case <-t.C:
		rt.Kill("SIGKILL")
		<-rt.Exited()
	}
}
