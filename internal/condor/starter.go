package condor

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"tdp"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
)

// ActivationRequest is everything the shadow sends to the execute
// machine to run one job instance (one rank, for MPI).
type ActivationRequest struct {
	Schedd  string // claiming schedd name
	JobID   int
	Submit  *SubmitFile
	Context string // TDP attribute space context for this instance
	Rank    int    // MPI rank; 0 for sequential jobs
	Ranks   int    // MPI world size; 1 for sequential jobs

	// Stdio endpoints on the submit side (the shadow performs the
	// job's I/O at the submit machine, §4.1).
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer

	// SubmitFiles is the submit machine's file store, the source for
	// transfer_input_files staging and the destination for tool output
	// files transferred back.
	SubmitFiles *FileStore

	// ToolReady, when non-nil, receives one signal when the tool
	// daemon reports initialization complete (tdp.AttrToolReady) —
	// used by the MPI shadow to hold back ranks 1..N-1 until rank 0's
	// tool is in control.
	ToolReady chan<- struct{}

	// Report receives the job's final status exactly once.
	Report func(StarterReport)

	// Timeout bounds the whole execution; 0 means no bound.
	Timeout time.Duration

	// RestartData resumes a standard-universe job from a checkpoint
	// captured on a previous (vacated) execution.
	RestartData string
}

// StarterReport is the starter's completion message to the shadow.
type StarterReport struct {
	JobID   int
	Machine string
	Rank    int
	Exit    procsim.ExitStatus
	Err     error // non-nil when the job could not be run
	ToolOut []byte
	ToolErr []byte
	// Checkpoint carries the job's last saved checkpoint (standard
	// universe); the shadow uses it to resume after a vacate.
	Checkpoint    string
	HasCheckpoint bool
}

// Starter is the entity that spawns and supervises the job on the
// execute machine (§4.1), extended with the paper's §4.3 TDP sequence
// when the submit file carries ToolDaemon entries.
type Starter struct {
	sd  *Startd
	req *ActivationRequest

	mu sync.Mutex
	ap *tdp.Process // the running application, for Vacate
}

// Vacate reclaims the machine: the application is killed with
// SIGVACATE after its checkpoint (if any) is safe, and the shadow
// restarts standard-universe jobs elsewhere.
func (st *Starter) Vacate() error {
	st.mu.Lock()
	ap := st.ap
	st.mu.Unlock()
	if ap == nil {
		return fmt.Errorf("condor: job %d not running here", st.req.JobID)
	}
	if st.sd.tracer != nil {
		st.sd.tracer.Step("starter", "vacate", fmt.Sprintf("job=%d", st.req.JobID))
	}
	return ap.Kill("SIGVACATE")
}

func (st *Starter) setAP(ap *tdp.Process) {
	st.mu.Lock()
	st.ap = ap
	st.mu.Unlock()
}

// Suspend pauses the job at its next safe point (condor_hold style).
// A job controlled by an attached tool cannot be suspended by the RM —
// process control belongs to exactly one entity at a time (§2.3); the
// RM coordinates with the tool through the attribute space instead.
func (st *Starter) Suspend() error {
	st.mu.Lock()
	ap := st.ap
	st.mu.Unlock()
	if ap == nil {
		return fmt.Errorf("condor: job %d not running here", st.req.JobID)
	}
	if st.sd.tracer != nil {
		st.sd.tracer.Step("starter", "suspend", fmt.Sprintf("job=%d", st.req.JobID))
	}
	return ap.Stop()
}

// Resume continues a suspended job.
func (st *Starter) Resume() error {
	st.mu.Lock()
	ap := st.ap
	st.mu.Unlock()
	if ap == nil {
		return fmt.Errorf("condor: job %d not running here", st.req.JobID)
	}
	if st.sd.tracer != nil {
		st.sd.tracer.Step("starter", "resume", fmt.Sprintf("job=%d", st.req.JobID))
	}
	return ap.Continue()
}

func newStarter(sd *Startd, req *ActivationRequest) *Starter {
	return &Starter{sd: sd, req: req}
}

// run executes the job and reports. It is the starter's main line.
func (st *Starter) run() {
	defer st.sd.starterDone(st)
	report := st.execute()
	report.JobID = st.req.JobID
	report.Machine = st.sd.machine.Name()
	report.Rank = st.req.Rank
	if st.req.Report != nil {
		st.req.Report(report)
	}
}

func (st *Starter) execute() StarterReport {
	req := st.req
	machine := st.sd.machine

	// Stage input files from the submit machine (transfer_input_files).
	for _, f := range req.Submit.TransferInput {
		if !req.SubmitFiles.CopyTo(machine.Files(), f) {
			return StarterReport{Err: fmt.Errorf("condor: transfer_input_files: %q not found on submit machine", f)}
		}
		st.sd.tracer.Step("starter", "transfer_input", f)
	}

	// Resolve the executable on this machine.
	exe, err := st.sd.registry.Program(req.Submit.Executable)
	if err != nil {
		return StarterReport{Err: err}
	}
	args := append([]string(nil), req.Submit.Arguments...)
	if req.Submit.Universe == UniverseMPI {
		args = append(args, fmt.Sprintf("--mpi-rank=%d", req.Rank), fmt.Sprintf("--mpi-size=%d", req.Ranks))
	}
	program, symbols := exe(args)

	// Input: a named input file is staged content; otherwise the
	// shadow-provided stream.
	stdin := req.Stdin
	if req.Submit.Input != "" {
		data, ok := machine.Files().Read(req.Submit.Input)
		if !ok {
			// Fall back to the submit store (models shadow remote I/O).
			data, ok = req.SubmitFiles.Read(req.Submit.Input)
		}
		if !ok {
			return StarterReport{Err: fmt.Errorf("condor: input file %q not found", req.Submit.Input)}
		}
		stdin = bytes.NewReader(data)
	}

	spec := tdp.ProcessSpec{
		Executable:  req.Submit.Executable,
		Args:        args,
		Program:     program,
		Symbols:     symbols,
		Stdin:       stdin,
		Stdout:      req.Stdout,
		Stderr:      req.Stderr,
		RestartData: req.RestartData,
	}

	if req.Submit.ToolDaemon == nil {
		return st.runPlain(spec)
	}
	return st.runWithTool(spec)
}

// runPlain is the classic starter path: spawn the job, wait, report.
func (st *Starter) runPlain(spec tdp.ProcessSpec) StarterReport {
	machine := st.sd.machine
	h, err := tdp.Init(tdp.Config{
		Context:  st.req.Context,
		LASSAddr: machine.LASSAddr(),
		Dial:     machine.Dial(),
		Kernel:   machine.Kernel(),
		Identity: "starter",
		Tracer:   st.sd.tracer,
	})
	if err != nil {
		return StarterReport{Err: err}
	}
	defer h.Exit()

	mode := tdp.StartRun
	if st.req.Submit.SuspendJobAtExec {
		// Suspended-at-exec without a tool makes no sense; honor it
		// anyway — something else may continue the job via the kernel.
		mode = tdp.StartPaused
	}
	ap, err := h.CreateProcess(spec, mode)
	if err != nil {
		return StarterReport{Err: err}
	}
	defer st.reap(ap)
	st.setAP(ap)
	st.sd.tracer.Step("starter", "spawn_job", spec.Executable)
	telemetry.Default().Counter("condor.jobs.started").Inc()
	exit, err := st.waitProcess(ap)
	if err != nil {
		return StarterReport{Err: err}
	}
	if st.sd.tracer != nil {
		st.sd.tracer.Step("starter", "job_exit", exit.String())
	}
	ck, hasCk := ap.CheckpointData()
	return StarterReport{Exit: exit, Checkpoint: ck, HasCheckpoint: hasCk}
}

// runWithTool is the §4.3 Figure-6 sequence:
//
//	Step 1: starter tdp_init, then tdp_create_process(AP, paused);
//	Step 2: starter tdp_create_process(paradynd, run);
//	Step 3: paradynd tdp_init, blocking tdp_get("pid"); starter
//	        tdp_put("pid"); paradynd tdp_attach + tdp_continue;
//	Step 4: the tool controls the application as usual.
func (st *Starter) runWithTool(spec tdp.ProcessSpec) StarterReport {
	req := st.req
	machine := st.sd.machine
	td := req.Submit.ToolDaemon

	// The tool daemon executable may itself have been staged.
	tool, err := st.sd.registry.Tool(td.Cmd)
	if err != nil {
		return StarterReport{Err: err}
	}

	// Step 1: initialize the TDP framework (creates/joins the LASS
	// context through which starter and tool communicate).
	h, err := tdp.Init(tdp.Config{
		Context:  req.Context,
		LASSAddr: machine.LASSAddr(),
		Dial:     machine.Dial(),
		Kernel:   machine.Kernel(),
		Identity: "starter",
		Tracer:   st.sd.tracer,
	})
	if err != nil {
		return StarterReport{Err: err}
	}
	defer h.Exit()

	mode := tdp.StartRun
	if req.Submit.SuspendJobAtExec {
		mode = tdp.StartPaused
	}
	ap, err := h.CreateProcess(spec, mode)
	if err != nil {
		return StarterReport{Err: err}
	}
	defer st.reap(ap)
	st.setAP(ap)
	if st.sd.tracer != nil {
		st.sd.tracer.Step("starter", "spawn_job", spec.Executable+","+mode.String())
	}
	telemetry.Default().Counter("condor.jobs.started").Inc()

	// The RM owns status monitoring (§2.3): publish process state
	// transitions into the attribute space for the tool to observe.
	stopMon, err := h.MonitorProcess(ap)
	if err != nil {
		return StarterReport{Err: err}
	}
	defer stopMon()

	// The "complete TDP framework" of §4.3: instead of hard-coding the
	// front-end ports in the tool arguments, the submit file (or the
	// CASS, via the submitter) carries the front-end address and the
	// starter disseminates it as an attribute value; a tool with no -m/-p
	// arguments reads it from the LASS. The address may be the RM's
	// proxy when a firewall separates the networks (§2.4).
	frontendAddr := req.Submit.ExtraAttrs["FrontendAddr"]

	// Auxiliary service (§2's AS bullet): when the submit file asks for
	// one, the starter launches it pointed at the front-end and hands
	// the tool the SERVICE's address instead — transparent interposition
	// (a reduction-network node, a trace collector, ...). The RM, not
	// the tool, owns this launch.
	if as := req.Submit.AuxService; as != nil {
		auxFactory, err := st.sd.registry.Aux(as.Cmd)
		if err != nil {
			ap.Kill("")
			return StarterReport{Err: err}
		}
		env := ToolEnv{
			Machine: machine.Name(), Kernel: machine.Kernel(),
			LASSAddr: machine.LASSAddr(), Dial: machine.Dial(),
			Context: req.Context, Rank: req.Rank, Tracer: st.sd.tracer,
			NetListen: machine.Listen,
		}
		auxAddr, shutdown, err := auxFactory(env, as.Args, frontendAddr)
		if err != nil {
			ap.Kill("")
			return StarterReport{Err: fmt.Errorf("condor: launch aux service: %w", err)}
		}
		defer shutdown()
		if st.sd.tracer != nil {
			st.sd.tracer.Step("starter", "spawn_aux", as.Cmd+"@"+auxAddr)
		}
		frontendAddr = auxAddr
	}

	if frontendAddr != "" {
		if err := h.Put(tdp.AttrFrontendAddr, frontendAddr); err != nil {
			return StarterReport{Err: err}
		}
	}

	// Watch for the tool's ready mark to release MPI rank holds.
	if req.ToolReady != nil {
		ready := req.ToolReady
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := h.Get(ctx, tdp.AttrToolReady); err == nil {
				ready <- struct{}{}
			}
		}()
	}

	// Step 2: launch the tool daemon as a regular (running) process.
	var toolOut, toolErr bytes.Buffer
	env := ToolEnv{
		Machine:  machine.Name(),
		Kernel:   machine.Kernel(),
		LASSAddr: machine.LASSAddr(),
		Dial:     machine.Dial(),
		Context:  req.Context,
		Rank:     req.Rank,
		Tracer:   st.sd.tracer,
	}
	// The tool's arguments pass through verbatim, including the paper's
	// "-a%pid" marker: it shows "which information the starter should
	// put into LASS and which information should paradynd get from
	// there" (§4.3) — the starter puts AttrPID below and the tool,
	// finding no concrete process reference in its argv, fetches it.
	toolArgs := append([]string(nil), td.Args...)
	rt, err := h.CreateProcess(tdp.ProcessSpec{
		Executable: td.Cmd,
		Args:       toolArgs,
		Program:    tool(env, toolArgs),
		Stdout:     &toolOut,
		Stderr:     &toolErr,
	}, tdp.StartRun)
	if err != nil {
		ap.Kill("")
		return StarterReport{Err: fmt.Errorf("condor: launch tool daemon: %w", err)}
	}
	defer st.reap(rt)
	st.sd.tracer.Step("starter", "spawn_tool", td.Cmd)
	telemetry.Default().Counter("condor.tools.launched").Inc()

	// Step 3 (starter half): publish the application pid. The tool is
	// blocked in tdp_get("pid") until this put lands.
	if err := h.PublishPID(ap); err != nil {
		ap.Kill("")
		rt.Kill("")
		return StarterReport{Err: err}
	}

	// Step 4: the tool attaches, instruments, continues, and controls
	// the application; the starter waits for the application to finish.
	exit, err := st.waitProcess(ap)
	if err != nil {
		rt.Kill("")
		return StarterReport{Err: err}
	}
	if st.sd.tracer != nil {
		st.sd.tracer.Step("starter", "job_exit", exit.String())
	}

	// Give the tool a grace period to wind down, then reap it.
	st.reapTool(rt)

	// Transfer the tool's output files back to the submit machine
	// (+ToolDaemonOutput / +ToolDaemonError).
	if td.Output != "" {
		req.SubmitFiles.Write(td.Output, toolOut.Bytes())
		st.sd.tracer.Step("starter", "transfer_tool_output", td.Output)
	}
	if td.Error != "" {
		req.SubmitFiles.Write(td.Error, toolErr.Bytes())
	}
	ck, hasCk := ap.CheckpointData()
	return StarterReport{
		Exit: exit, ToolOut: toolOut.Bytes(), ToolErr: toolErr.Bytes(),
		Checkpoint: ck, HasCheckpoint: hasCk,
	}
}

// waitProcess waits for exit, honoring the request timeout.
func (st *Starter) waitProcess(p *tdp.Process) (procsim.ExitStatus, error) {
	if st.req.Timeout <= 0 {
		return p.Wait()
	}
	if closedWithin(p.Exited(), st.req.Timeout) {
		return p.Wait()
	}
	p.Kill("SIGKILL")
	exit, err := p.Wait()
	if err != nil {
		return procsim.ExitStatus{}, fmt.Errorf("condor: job timed out: %w", err)
	}
	return exit, fmt.Errorf("condor: job exceeded %v and was killed", st.req.Timeout)
}

// reapTool waits briefly for the tool daemon to exit on its own (it
// normally does, once the application it monitors is gone) and kills
// it otherwise.
func (st *Starter) reapTool(rt *tdp.Process) {
	if !closedWithin(rt.Exited(), 5*time.Second) {
		rt.Kill("SIGKILL")
		<-rt.Exited()
	}
}

// reap takes a child the starter spawned out of the kernel's process
// table once it has exited, as wait(2) would: the table holds zombies
// until their parent collects them, and a machine runs many jobs. A
// child still unwinding from a kill on an error path is left behind
// (Reap refuses the living) rather than waited for.
func (st *Starter) reap(p *tdp.Process) { st.sd.machine.Kernel().Reap(p.PID()) }
