package condor

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tdp"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/testkit"
)

// newTestPool builds a pool with n standard execute machines and the
// default program set registered.
func newTestPool(t *testing.T, n int, tr *telemetry.Tracer) *Pool {
	t.Helper()
	pool := NewPool(PoolOptions{Tracer: tr, NegotiationTimeout: 2 * time.Second, JobTimeout: 30 * time.Second})
	t.Cleanup(pool.Close)
	for i := 0; i < n; i++ {
		_, err := pool.AddMachine(MachineConfig{
			Name:   fmt.Sprintf("node%d", i+1),
			Arch:   "INTEL",
			OpSys:  "LINUX",
			Memory: 128,
		})
		if err != nil {
			t.Fatalf("AddMachine: %v", err)
		}
	}
	registerTestPrograms(pool.Registry())
	return pool
}

func registerTestPrograms(reg *Registry) {
	reg.RegisterProgram("foo", func(args []string) (procsim.Program, []string) {
		phases := []procsim.PhaseSpec{{Name: "work", Units: 2}}
		return procsim.NewPhasedProgram(3, phases), procsim.PhasedSymbols(phases)
	})
	reg.RegisterProgram("exit7", func(args []string) (procsim.Program, []string) {
		return procsim.NewExitingProgram(7), procsim.StdSymbols
	})
	reg.RegisterProgram("echo", func(args []string) (procsim.Program, []string) {
		return procsim.NewEchoProgram("> "), procsim.StdSymbols
	})
}

// registerTestTool installs a minimal TDP run-time tool: it inits TDP,
// fetches the pid, attaches, instruments "work" when present, marks
// itself ready, continues the application, waits for the exit status
// through the attribute space, and reports probe counts on stdout.
func registerTestTool(reg *Registry, name string) {
	reg.RegisterTool(name, func(env ToolEnv, args []string) procsim.Program {
		return procsim.ProgramFunc(func(pc *procsim.ProcContext) int {
			h, err := tdp.Init(tdp.Config{
				Context:  env.Context,
				LASSAddr: env.LASSAddr,
				Dial:     env.Dial,
				Kernel:   env.Kernel,
				Identity: name,
				Tracer:   env.Tracer,
			})
			if err != nil {
				fmt.Fprintf(pc.Stderr(), "tool init: %v\n", err)
				return 1
			}
			defer h.Exit()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			pid, err := h.GetPID(ctx)
			if err != nil {
				fmt.Fprintf(pc.Stderr(), "tool getpid: %v\n", err)
				return 1
			}
			p, err := h.Attach(pid)
			if err != nil {
				fmt.Fprintf(pc.Stderr(), "tool attach: %v\n", err)
				return 1
			}
			calls := 0
			for _, sym := range p.Symbols() {
				if sym == "work" || sym == "compute" {
					p.InsertProbe(sym, func(*procsim.ProcContext) { calls++ }, nil)
				}
			}
			h.Put(tdp.AttrToolReady, "1")
			if err := p.Continue(); err != nil {
				fmt.Fprintf(pc.Stderr(), "tool continue: %v\n", err)
				return 1
			}
			status, err := h.WaitStatus(ctx, "exited:")
			if err != nil {
				fmt.Fprintf(pc.Stderr(), "tool waitstatus: %v\n", err)
				return 1
			}
			fmt.Fprintf(pc.Stdout(), "tool %s observed %s with %d probe hits\n", name, status, calls)
			return 0
		})
	})
}

func TestVanillaJobRuns(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	jobs, err := pool.Submit("universe = Vanilla\nexecutable = exit7\nqueue\n")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	st, err := jobs[0].WaitExit(10 * time.Second)
	if err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if st.Code != 7 {
		t.Errorf("exit = %v", st)
	}
	if jobs[0].Status() != StatusCompleted {
		t.Errorf("status = %v", jobs[0].Status())
	}
	if jobs[0].Machine() != "node1" {
		t.Errorf("machine = %q", jobs[0].Machine())
	}
}

func TestJobStdioThroughShadow(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	pool.SubmitFiles().Write("infile", []byte("hello\ncondor\n"))
	jobs, err := pool.Submit("executable = echo\ninput = infile\noutput = outfile\nqueue\n")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := jobs[0].WaitExit(10 * time.Second)
	if err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if st.Code != 2 { // echo exits with line count
		t.Errorf("exit = %v", st)
	}
	if got := jobs[0].Output(); got != "> hello\n> condor\n" {
		t.Errorf("output = %q", got)
	}
	// Output file transferred back to the submit machine.
	data, ok := pool.SubmitFiles().Read("outfile")
	if !ok || string(data) != "> hello\n> condor\n" {
		t.Errorf("outfile = %q, %v", data, ok)
	}
}

func TestUnknownExecutableHoldsJob(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	jobs, _ := pool.Submit("executable = nosuch\nqueue\n")
	<-jobs[0].Done()
	if jobs[0].Status() != StatusHeld {
		t.Fatalf("status = %v", jobs[0].Status())
	}
	if !strings.Contains(jobs[0].HoldReason(), "no such executable") {
		t.Errorf("hold reason = %q", jobs[0].HoldReason())
	}
}

func TestMissingTransferInputHoldsJob(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	jobs, _ := pool.Submit("executable = exit7\ntransfer_input_files = missing.cfg\nqueue\n")
	<-jobs[0].Done()
	if jobs[0].Status() != StatusHeld {
		t.Fatalf("status = %v", jobs[0].Status())
	}
}

func TestTransferInputStaged(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	pool.SubmitFiles().Write("tool.cfg", []byte("cfg"))
	jobs, _ := pool.Submit("executable = exit7\ntransfer_input_files = tool.cfg\nqueue\n")
	if _, err := jobs[0].WaitExit(10 * time.Second); err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if !pool.Machine("node1").Files().Exists("tool.cfg") {
		t.Error("input file not staged to execute machine")
	}
}

func TestNoMatchingMachineHolds(t *testing.T) {
	pool := NewPool(PoolOptions{NegotiationTimeout: 100 * time.Millisecond})
	t.Cleanup(pool.Close)
	pool.AddMachine(MachineConfig{Name: "small", Arch: "INTEL", OpSys: "LINUX", Memory: 1})
	registerTestPrograms(pool.Registry())
	jobs, _ := pool.Submit("executable = exit7\nimage_size = 999999999\nqueue\n")
	<-jobs[0].Done()
	if jobs[0].Status() != StatusHeld {
		t.Fatalf("status = %v, want Held", jobs[0].Status())
	}
}

func TestRequirementsSelectMachine(t *testing.T) {
	pool := NewPool(PoolOptions{NegotiationTimeout: 2 * time.Second})
	t.Cleanup(pool.Close)
	pool.AddMachine(MachineConfig{Name: "linuxbox", Arch: "INTEL", OpSys: "LINUX", Memory: 128})
	pool.AddMachine(MachineConfig{Name: "sunbox", Arch: "SPARC", OpSys: "SOLARIS", Memory: 512})
	registerTestPrograms(pool.Registry())
	jobs, err := pool.Submit(`executable = exit7
requirements = Arch == "SPARC"
queue
`)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := jobs[0].WaitExit(10 * time.Second); err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if jobs[0].Machine() != "sunbox" {
		t.Errorf("machine = %q, want sunbox", jobs[0].Machine())
	}
}

func TestRankPrefersBiggerMachine(t *testing.T) {
	pool := NewPool(PoolOptions{NegotiationTimeout: 2 * time.Second})
	t.Cleanup(pool.Close)
	pool.AddMachine(MachineConfig{Name: "small", Arch: "INTEL", OpSys: "LINUX", Memory: 64})
	pool.AddMachine(MachineConfig{Name: "big", Arch: "INTEL", OpSys: "LINUX", Memory: 1024})
	registerTestPrograms(pool.Registry())
	jobs, _ := pool.Submit("executable = exit7\nrank = Memory\nqueue\n")
	if _, err := jobs[0].WaitExit(10 * time.Second); err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if jobs[0].Machine() != "big" {
		t.Errorf("machine = %q, want big", jobs[0].Machine())
	}
}

func TestQueueManyJobsAcrossMachines(t *testing.T) {
	pool := newTestPool(t, 3, nil)
	jobs, err := pool.Submit("executable = exit7\nqueue 6\n")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	machines := make(map[string]int)
	for _, j := range jobs {
		if _, err := j.WaitExit(20 * time.Second); err != nil {
			t.Fatalf("job %d: %v", j.ID, err)
		}
		machines[j.Machine()]++
	}
	if len(machines) == 0 {
		t.Fatal("no machines used")
	}
	total := 0
	for _, n := range machines {
		total += n
	}
	if total != 6 {
		t.Errorf("jobs placed = %d", total)
	}
}

func TestClaimingProtocolRefusal(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	sd := pool.Startd("node1")
	if err := sd.RequestClaim("other-schedd"); err != nil {
		t.Fatalf("claim: %v", err)
	}
	if err := sd.RequestClaim("schedd"); err == nil {
		t.Error("second claim by different schedd accepted")
	}
	// Same claimant may re-claim.
	if err := sd.RequestClaim("other-schedd"); err != nil {
		t.Errorf("re-claim by holder: %v", err)
	}
	if sd.ClaimedBy() != "other-schedd" {
		t.Errorf("ClaimedBy = %q", sd.ClaimedBy())
	}
	sd.ReleaseClaim("other-schedd")
	if sd.ClaimedBy() != "" {
		t.Error("claim not released")
	}
	// Releasing by a non-holder is a no-op.
	sd.RequestClaim("a")
	sd.ReleaseClaim("b")
	if sd.ClaimedBy() != "a" {
		t.Error("release by non-holder cleared claim")
	}
	sd.ReleaseClaim("a")
}

func TestActivateWithoutClaimFails(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	sd := pool.Startd("node1")
	_, err := sd.Activate(&ActivationRequest{Schedd: "schedd", Submit: &SubmitFile{Executable: "exit7"}})
	if err == nil {
		t.Error("activation without claim succeeded")
	}
}

// TestFigure4CondorFlow asserts the daemon interaction sequence of the
// paper's Figure 4: submit → matchmaker negotiation → claim → shadow →
// starter → job → status return.
func TestFigure4CondorFlow(t *testing.T) {
	tr := telemetry.NewTracer("test")
	pool := newTestPool(t, 1, tr)
	jobs, err := pool.Submit("executable = exit7\nqueue\n")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := jobs[0].WaitExit(10 * time.Second); err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if err := testkit.StepsOf(t, tr).CheckOrder(
		"schedd:submit",
		"schedd:spawn_shadow",
		"matchmaker:negotiate",
		"startd:claim_accepted",
		"shadow:activate",
		"startd:spawn_starter",
		"starter:spawn_job",
		"starter:job_exit",
		"shadow:final_status",
	); err != nil {
		t.Error(err)
	}
	// The machine is advertised before any job arrives.
	if !testkit.StepsOf(t, tr).Before("matchmaker:advertise_machine", "schedd:submit") {
		t.Error("machine advertisement did not precede submission")
	}
}

// TestFigure6LaunchSteps runs the paper's Figure 5B job (adapted to
// the test registry) and asserts the starter/tool TDP call sequence of
// Figure 6 as the partial order the figure draws: the starter's chain
// (tdp_init → create(AP, paused) → create(tool) → put(pid) → exit
// status) and the tool's (tdp_init → get → attach → continue) each in
// order, joined only where one causes the other — the pid put lets the
// tool attach, and the tool's continue lets the job run to its exit.
// Whether the tool's tdp_init comes before or after the starter's put
// is a race between two processes, and says nothing.
func TestFigure6LaunchSteps(t *testing.T) {
	tr := telemetry.NewTracer("test")
	pool := newTestPool(t, 1, tr)
	registerTestTool(pool.Registry(), "testtool")
	pool.SubmitFiles().Write("infile", []byte(""))
	pool.SubmitFiles().Write("testtool", []byte("binary"))

	submit := strings.ReplaceAll(figure5B, `"paradynd"`, `"testtool"`)
	submit = strings.ReplaceAll(submit, "tranfer_input_files = paradynd", "tranfer_input_files = testtool")
	jobs, err := pool.Submit(submit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := jobs[0].WaitExit(20 * time.Second)
	if err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if st.Code != 0 {
		t.Errorf("exit = %v", st)
	}

	for _, chain := range [][]string{
		{
			"starter:tdp_init",
			"starter:tdp_create_process", // AP, paused
			"starter:spawn_job",
			"starter:tdp_create_process", // tool, run
			"starter:spawn_tool",
			"starter:tdp_put", // pid
			"starter:job_exit",
		},
		{"testtool:tdp_init", "testtool:tdp_get", "testtool:tdp_attach", "testtool:tdp_continue_process"},
		{"starter:tdp_put", "testtool:tdp_attach", "testtool:tdp_continue_process", "starter:job_exit"},
	} {
		if err := testkit.StepsOf(t, tr).CheckOrder(chain...); err != nil {
			t.Error(err)
		}
	}

	// The AP must have been created paused (SuspendJobAtExec).
	found := false
	for _, sp := range tr.Spans() {
		if sp.Actor == "starter" && sp.Name == "tdp_create_process" && sp.Fields["detail"] == "foo,paused" {
			found = true
		}
	}
	if !found {
		t.Error("application was not created paused")
	}

	// Tool output file came back to the submit machine.
	data, ok := pool.SubmitFiles().Read("daemon.out")
	if !ok {
		t.Fatal("daemon.out not transferred back")
	}
	if !strings.Contains(string(data), "probe hits") {
		t.Errorf("daemon.out = %q", data)
	}
	if !strings.Contains(jobs[0].ToolOutput(), "exited:exit(0)") {
		t.Errorf("tool output = %q", jobs[0].ToolOutput())
	}
}

func TestToolObservesEveryWorkCall(t *testing.T) {
	// The create-paused handshake means the tool's probes see the very
	// first call — the whole point of §2.2 case 2.
	pool := newTestPool(t, 1, nil)
	registerTestTool(pool.Registry(), "tool")
	jobs, err := pool.Submit(`executable = foo
+SuspendJobAtExec = True
+ToolDaemonCmd = "tool"
+ToolDaemonOutput = "t.out"
queue
`)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := jobs[0].WaitExit(20 * time.Second); err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if !strings.Contains(jobs[0].ToolOutput(), "3 probe hits") {
		t.Errorf("tool output = %q, want 3 probe hits (one per work call)", jobs[0].ToolOutput())
	}
}

func TestPidMarkerPassedThroughToTool(t *testing.T) {
	// The paper's -a%pid marker is NOT substituted by the starter: it
	// tells the starter to put the pid into the LASS and the tool to
	// get it from there (§4.3).
	pool := newTestPool(t, 1, nil)
	argsCh := make(chan []string, 1)
	pool.Registry().RegisterTool("argtool", func(env ToolEnv, args []string) procsim.Program {
		return procsim.ProgramFunc(func(pc *procsim.ProcContext) int {
			argsCh <- args
			// Continue the paused app so the job finishes.
			h, err := tdp.Init(tdp.Config{
				Context: env.Context, LASSAddr: env.LASSAddr, Dial: env.Dial,
				Kernel: env.Kernel, Identity: "argtool",
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
			return 0
		})
	})
	jobs, err := pool.Submit(`executable = exit7
+SuspendJobAtExec = True
+ToolDaemonCmd = "argtool"
+ToolDaemonArgs = "-a%pid -x"
queue
`)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := jobs[0].WaitExit(20 * time.Second); err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	args := <-argsCh
	if len(args) != 2 || args[1] != "-x" {
		t.Fatalf("args = %v", args)
	}
	if args[0] != "-a%pid" {
		t.Errorf("pid arg = %q, want the -a%%pid marker passed through", args[0])
	}
	// The starter put the pid into the LASS; the tool fetched it there
	// (the job completed, which required GetPID to succeed).
}

func TestMPIUniverseRing(t *testing.T) {
	pool := newTestPool(t, 4, nil)
	registerRing(pool.Registry())
	jobs, err := pool.Submit("universe = MPI\nexecutable = ring\nmachine_count = 4\nqueue\n")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := jobs[0].WaitExit(30 * time.Second)
	if err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	// Rank 0 exits with the number of hops = N-1 (token visited every
	// other rank once before returning).
	if st.Code != 3 {
		t.Errorf("ring hops = %d, want 3", st.Code)
	}
	if got := jobs[0].RanksDone(); got != 4 {
		t.Errorf("ranks done = %d", got)
	}
	if got := len(jobs[0].Machines()); got != 4 {
		t.Errorf("machines = %v", jobs[0].Machines())
	}
}

func TestMPIInsufficientMachinesHolds(t *testing.T) {
	pool := NewPool(PoolOptions{NegotiationTimeout: 100 * time.Millisecond})
	t.Cleanup(pool.Close)
	pool.AddMachine(MachineConfig{Name: "only", Arch: "INTEL", OpSys: "LINUX", Memory: 128})
	registerRing(pool.Registry())
	jobs, _ := pool.Submit("universe = MPI\nexecutable = ring\nmachine_count = 3\nqueue\n")
	<-jobs[0].Done()
	if jobs[0].Status() != StatusHeld {
		t.Fatalf("status = %v", jobs[0].Status())
	}
	// Failed negotiation must not leak claims.
	mm := pool.Matchmaker()
	if mm.Claimed("only") {
		t.Error("machine left claimed after failed MPI negotiation")
	}
}

func TestPoolDuplicateMachine(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	if _, err := pool.AddMachine(MachineConfig{Name: "node1", Arch: "X", OpSys: "Y", Memory: 1}); err == nil {
		t.Error("duplicate machine accepted")
	}
}

func TestMatchmakerStats(t *testing.T) {
	tr := telemetry.NewTracer("test")
	pool := newTestPool(t, 1, tr)
	jobs, _ := pool.Submit("executable = exit7\nqueue\n")
	jobs[0].WaitExit(10 * time.Second)
	matches, _ := pool.Matchmaker().Stats()
	if matches < 1 {
		t.Errorf("matches = %d", matches)
	}
	if got := pool.Matchmaker().Machines(); len(got) != 1 || got[0] != "node1" {
		t.Errorf("Machines = %v", got)
	}
}

func TestQueueSummary(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	jobs, _ := pool.Submit("executable = exit7\nqueue 2\n")
	for _, j := range jobs {
		j.WaitExit(15 * time.Second)
	}
	out := pool.QueueSummary()
	if !strings.Contains(out, "exit7") || !strings.Contains(out, "Completed") {
		t.Errorf("summary:\n%s", out)
	}
	if !strings.Contains(out, "2 jobs") || !strings.Contains(out, "2 completed") {
		t.Errorf("counts wrong:\n%s", out)
	}
}

// TestJobsLeaveNothingBehind runs 2,000 tool jobs through one machine
// and checks what a finished job may still hold: no entry in the
// kernel's process table (the starter reaps what it spawned), a place
// in the schedd's bounded history, and no heap — the growth between job
// 500 and job 2,000 must stay under what a few dozen jobs allocate, not
// scale with the 1,500 that ran.
func TestJobsLeaveNothingBehind(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	registerTestTool(pool.Registry(), "tool")
	submit := "executable = foo\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"tool\"\nqueue\n"
	heapAfter := func(jobs int) uint64 {
		for i := 0; i < jobs; i++ {
			js, err := pool.Submit(submit)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if st, err := js[0].WaitExit(30 * time.Second); err != nil || st.Code != 0 || st.Signaled() {
				t.Fatalf("job %d: %v, %v; want exit(0)", js[0].ID, st, err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	at500 := heapAfter(500)
	at2000 := heapAfter(1500)
	if grown := int64(at2000) - int64(at500); grown > 256<<10 {
		t.Errorf("heap grew %d KiB over 1,500 jobs (%d B/job)", grown>>10, grown/1500)
	}
	if procs := pool.Machine("node1").Kernel().Processes(); len(procs) != 0 {
		t.Errorf("%d processes left in the kernel's table, first pid %d (%s)", len(procs), procs[0].PID(), procs[0].State())
	}
	jobs := pool.Schedd().Jobs()
	if len(jobs) > scheddHistory {
		t.Errorf("schedd holds %d jobs, want at most the %d of its history", len(jobs), scheddHistory)
	}
	// The history is the most recent jobs, and condor_q still shows them.
	if last := jobs[len(jobs)-1].ID; last != 2000 {
		t.Errorf("newest job in the queue is %d, want 2000", last)
	}
	if out := pool.QueueSummary(); !strings.Contains(out, "2000 ") || !strings.Contains(out, fmt.Sprintf("%d completed", scheddHistory)) {
		t.Errorf("summary does not list the recent completed jobs:\n%s", out)
	}
}

// TestWaitExitOfFinishedJobArmsNoTimer: WaitExit looks at the job before
// it arms its timeout, so waiting for a job that is already done
// allocates nothing.
func TestWaitExitOfFinishedJobArmsNoTimer(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	jobs, err := pool.Submit("executable = exit7\nqueue\n")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st, err := jobs[0].WaitExit(10 * time.Second); err != nil || st.Code != 7 {
		t.Fatalf("WaitExit = %v, %v; want exit(7)", st, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if st, err := jobs[0].WaitExit(time.Hour); err != nil || st.Code != 7 {
			t.Errorf("WaitExit of a finished job = %v, %v", st, err)
		}
	})
	if allocs != 0 {
		t.Errorf("WaitExit of a finished job allocates %.0f objects, want 0 (no timer)", allocs)
	}
}
