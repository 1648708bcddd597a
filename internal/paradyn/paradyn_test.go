package paradyn

import (
	"net"
	"strings"
	"testing"
	"time"

	"tdp"
	"tdp/internal/condor"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/testkit"
	"tdp/internal/wire"
)

func TestParseDaemonArgsPaperStyle(t *testing.T) {
	// The exact argument vector from Figure 5B.
	args := []string{"-zunix", "-l3", "-mpinguino.cs.wisc.edu", "-p2090", "-P2091", "-a%pid"}
	opts := ParseDaemonArgs(args)
	if opts.FEHost != "pinguino.cs.wisc.edu" || opts.FEPort != 2090 {
		t.Errorf("FE = %q:%d", opts.FEHost, opts.FEPort)
	}
	if opts.Level != 3 {
		t.Errorf("Level = %d", opts.Level)
	}
	if opts.FEPort2 != 2091 {
		t.Errorf("FEPort2 = %d, want 2091", opts.FEPort2)
	}
	if opts.Flavor != "unix" {
		t.Errorf("Flavor = %q, want unix", opts.Flavor)
	}
	if !opts.TDP {
		t.Error("unresolved pid marker must signal TDP mode")
	}
	if opts.FEAddr() != "pinguino.cs.wisc.edu:2090" {
		t.Errorf("FEAddr = %q", opts.FEAddr())
	}
}

func TestParseDaemonArgsAttachMode(t *testing.T) {
	opts := ParseDaemonArgs([]string{"-a1234"})
	if opts.TDP || opts.PID != 1234 {
		t.Errorf("opts = %+v", opts)
	}
	// No -a at all: TDP mode.
	opts = ParseDaemonArgs(nil)
	if !opts.TDP {
		t.Error("missing -a must signal TDP mode")
	}
	if opts.FEAddr() != "" {
		t.Errorf("FEAddr = %q", opts.FEAddr())
	}
}

func TestMetricsAccumulate(t *testing.T) {
	m := NewMetrics()
	m.OnEntry("f", 100)
	m.OnExit("f", 2100)
	m.OnEntry("f", 2100)
	m.OnExit("f", 2150)
	s := m.Snapshot()["f"]
	if s.Calls != 2 {
		t.Errorf("Calls = %d", s.Calls)
	}
	if s.TimeMicros != 2050 {
		t.Errorf("TimeMicros = %d, want 2050", s.TimeMicros)
	}
	// Exit without entry is harmless.
	m.OnExit("ghost", 3000)
	if _, ok := m.Snapshot()["ghost"]; ok {
		t.Error("exit-without-entry created stats")
	}
}

func TestBottleneckFlatSearch(t *testing.T) {
	stats := map[string]FuncStats{
		"main":           {Calls: 1, TimeMicros: 1000},
		"compute_forces": {Calls: 10, TimeMicros: 700},
		"io":             {Calls: 10, TimeMicros: 200},
		"misc":           {Calls: 10, TimeMicros: 100},
	}
	fn, share, ok := Bottleneck(stats, "main")
	if !ok || fn != "compute_forces" {
		t.Fatalf("Bottleneck = %q, %v", fn, ok)
	}
	if share < 0.69 || share > 0.71 {
		t.Errorf("share = %v, want ~0.7", share)
	}
	if _, _, ok := Bottleneck(map[string]FuncStats{}); ok {
		t.Error("Bottleneck on empty stats reported ok")
	}
	if _, _, ok := Bottleneck(stats, "main", "compute_forces", "io", "misc"); ok {
		t.Error("Bottleneck with everything excluded reported ok")
	}
}

func TestFormatTableAndMerge(t *testing.T) {
	a := map[string]FuncStats{"f": {Calls: 1, TimeMicros: 10}}
	b := map[string]FuncStats{"f": {Calls: 2, TimeMicros: 30}, "g": {Calls: 1, TimeMicros: 5}}
	merged := Merge(a, b)
	if merged["f"].Calls != 3 || merged["f"].TimeMicros != 40 || merged["g"].Calls != 1 {
		t.Errorf("Merge = %v", merged)
	}
	table := FormatTable(merged)
	if !strings.Contains(table, "FUNCTION") || !strings.Contains(table, "f") {
		t.Errorf("table = %q", table)
	}
	// Sorted by time: f (40us) before g (5us).
	if strings.Index(table, "\nf") > strings.Index(table, "\ng") {
		t.Errorf("table not sorted by time:\n%s", table)
	}
}

// fakeDaemon connects to a front-end and exercises the protocol.
func fakeDaemon(t *testing.T, addr, name string) *wire.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial FE: %v", err)
	}
	t.Cleanup(func() { raw.Close() })
	wc := wire.NewConn(raw)
	reg := wire.NewMessage("REGISTER").Set("daemon", name).Set("host", "h").
		SetInt("pid", 42).Set("executable", "foo").SetInt("rank", 0)
	if err := wc.Send(reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	return wc
}

func newFE(t *testing.T, autoRun bool) *FrontEnd {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fe, err := NewFrontEnd(FrontEndConfig{Listener: l, AutoRun: autoRun})
	if err != nil {
		t.Fatalf("NewFrontEnd: %v", err)
	}
	t.Cleanup(fe.Close)
	return fe
}

func TestFrontEndProtocol(t *testing.T) {
	fe := newFE(t, true)
	wc := fakeDaemon(t, fe.Addr(), "d1")

	// AutoRun: RUN arrives after registration.
	m, err := wc.Recv()
	if err != nil || m.Verb != "RUN" {
		t.Fatalf("expected RUN, got %v, %v", m, err)
	}
	if err := fe.WaitDaemons(1, time.Second); err != nil {
		t.Fatalf("WaitDaemons: %v", err)
	}
	wc.Send(wire.NewMessage("SAMPLE").Set("fn", "work").Set("calls", "5").Set("time_us", "123"))
	wc.Send(wire.NewMessage("DONE").Set("status", "exit(0)"))
	if err := fe.WaitDone(1, 2*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	stats := fe.Stats("d1")
	if stats["work"].Calls != 5 || stats["work"].TimeMicros != 123 {
		t.Errorf("stats = %v", stats)
	}
	if st, ok := fe.ExitStatus("d1"); !ok || st != "exit(0)" {
		t.Errorf("ExitStatus = %q, %v", st, ok)
	}
	if got := fe.Daemons(); len(got) != 1 || got[0] != "d1" {
		t.Errorf("Daemons = %v", got)
	}
}

func TestFrontEndManualRun(t *testing.T) {
	fe := newFE(t, false)
	wc := fakeDaemon(t, fe.Addr(), "d1")
	fe.WaitDaemons(1, time.Second)

	// No RUN yet.
	got := make(chan string, 1)
	go func() {
		m, err := wc.Recv()
		if err != nil {
			got <- "err"
			return
		}
		got <- m.Verb
	}()
	select {
	case v := <-got:
		t.Fatalf("daemon received %q before RunAll", v)
	case <-time.After(30 * time.Millisecond):
	}
	fe.RunAll()
	select {
	case v := <-got:
		if v != "RUN" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RUN never arrived")
	}
	// Run on an unknown daemon errors; repeated run is idempotent.
	if err := fe.Run("ghost"); err == nil {
		t.Error("Run(ghost) succeeded")
	}
	if err := fe.Run("d1"); err != nil {
		t.Errorf("second Run: %v", err)
	}
}

func TestFrontEndWaitTimeouts(t *testing.T) {
	fe := newFE(t, true)
	if err := fe.WaitDaemons(1, 30*time.Millisecond); err == nil {
		t.Error("WaitDaemons succeeded with no daemons")
	}
	if err := fe.WaitDone(1, 30*time.Millisecond); err == nil {
		t.Error("WaitDone succeeded with no daemons")
	}
	if fe.Stats("nope") != nil {
		t.Error("Stats of unknown daemon non-nil")
	}
	if _, ok := fe.ExitStatus("nope"); ok {
		t.Error("ExitStatus of unknown daemon ok")
	}
}

// newParadorPool builds a pool with paradyn registered — the Parador
// configuration of §4.3.
func newParadorPool(t *testing.T, machines int, tr *telemetry.Tracer) *condor.Pool {
	t.Helper()
	pool := condor.NewPool(condor.PoolOptions{Tracer: tr, NegotiationTimeout: 2 * time.Second})
	t.Cleanup(pool.Close)
	for i := 0; i < machines; i++ {
		name := "node" + string(rune('1'+i))
		if _, err := pool.AddMachine(condor.MachineConfig{
			Name: name, Arch: "INTEL", OpSys: "LINUX", Memory: 128,
		}); err != nil {
			t.Fatalf("AddMachine: %v", err)
		}
	}
	pool.Registry().RegisterTool("paradynd", Tool())
	pool.Registry().RegisterProgram("science", func(args []string) (procsim.Program, []string) {
		phases, prog := procsim.DefaultScienceApp(20)
		return prog, procsim.PhasedSymbols(phases)
	})
	return pool
}

func TestParadorVanillaEndToEnd(t *testing.T) {
	// The full Parador experiment: Paradyn front-end starts first and
	// publishes its ports; Condor runs the job with paradynd attached
	// via TDP; the front-end collects a profile and finds the planted
	// bottleneck.
	tr := telemetry.NewTracer("test")
	pool := newParadorPool(t, 1, tr)
	fe := newFE(t, true)

	host, port, _ := net.SplitHostPort(fe.Addr())
	submit := `universe = Vanilla
executable = science
output = outfile
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-zunix -l3 -m` + host + ` -p` + port + ` -a%pid"
+ToolDaemonOutput = "daemon.out"
queue
`
	jobs, err := pool.Submit(submit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := jobs[0].WaitExit(30 * time.Second)
	if err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if st.Code != 0 {
		t.Errorf("exit = %v", st)
	}
	if err := fe.WaitDone(1, 10*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}

	// The Performance Consultant must find the planted bottleneck.
	fn, share, ok := fe.Bottleneck()
	if !ok {
		t.Fatal("no bottleneck found")
	}
	if fn != "compute_forces" {
		t.Errorf("bottleneck = %q, want compute_forces\n%s", fn, fe.Report())
	}
	if share < 0.5 {
		t.Errorf("bottleneck share = %.2f, want > 0.5", share)
	}

	// Every phase was observed with the right call count (20 iters).
	stats := fe.AllStats()
	for _, phase := range []string{"read_input", "compute_forces", "update_positions", "write_output"} {
		if stats[phase].Calls != 20 {
			t.Errorf("%s calls = %d, want 20", phase, stats[phase].Calls)
		}
	}

	// The daemon published its local registry as telemetry streams.
	pool2 := fe.PoolSnapshot()
	if pool2.Counters["paradyn.samples.sent"] <= 0 {
		t.Errorf("PoolSnapshot counters = %v, want paradyn.samples.sent > 0", pool2.Counters)
	}
	if pool2.Histograms["paradyn.sample.batch_us"].Count <= 0 {
		t.Error("PoolSnapshot missing paradyn.sample.batch_us histogram")
	}

	// The daemon's profile file came back to the submit machine.
	data, ok2 := pool.SubmitFiles().Read("daemon.out")
	if !ok2 || !strings.Contains(string(data), "bottleneck: compute_forces") {
		t.Errorf("daemon.out = %q", data)
	}

	// Figure 6 ordering on the real paradynd: each process's chain in
	// order, the two joined only where one causes the other (pid put →
	// attach, continue → job exit). The daemon's tdp_init races the
	// starter's put and is ordered against neither.
	for _, chain := range [][]string{
		{"starter:tdp_init", "starter:tdp_create_process", "starter:tdp_create_process", "starter:tdp_put", "starter:job_exit"},
		{"paradynd:tdp_init", "paradynd:tdp_get", "paradynd:tdp_attach", "paradynd:tdp_continue_process"},
		{"starter:tdp_put", "paradynd:tdp_attach", "paradynd:tdp_continue_process", "starter:job_exit"},
	} {
		if err := testkit.StepsOf(t, tr).CheckOrder(chain...); err != nil {
			t.Error(err)
		}
	}
}

func TestParadorAttachMode(t *testing.T) {
	// Attach mode (§4.2): the application is already running; a
	// paradynd is launched later with an explicit pid and attaches.
	srv, lass, err := tdp.ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	defer srv.Close()
	kernel := procsim.NewKernel()
	fe := newFE(t, true)

	rm, err := tdp.Init(tdp.Config{Context: "attach-job", LASSAddr: lass, Kernel: kernel, Identity: "RM"})
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	defer rm.Exit()

	// Long enough that the daemon attaches mid-run (~100µs per iteration).
	phases, prog := procsim.DefaultScienceApp(2000)
	ap, err := rm.CreateProcess(tdp.ProcessSpec{
		Executable: "science", Program: prog, Symbols: procsim.PhasedSymbols(phases),
	}, tdp.StartRun)
	if err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}

	host, port, _ := net.SplitHostPort(fe.Addr())
	env := condor.ToolEnv{
		Machine: "localhost", Kernel: kernel, LASSAddr: lass, Context: "attach-job",
	}
	args := []string{"-m" + host, "-p" + port, "-a" + tdp.FormatPID(ap.PID())}
	daemon := Tool()(env, args)
	var daemonErr strings.Builder
	rtProc, err := rm.CreateProcess(tdp.ProcessSpec{Executable: "paradynd", Program: daemon, Stderr: &daemonErr}, tdp.StartRun)
	if err != nil {
		t.Fatalf("create daemon: %v", err)
	}
	if st, err := ap.Wait(); err != nil || st.Code != 0 {
		t.Fatalf("app wait = %v, %v", st, err)
	}
	if st, err := rtProc.Wait(); err != nil || st.Code != 0 {
		t.Fatalf("daemon wait = %v, %v; stderr: %s", st, err, daemonErr.String())
	}
	if err := fe.WaitDone(1, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	// Attach happened mid-run, so the daemon saw only part of the
	// execution — but it must have seen compute_forces activity.
	stats := fe.AllStats()
	if stats["compute_forces"].Calls == 0 {
		t.Errorf("attach-mode daemon saw no compute_forces calls: %v", stats)
	}
}

func TestParadorMPIAllRanksProfiled(t *testing.T) {
	pool := newParadorPool(t, 3, nil)
	pool.Registry().RegisterProgram("ring", func(args []string) (procsim.Program, []string) {
		return nil, nil // replaced below; keep registry simple
	})
	// Use the science app as the MPI payload: each rank computes.
	fe := newFE(t, true)
	host, port, _ := net.SplitHostPort(fe.Addr())
	submit := `universe = MPI
executable = science
machine_count = 3
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-m` + host + ` -p` + port + ` -a%pid"
queue
`
	jobs, err := pool.Submit(submit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := jobs[0].WaitExit(40 * time.Second); err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if err := fe.WaitDone(3, 10*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	if got := len(fe.Daemons()); got != 3 {
		t.Fatalf("daemons = %d, want 3 (one per rank)", got)
	}
	// Merged across ranks: 3 ranks × 20 iterations.
	stats := fe.AllStats()
	if stats["compute_forces"].Calls != 60 {
		t.Errorf("merged compute_forces calls = %d, want 60", stats["compute_forces"].Calls)
	}
}
