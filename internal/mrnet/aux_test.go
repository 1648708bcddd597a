package mrnet

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tdp/internal/condor"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/testkit"
)

// TestAuxServiceLaunchedByRM is the §2 auxiliary-service experiment:
// the submit file names an aux service; the starter launches it
// between paradynd and the front-end; the daemon connects to the
// service transparently (it just reads AttrFrontendAddr); the
// front-end sees the aggregate.
func TestAuxServiceLaunchedByRM(t *testing.T) {
	tr := telemetry.NewTracer("test")
	fe := newFE(t)

	pool := condor.NewPool(condor.PoolOptions{Tracer: tr, NegotiationTimeout: 5 * time.Second})
	t.Cleanup(pool.Close)
	if _, err := pool.AddMachine(condor.MachineConfig{
		Name: "node1", Arch: "INTEL", OpSys: "LINUX", Memory: 128,
	}); err != nil {
		t.Fatalf("AddMachine: %v", err)
	}
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	pool.Registry().RegisterAux("mrnet", AuxService(1))
	pool.Registry().RegisterProgram("science", func(args []string) (procsim.Program, []string) {
		phases, prog := procsim.DefaultScienceApp(20)
		return prog, procsim.PhasedSymbols(phases)
	})

	submit := fmt.Sprintf(`executable = science
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-a%%pid"
+AuxServiceCmd = "mrnet"
+FrontendAddr = "%s"
queue
`, fe.Addr())
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

	// The front-end's one daemon is the mrnet aggregate, not paradynd.
	daemons := fe.Daemons()
	if len(daemons) != 1 || !strings.HasPrefix(daemons[0], "mrnet-") {
		t.Fatalf("daemons = %v, want one mrnet aggregate", daemons)
	}
	// The reduced profile still carries the real data.
	stats := fe.AllStats()
	if stats["compute_forces"].Calls != 20 {
		t.Errorf("compute_forces calls = %d, want 20\n%s", stats["compute_forces"].Calls, fe.Report())
	}
	if fn, _, ok := fe.Bottleneck(); !ok || fn != "compute_forces" {
		t.Errorf("bottleneck through the aux service = %q, %v", fn, ok)
	}
	// The RM launched the service (trace evidence).
	if !slices.Contains(testkit.StepsOf(t, tr), "starter:spawn_aux") {
		t.Error("starter never recorded spawn_aux")
	}
	if !testkit.StepsOf(t, tr).Before("starter:spawn_aux", "starter:spawn_tool") {
		t.Error("aux service was not up before the tool launched")
	}
}

func TestAuxServiceRequiresFrontend(t *testing.T) {
	pool := condor.NewPool(condor.PoolOptions{NegotiationTimeout: 2 * time.Second})
	t.Cleanup(pool.Close)
	pool.AddMachine(condor.MachineConfig{Name: "m", Arch: "INTEL", OpSys: "LINUX", Memory: 128})
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	pool.Registry().RegisterAux("mrnet", AuxService(1))
	pool.Registry().RegisterProgram("x", func(args []string) (procsim.Program, []string) {
		return procsim.NewExitingProgram(0), procsim.StdSymbols
	})
	jobs, err := pool.Submit(`executable = x
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+AuxServiceCmd = "mrnet"
queue
`)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-jobs[0].Done()
	if jobs[0].Status() != condor.StatusHeld {
		t.Fatalf("status = %v, want Held", jobs[0].Status())
	}
	if !strings.Contains(jobs[0].HoldReason(), "front-end address") {
		t.Errorf("hold reason = %q", jobs[0].HoldReason())
	}
}

func TestAuxServiceUnknownName(t *testing.T) {
	pool := condor.NewPool(condor.PoolOptions{NegotiationTimeout: 2 * time.Second})
	t.Cleanup(pool.Close)
	pool.AddMachine(condor.MachineConfig{Name: "m", Arch: "INTEL", OpSys: "LINUX", Memory: 128})
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	pool.Registry().RegisterProgram("x", func(args []string) (procsim.Program, []string) {
		return procsim.NewExitingProgram(0), procsim.StdSymbols
	})
	jobs, _ := pool.Submit(`executable = x
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+AuxServiceCmd = "nosuch"
+FrontendAddr = "127.0.0.1:1"
queue
`)
	<-jobs[0].Done()
	if jobs[0].Status() != condor.StatusHeld {
		t.Fatalf("status = %v", jobs[0].Status())
	}
	if !strings.Contains(jobs[0].HoldReason(), "no such auxiliary service") {
		t.Errorf("hold reason = %q", jobs[0].HoldReason())
	}
}
