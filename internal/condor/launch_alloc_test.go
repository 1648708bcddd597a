package condor_test

import (
	"runtime"
	"testing"
	"time"

	"tdp/internal/condor"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/testkit"
)

// The budget of the paper's Figure 3/6 flow, one job under paradynd
// through a one-machine pool whose starter and tool reach the LASS over
// the same-host socket, as in the repository's launch workload: heap
// objects and bytes per job, process-wide. Both are 5 % over what is
// measured — 224.1 objects, 18.7 KB; which of a job's waits find their
// event already there, and so arm no timer, moves with scheduling —
// with no untraced step building its detail, no probe fire copying its
// list, paradynd's profile appended into one buffer, and no client
// connection read by a goroutine of its own unless something listens on
// it.
const (
	launchAllocBudget = 235
	launchBytesBudget = 19650
)

func TestLaunchAllocBudget(t *testing.T) {
	pool := condor.NewPool(condor.PoolOptions{})
	t.Cleanup(pool.Close)
	m, err := pool.AddMachine(condor.MachineConfig{Name: "exec0", Arch: "INTEL", OpSys: "LINUX", Memory: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LASS().ListenUnixBeside(m.LASSAddr()); err != nil {
		t.Fatal(err)
	}
	phases := []procsim.PhaseSpec{{Name: "phase0", Units: 2}, {Name: "phase1", Units: 2}}
	pool.Registry().RegisterProgram("app", func([]string) (procsim.Program, []string) {
		return procsim.NewPhasedProgram(1, phases), procsim.PhasedSymbols(phases)
	})
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	job := func() {
		jobs, err := pool.Submit("executable = app\narguments = 2 2\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"paradynd\"\n+ToolDaemonArgs = \"-a%pid\"\nqueue\n")
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if st, err := jobs[0].WaitExit(time.Minute); err != nil || st.Signaled() || st.Code != 0 {
			t.Fatalf("job: %v, %v", st, err)
		}
	}
	for i := 0; i < 100; i++ { // warm: the buffer pool, pids and seqs of their final width
		job()
	}
	const jobs = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / jobs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	t.Logf("launch: %.1f objects, %.0f bytes per job (budgets %d, %d)", objects, bytes, launchAllocBudget, launchBytesBudget)
	if testkit.Race {
		return // the read-buffer pool leaks by design under the race detector
	}
	if objects > launchAllocBudget {
		t.Errorf("a launch allocates %.1f objects per job, budget %d", objects, launchAllocBudget)
	}
	if bytes > launchBytesBudget {
		t.Errorf("a launch allocates %.0f bytes per job, budget %d", bytes, launchBytesBudget)
	}
}
