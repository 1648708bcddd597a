package condor

import (
	"strings"
	"testing"
	"time"

	"tdp/internal/mpisim"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/testkit"
)

func registerRing(reg *Registry) {
	reg.RegisterProgram("ring", func(args []string) (procsim.Program, []string) {
		return mpisim.NewRingProgram(), mpisim.RingSymbols
	})
}

// TestMPIUniverseWithToolDaemon reproduces the paper's §4.3 MPI
// experiment: an MPI job where every rank is created paused, gets its
// own tool daemon attached, and only then runs; rank 0 starts first
// and the remaining ranks are held until rank 0's tool is in control.
func TestMPIUniverseWithToolDaemon(t *testing.T) {
	tr := telemetry.NewTracer("test")
	pool := newTestPool(t, 3, tr)
	registerRing(pool.Registry())
	registerTestTool(pool.Registry(), "testtool")

	jobs, err := pool.Submit(`universe = MPI
executable = ring
machine_count = 3
+SuspendJobAtExec = True
+ToolDaemonCmd = "testtool"
+ToolDaemonOutput = "mpi-tool.out"
queue
`)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := jobs[0].WaitExit(40 * time.Second)
	if err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if st.Code != 2 { // 3-rank ring: 2 hops
		t.Errorf("exit = %v, want exit(2)", st)
	}
	if jobs[0].RanksDone() != 3 {
		t.Errorf("ranks done = %d", jobs[0].RanksDone())
	}

	// Rank 0 was activated before the tool-ready gate; ranks 1, 2 after.
	if err := testkit.StepsOf(t, tr).CheckOrder(
		"shadow:activate",         // rank 0
		"shadow:rank0_tool_ready", // gate
		"shadow:activate",         // rank 1
		"shadow:activate",         // rank 2
		"shadow:final_status",
	); err != nil {
		t.Error(err)
	}

	// Each rank's tool attached and observed the exit: three tool
	// reports in the combined output.
	if got := strings.Count(jobs[0].ToolOutput(), "probe hits"); got != 3 {
		t.Errorf("tool reports = %d, want 3:\n%s", got, jobs[0].ToolOutput())
	}
}

func TestMPIWorldRegistry(t *testing.T) {
	w := mpisim.Register(4)
	if w.Size() != 4 {
		t.Errorf("Size = %d", w.Size())
	}
	got, err := mpisim.Lookup(w.ID())
	if err != nil || got != w {
		t.Fatalf("Lookup: %v", err)
	}
	mpisim.Unregister(w.ID())
	if _, err := mpisim.Lookup(w.ID()); err == nil {
		t.Error("Lookup after Unregister succeeded")
	}
}

func TestMPIRankArgParsing(t *testing.T) {
	args := mpisim.RankArgs([]string{"a"}, "world-9")
	args = append(args, "--mpi-rank=2", "--mpi-size=5")
	rank, size, world := mpisim.ParseRankArgs(args)
	if rank != 2 || size != 5 || world != "world-9" {
		t.Errorf("parsed = %d %d %q", rank, size, world)
	}
	// Defaults when flags are absent.
	rank, size, world = mpisim.ParseRankArgs([]string{"plain"})
	if rank != 0 || size != 1 || world != "" {
		t.Errorf("defaults = %d %d %q", rank, size, world)
	}
}
