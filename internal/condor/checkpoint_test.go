package condor

import (
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/testkit"
)

// registerCheckpointable installs a standard-universe-capable program
// that runs `iters` checkpointed iterations, counting executions.
func registerCheckpointable(reg *Registry, iters int, executed *atomic.Int64) {
	reg.RegisterProgram("ckpt", func(args []string) (procsim.Program, []string) {
		return procsim.NewCheckpointableProgram(iters, 200, func(int) {
			executed.Add(1)
		}), procsim.StdSymbols
	})
}

func TestStandardUniverseVacateAndMigrate(t *testing.T) {
	tr := telemetry.NewTracer("test")
	pool := NewPool(PoolOptions{Tracer: tr, NegotiationTimeout: 5 * time.Second, JobTimeout: 60 * time.Second})
	t.Cleanup(pool.Close)
	for _, name := range []string{"m1", "m2"} {
		if _, err := pool.AddMachine(MachineConfig{Name: name, Arch: "INTEL", OpSys: "LINUX", Memory: 128}); err != nil {
			t.Fatalf("AddMachine: %v", err)
		}
	}
	const iters = 300
	var executed atomic.Int64
	registerCheckpointable(pool.Registry(), iters, &executed)

	jobs, err := pool.Submit("universe = Standard\nexecutable = ckpt\nqueue\n")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j := jobs[0]

	// Let the job make some progress, then reclaim its machine.
	deadline := time.Now().Add(10 * time.Second)
	for executed.Load() < 30 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if executed.Load() < 30 {
		t.Fatalf("job made no progress (executed=%d, status=%v)", executed.Load(), j.Status())
	}
	atVacate := executed.Load()
	if err := pool.Vacate(j); err != nil {
		t.Fatalf("Vacate: %v", err)
	}

	st, err := j.WaitExit(30 * time.Second)
	if err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	// Exit code is the iteration the final incarnation started from:
	// nonzero proves it resumed from the checkpoint instead of
	// starting over.
	if st.Code == 0 {
		t.Errorf("exit = %v — job restarted from scratch instead of resuming", st)
	}
	if got := j.Restarts(); got != 1 {
		t.Errorf("Restarts = %d, want 1", got)
	}
	if got := len(j.Machines()); got != 2 {
		t.Errorf("machine history = %v, want 2 entries", j.Machines())
	}
	// Total work: all iterations once, plus at most a small replay of
	// the interrupted iteration.
	total := executed.Load()
	if total < iters {
		t.Errorf("executed %d iterations, want >= %d", total, iters)
	}
	if total > iters+5 {
		t.Errorf("executed %d iterations — migration redid %d (checkpoint ignored?)", total, total-int64(iters))
	}
	t.Logf("vacated at iteration %d; resumed at %d; total executed %d/%d", atVacate, st.Code, total, iters)

	if err := testkit.StepsOf(t, tr).CheckOrder(
		"starter:spawn_job",
		"starter:vacate",
		"shadow:migrate",
		"starter:spawn_job",
		"shadow:final_status",
	); err != nil {
		t.Error(err)
	}
}

func TestVacateVanillaJobIsFatal(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	var executed atomic.Int64
	registerCheckpointable(pool.Registry(), 100000, &executed)
	jobs, err := pool.Submit("executable = ckpt\nqueue\n") // vanilla
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j := jobs[0]
	deadline := time.Now().Add(10 * time.Second)
	for executed.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// The application runs from the moment it is created; the starter
	// notes it as vacatable a statement later, so a first Vacate can be
	// early.
	err = pool.Vacate(j)
	for err != nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		err = pool.Vacate(j)
	}
	if err != nil {
		t.Fatalf("Vacate: %v", err)
	}
	st, err := j.WaitExit(30 * time.Second)
	if err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if st.Signal != "SIGVACATE" {
		t.Errorf("vanilla vacate status = %v, want killed(SIGVACATE)", st)
	}
	if j.Restarts() != 0 {
		t.Errorf("vanilla job restarted %d times", j.Restarts())
	}
}

func TestVacateErrors(t *testing.T) {
	pool := newTestPool(t, 1, nil)
	j := newJob(99, &SubmitFile{Executable: "x"})
	if err := pool.Vacate(j); err == nil {
		t.Error("Vacate of unmatched job succeeded")
	}
	j.mu.Lock()
	j.machine = "ghost"
	j.mu.Unlock()
	if err := pool.Vacate(j); err == nil {
		t.Error("Vacate on unknown machine succeeded")
	}
	sd := pool.Startd("node1")
	if err := sd.VacateJob(42); err == nil {
		t.Error("VacateJob of non-running job succeeded")
	}
}

func TestCheckpointableProgramResumesFromData(t *testing.T) {
	// Unit-level: the program honors RestartData directly.
	k := procsim.NewKernel()
	var count atomic.Int64
	p, err := k.Spawn(procsim.Spec{
		Executable:  "ckpt",
		Program:     procsim.NewCheckpointableProgram(10, 1, func(int) { count.Add(1) }),
		Symbols:     procsim.StdSymbols,
		RestartData: "7",
	}, false)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	st, err := p.WaitParent()
	if err != nil {
		t.Fatalf("WaitParent: %v", err)
	}
	if st.Code != 7 {
		t.Errorf("exit = %v, want start iteration 7", st)
	}
	if count.Load() != 3 {
		t.Errorf("executed %d iterations, want 3 (7..9)", count.Load())
	}
	if ck, ok := p.CheckpointData(); !ok || ck != "10" {
		t.Errorf("final checkpoint = %q, %v", ck, ok)
	}
}

func TestProgressCounterAdvances(t *testing.T) {
	k := procsim.NewKernel()
	p, err := k.Spawn(procsim.Spec{
		Executable: "spin", Program: procsim.NewSpinnerProgram(), Symbols: procsim.StdSymbols,
	}, false)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	defer p.Kill("")
	first := p.Progress()
	deadline := time.Now().Add(5 * time.Second)
	for p.Progress() == first && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Progress() == first {
		t.Error("progress counter never advanced on a running process")
	}
}
