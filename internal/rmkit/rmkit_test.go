package rmkit

import (
	"strings"
	"testing"
	"time"

	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/testkit"
)

func TestForkRMPlainJob(t *testing.T) {
	rm, err := NewForkRM(nil)
	if err != nil {
		t.Fatalf("NewForkRM: %v", err)
	}
	defer rm.Close()
	st, err := rm.Run(JobSpec{
		Name: "exiter", Program: procsim.NewExitingProgram(4), Symbols: procsim.StdSymbols,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Code != 4 {
		t.Errorf("exit = %v", st)
	}
	if rm.Jobs() != 1 {
		t.Errorf("Jobs = %d", rm.Jobs())
	}
}

func TestForkRMStdio(t *testing.T) {
	rm, err := NewForkRM(nil)
	if err != nil {
		t.Fatalf("NewForkRM: %v", err)
	}
	defer rm.Close()
	var out strings.Builder
	st, err := rm.Run(JobSpec{
		Name: "echo", Program: procsim.NewEchoProgram("* "), Symbols: procsim.StdSymbols,
		Stdin: strings.NewReader("one\ntwo\n"), Stdout: &out,
	})
	if err != nil || st.Code != 2 {
		t.Fatalf("Run = %v, %v", st, err)
	}
	if out.String() != "* one\n* two\n" {
		t.Errorf("stdout = %q", out.String())
	}
}

func TestForkRMClosed(t *testing.T) {
	rm, err := NewForkRM(nil)
	if err != nil {
		t.Fatalf("NewForkRM: %v", err)
	}
	rm.Close()
	rm.Close() // idempotent
	if _, err := rm.Run(JobSpec{Name: "x", Program: procsim.NewExitingProgram(0)}); err == nil {
		t.Error("Run after Close succeeded")
	}
}

func TestForkRMJobTimeout(t *testing.T) {
	rm, err := NewForkRM(nil)
	if err != nil {
		t.Fatalf("NewForkRM: %v", err)
	}
	defer rm.Close()
	start := time.Now()
	st, err := rm.Run(JobSpec{
		Name: "spin", Program: procsim.NewSpinnerProgram(), Symbols: procsim.StdSymbols,
		Timeout: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatalf("timeout not reported, exit = %v", st)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout took far too long")
	}
}

func TestQueueRMFIFOAcrossWorkers(t *testing.T) {
	rm, err := NewQueueRM(2, nil)
	if err != nil {
		t.Fatalf("NewQueueRM: %v", err)
	}
	defer rm.Close()
	if rm.Workers() != 2 {
		t.Fatalf("Workers = %d", rm.Workers())
	}
	var jobs []*QueuedJob
	for i := 0; i < 6; i++ {
		qj, err := rm.Enqueue(JobSpec{
			Name: "exiter", Program: procsim.NewExitingProgram(i), Symbols: procsim.StdSymbols,
		})
		if err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		jobs = append(jobs, qj)
	}
	hosts := make(map[string]int)
	for i, qj := range jobs {
		st, err := qj.Wait(20 * time.Second)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if st.Code != i {
			t.Errorf("job %d exit = %v", i, st)
		}
		hosts[qj.Host()]++
	}
	if len(hosts) != 2 {
		t.Errorf("expected both workers used, got %v", hosts)
	}
}

func TestQueueRMSerializesPerWorker(t *testing.T) {
	// One worker: jobs must run strictly one at a time, in order.
	rm, err := NewQueueRM(1, nil)
	if err != nil {
		t.Fatalf("NewQueueRM: %v", err)
	}
	defer rm.Close()
	var order []int
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	mk := func(i int) procsim.Program {
		return procsim.ProgramFunc(func(ctx *procsim.ProcContext) int {
			<-mu
			order = append(order, i)
			mu <- struct{}{}
			return 0
		})
	}
	var jobs []*QueuedJob
	for i := 0; i < 4; i++ {
		qj, _ := rm.Enqueue(JobSpec{Name: "seq", Program: mk(i)})
		jobs = append(jobs, qj)
	}
	for _, qj := range jobs {
		if _, err := qj.Wait(20 * time.Second); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestQueueRMClose(t *testing.T) {
	rm, err := NewQueueRM(1, nil)
	if err != nil {
		t.Fatalf("NewQueueRM: %v", err)
	}
	rm.Close()
	rm.Close() // idempotent
	if _, err := rm.Enqueue(JobSpec{Name: "x", Program: procsim.NewExitingProgram(0)}); err == nil {
		t.Error("Enqueue after Close succeeded")
	}
}

func TestLaunchRecordsTDPSequence(t *testing.T) {
	tr := telemetry.NewTracer("test")
	rm, err := NewForkRM(tr)
	if err != nil {
		t.Fatalf("NewForkRM: %v", err)
	}
	defer rm.Close()
	st, err := rm.Run(JobSpec{
		Name: "exiter", Program: procsim.NewExitingProgram(0), Symbols: procsim.StdSymbols,
	})
	if err != nil || st.Code != 0 {
		t.Fatalf("Run = %v, %v", st, err)
	}
	if err := testkit.StepsOf(t, tr).CheckOrder(
		"forkrm:run",
		"forkrm:tdp_init",
		"forkrm:tdp_create_process",
		"forkrm:tdp_exit",
	); err != nil {
		t.Error(err)
	}
}

func TestQueuedJobWaitTimeout(t *testing.T) {
	rm, err := NewQueueRM(1, nil)
	if err != nil {
		t.Fatalf("NewQueueRM: %v", err)
	}
	defer rm.Close()
	// A long job blocks the single worker.
	rm.Enqueue(JobSpec{Name: "sleep", Program: procsim.NewSleeperProgram(300 * time.Millisecond), Symbols: procsim.StdSymbols})
	qj, _ := rm.Enqueue(JobSpec{Name: "fast", Program: procsim.NewExitingProgram(0)})
	if _, err := qj.Wait(10 * time.Millisecond); err == nil {
		t.Error("Wait returned before worker reached the job")
	}
	if _, err := qj.Wait(20 * time.Second); err != nil {
		t.Errorf("final Wait: %v", err)
	}
}
