package tdp

import (
	"context"
	"errors"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/testkit"
)

// newLASS starts a LASS for a test and returns its address.
func newLASS(t *testing.T) string {
	t.Helper()
	srv, addr, err := ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	t.Cleanup(srv.Close)
	return addr
}

func initT(t *testing.T, cfg Config) *Handle {
	t.Helper()
	h, err := Init(cfg)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	t.Cleanup(func() { h.Exit() })
	return h
}

func TestInitValidation(t *testing.T) {
	if _, err := Init(Config{LASSAddr: "x"}); err == nil {
		t.Error("Init without context succeeded")
	}
	if _, err := Init(Config{Context: "c"}); err == nil {
		t.Error("Init without LASS succeeded")
	}
	if _, err := Init(Config{Context: "c", LASSAddr: "127.0.0.1:1"}); err == nil {
		t.Error("Init with dead LASS succeeded")
	}
}

func TestInitCASSFailureClosesLASS(t *testing.T) {
	addr := newLASS(t)
	if _, err := Init(Config{Context: "c", LASSAddr: addr, CASSAddr: "127.0.0.1:1"}); err == nil {
		t.Error("Init with dead CASS succeeded")
	}
}

func TestPutGetBetweenDaemons(t *testing.T) {
	addr := newLASS(t)
	rm := initT(t, Config{Context: "job1", LASSAddr: addr, Identity: "RM"})
	rt := initT(t, Config{Context: "job1", LASSAddr: addr, Identity: "RT"})

	got := make(chan string, 1)
	go func() {
		v, err := rt.Get(context.Background(), AttrPID)
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	if err := rm.Put(AttrPID, "1000"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	select {
	case v := <-got:
		if v != "1000" {
			t.Errorf("Get = %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking Get never completed")
	}
}

func TestTryGetDeleteSnapshot(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "c", LASSAddr: addr})
	if _, err := h.TryGet("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("TryGet absent: %v", err)
	}
	h.Put("a", "1")
	h.Put(AttrArgs, "-p1500 -P2000")
	snap, err := h.Snapshot()
	if err != nil || len(snap) != 2 || snap[AttrArgs] != "-p1500 -P2000" {
		t.Errorf("Snapshot = %v, %v", snap, err)
	}
	if err := h.Delete("a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := h.TryGet("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after Delete: %v", err)
	}
}

func TestContextDestroyedAtLastExit(t *testing.T) {
	srv, addr, err := ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	defer srv.Close()
	a, _ := Init(Config{Context: "job", LASSAddr: addr})
	b, _ := Init(Config{Context: "job", LASSAddr: addr})
	a.Put("k", "v")
	a.Exit()
	// Context survives with one participant.
	deadline := time.Now().Add(time.Second)
	for srv.Space().Refs("job") != 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if v, err := b.TryGet("k"); err != nil || v != "v" {
		t.Fatalf("attribute lost early: %q, %v", v, err)
	}
	b.Exit()
	for srv.Space().Refs("job") != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Space().Refs("job") != 0 {
		t.Error("context not destroyed after last tdp_exit")
	}
}

func TestCreateProcessRequiresKernel(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "c", LASSAddr: addr})
	if _, err := h.CreateProcess(ProcessSpec{}, StartRun); !errors.Is(err, ErrNoKernel) {
		t.Errorf("err = %v, want ErrNoKernel", err)
	}
	if _, err := h.Attach(1); !errors.Is(err, ErrNoKernel) {
		t.Errorf("Attach err = %v, want ErrNoKernel", err)
	}
}

func TestCreateProcessRunAndWait(t *testing.T) {
	addr := newLASS(t)
	k := procsim.NewKernel()
	h := initT(t, Config{Context: "c", LASSAddr: addr, Kernel: k, Identity: "RM"})
	p, err := h.CreateProcess(ProcessSpec{
		Executable: "app",
		Program:    procsim.NewExitingProgram(3),
		Symbols:    procsim.StdSymbols,
	}, StartRun)
	if err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}
	st, err := p.Wait()
	if err != nil || st.Code != 3 {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if _, ok := p.ExitStatus(); !ok {
		t.Error("ExitStatus not recorded")
	}
}

func TestCreatePausedThenAttachInstrumentContinue(t *testing.T) {
	// The full §2.2-case-2 flow on the public API.
	addr := newLASS(t)
	k := procsim.NewKernel()
	rm := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RM"})
	rt := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RT"})

	phases := []procsim.PhaseSpec{{Name: "work", Units: 1}}
	ap, err := rm.CreateProcess(ProcessSpec{
		Executable: "foo",
		Program:    procsim.NewPhasedProgram(3, phases),
		Symbols:    procsim.PhasedSymbols(phases),
	}, StartPaused)
	if err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}
	if ap.State() != procsim.StateCreated {
		t.Fatalf("state = %v, want created", ap.State())
	}
	if err := rm.PublishPID(ap); err != nil {
		t.Fatalf("PublishPID: %v", err)
	}

	pid, err := rt.GetPID(context.Background())
	if err != nil {
		t.Fatalf("GetPID: %v", err)
	}
	tp, err := rt.Attach(pid)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	calls := 0
	if _, err := tp.InsertProbe("work", func(*procsim.ProcContext) { calls++ }, nil); err != nil {
		t.Fatalf("InsertProbe: %v", err)
	}
	if err := tp.Continue(); err != nil {
		t.Fatalf("Continue: %v", err)
	}
	st, err := tp.Wait()
	if errors.Is(err, procsim.ErrStatusStolen) {
		t.Fatalf("tracer wait: %v", err)
	}
	_ = st
	if calls != 3 {
		t.Errorf("probe fired %d times, want 3 — instrumentation missed the start of main", calls)
	}
}

func TestGetPIDRejectsGarbage(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "c", LASSAddr: addr})
	h.Put(AttrPID, "not-a-number")
	if _, err := h.GetPID(context.Background()); err == nil {
		t.Error("GetPID accepted garbage")
	}
}

func TestFindProcess(t *testing.T) {
	addr := newLASS(t)
	k := procsim.NewKernel()
	h := initT(t, Config{Context: "c", LASSAddr: addr, Kernel: k})
	p, _ := h.CreateProcess(ProcessSpec{Executable: "x", Program: procsim.NewExitingProgram(0)}, StartPaused)
	found, err := h.FindProcess(p.PID())
	if err != nil || found.PID() != p.PID() {
		t.Fatalf("FindProcess: %v", err)
	}
	if _, err := h.FindProcess(procsim.PID(1)); err == nil {
		t.Error("FindProcess of missing pid succeeded")
	}
	p.Kill("")
}

func TestAsyncGetServiceEvents(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "c", LASSAddr: addr})

	type done struct {
		r   Result
		arg any
	}
	var completions []done
	cb := func(r Result, arg any) { completions = append(completions, done{r, arg}) }

	// The paper's §3.3 pseudo-code: two async gets, then the poll loop.
	if err := h.AsyncGet(AttrPID, cb, "arg1"); err != nil {
		t.Fatalf("AsyncGet: %v", err)
	}
	if err := h.AsyncGet(AttrExecutable, cb, "arg2"); err != nil {
		t.Fatalf("AsyncGet: %v", err)
	}
	h.Put(AttrPID, "7")
	h.Put(AttrExecutable, "foo")

	deadline := time.After(2 * time.Second)
	for len(completions) < 2 {
		select {
		case <-h.Activity():
			h.ServiceEvents()
		case <-deadline:
			t.Fatalf("completions = %d, want 2", len(completions))
		}
	}
	byArg := map[any]Result{}
	for _, d := range completions {
		byArg[d.arg] = d.r
	}
	if r := byArg["arg1"]; r.Err != nil || r.Value != "7" || r.Attr != AttrPID {
		t.Errorf("arg1 completion = %+v", r)
	}
	if r := byArg["arg2"]; r.Err != nil || r.Value != "foo" {
		t.Errorf("arg2 completion = %+v", r)
	}
}

func TestCallbacksDoNotRunBeforeServiceEvents(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "c", LASSAddr: addr})
	ran := false
	h.Put("k", "v")
	h.AsyncGet("k", func(Result, any) { ran = true }, nil)
	// Wait until the completion is queued.
	deadline := time.Now().Add(2 * time.Second)
	for h.PendingEvents() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ran {
		t.Fatal("callback ran outside ServiceEvents")
	}
	if n := h.ServiceEvents(); n != 1 {
		t.Fatalf("ServiceEvents = %d", n)
	}
	if !ran {
		t.Fatal("callback did not run")
	}
}

func TestAsyncPut(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "c", LASSAddr: addr})
	var got Result
	h.AsyncPut("k", "v", func(r Result, _ any) { got = r }, nil)
	deadline := time.Now().Add(2 * time.Second)
	for h.PendingEvents() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.ServiceEvents()
	if got.Err != nil || got.Attr != "k" || got.Value != "v" {
		t.Errorf("async put result = %+v", got)
	}
	if v, _ := h.TryGet("k"); v != "v" {
		t.Error("async put did not store value")
	}
}

func TestWatchUpdates(t *testing.T) {
	addr := newLASS(t)
	rm := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "RM"})
	rt := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "RT"})
	var seen []string
	if err := rt.WatchUpdates(func(attr, value, op string) {
		seen = append(seen, op+":"+attr+"="+value)
	}); err != nil {
		t.Fatalf("WatchUpdates: %v", err)
	}
	rm.Put(AttrStatus, "running")
	rm.Put(AttrStatus, "stopped")
	deadline := time.After(2 * time.Second)
	for len(seen) < 2 {
		select {
		case <-rt.Activity():
			rt.ServiceEvents()
		case <-deadline:
			t.Fatalf("seen = %v", seen)
		}
	}
	if seen[0] != "put:process_status=running" || seen[1] != "put:process_status=stopped" {
		t.Errorf("seen = %v", seen)
	}
}

// TestWatchUpdatesSkipsLossMarkers: a watcher that falls behind a burst
// is told of attribute changes and nothing else. The server's account of
// the updates it dropped while a burst drained — an event of op "lost"
// that names no attribute — is not a change, and the callback never
// sees it.
func TestWatchUpdatesSkipsLossMarkers(t *testing.T) {
	srv, addr, err := ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	t.Cleanup(srv.Close)
	srv.SetEventBuffer(64) // the 1,000-pair bursts below overflow it
	rm := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "RM"})
	rt := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "RT"})
	ops := map[string]int{}
	done := false
	if err := rt.WatchUpdates(func(attr, value, op string) {
		ops[op]++
		if attr == "" {
			t.Errorf("callback got (%q, %q, %q): not an attribute change", attr, value, op)
		}
		done = done || attr == "done"
	}); err != nil {
		t.Fatalf("WatchUpdates: %v", err)
	}
	pairs := make([]KV, 1000)
	for i := range pairs {
		pairs[i] = KV{Key: "k" + strconv.Itoa(i), Value: "v"}
	}
	for round := 0; round < 20; round++ {
		if err := rm.PutBatch(pairs); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
	}
	if err := rm.Put("done", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for deadline := time.After(10 * time.Second); !done; {
		select {
		case <-rt.Activity():
			rt.ServiceEvents()
		case <-deadline:
			t.Fatalf("the last put never reached the watcher; ops seen %v", ops)
		}
	}
	if ops["lost"] != 0 || ops["put"] == 0 {
		t.Errorf("ops delivered = %v, want puts only", ops)
	}
}

// TestWaitStatusSurvivesDroppedTransition: the status transition a
// waiter wants is dropped by the server's overflowing event ring — a
// ring of one, and a burst of puts on either side of "exited:" — and
// WaitStatus still returns it, by re-reading the status when an event
// declares the loss.
func TestWaitStatusSurvivesDroppedTransition(t *testing.T) {
	srv, addr, err := ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	t.Cleanup(srv.Close)
	srv.SetEventBuffer(1)
	rm := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "RM"})
	rt := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "RT"})
	if err := rm.Put(AttrStatus, "stopped"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type result struct {
		v   string
		err error
	}
	got := make(chan result, 1)
	go func() {
		v, err := rt.WaitStatus(ctx, "exited:")
		got <- result{v, err}
	}()
	// WaitStatus reads the status twice, around its SUB; both reads have
	// answered "stopped" once the server has counted two.
	tryGets := srv.Telemetry().Counter("attrspace.ops.tryget")
	for tryGets.Value() < 2 {
		time.Sleep(time.Millisecond)
	}
	burst := make([]KV, 0, 2001)
	for i := 0; i < 2000; i++ {
		if i == 1000 {
			burst = append(burst, KV{Key: AttrStatus, Value: "exited:0"})
		}
		burst = append(burst, KV{Key: "k" + strconv.Itoa(i), Value: "v"})
	}
	if err := rm.PutBatch(burst); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if r := <-got; r.err != nil || r.v != "exited:0" {
		t.Fatalf("WaitStatus = %q, %v; want exited:0 before the deadline", r.v, r.err)
	}
}

func TestGlobalSpace(t *testing.T) {
	lass := newLASS(t)
	cassSrv, cassAddr, err := ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	defer cassSrv.Close()

	h := initT(t, Config{Context: "c", LASSAddr: lass, CASSAddr: cassAddr})
	if !h.HasGlobal() {
		t.Fatal("HasGlobal = false")
	}
	if err := h.PutGlobal(AttrFrontendAddr, "fe:2090"); err != nil {
		t.Fatalf("PutGlobal: %v", err)
	}
	v, err := h.GetGlobal(context.Background(), AttrFrontendAddr)
	if err != nil || v != "fe:2090" {
		t.Fatalf("GetGlobal = %q, %v", v, err)
	}
	if v, err := h.TryGetGlobal(AttrFrontendAddr); err != nil || v != "fe:2090" {
		t.Fatalf("TryGetGlobal = %q, %v", v, err)
	}
	// Global attribute is not in the local space.
	if _, err := h.TryGet(AttrFrontendAddr); !errors.Is(err, ErrNotFound) {
		t.Errorf("global leaked into local space: %v", err)
	}
}

func TestNoCASSErrors(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "c", LASSAddr: addr})
	if h.HasGlobal() {
		t.Error("HasGlobal = true without CASS")
	}
	if err := h.PutGlobal("a", "b"); !errors.Is(err, ErrNoCASS) {
		t.Errorf("PutGlobal: %v", err)
	}
	if _, err := h.GetGlobal(context.Background(), "a"); !errors.Is(err, ErrNoCASS) {
		t.Errorf("GetGlobal: %v", err)
	}
	if _, err := h.TryGetGlobal("a"); !errors.Is(err, ErrNoCASS) {
		t.Errorf("TryGetGlobal: %v", err)
	}
}

func TestMonitorProcessPublishesStatus(t *testing.T) {
	addr := newLASS(t)
	k := procsim.NewKernel()
	// Use the adversarial routing: tracer steals the wait status. The
	// attribute space must still carry the truth — §2.3's argument.
	k.SetStatusRouting(procsim.RouteTracer)
	rm := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RM"})
	rt := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RT"})

	ap, err := rm.CreateProcess(ProcessSpec{
		Executable: "app",
		Program:    procsim.NewExitingProgram(5),
		Symbols:    procsim.StdSymbols,
	}, StartPaused)
	if err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}
	stop, err := rm.MonitorProcess(ap)
	if err != nil {
		t.Fatalf("MonitorProcess: %v", err)
	}
	defer stop()
	rm.PublishPID(ap)

	pid, _ := rt.GetPID(context.Background())
	tp, err := rt.Attach(pid)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	tp.Continue()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	status, err := rt.WaitStatus(ctx, "exited:")
	if err != nil {
		t.Fatalf("WaitStatus: %v", err)
	}
	if status != "exited:exit(5)" {
		t.Errorf("status = %q, want exited:exit(5)", status)
	}
	// The parent's wait was starved by routing, but TDP still knew.
	if _, err := ap.Wait(); !errors.Is(err, procsim.ErrStatusStolen) {
		t.Errorf("parent wait err = %v, want ErrStatusStolen (the quirk)", err)
	}
}

// TestMonitorStopKeepsFinalStatus is an RM's shutdown order — wait for
// the application, stop monitoring, leave — run as close behind the
// exit as a caller can get: the status it leaves in the attribute space
// must be the exit status every time, not whatever transition the
// monitor had got to when stop cancelled its subscription.
func TestMonitorStopKeepsFinalStatus(t *testing.T) {
	addr := newLASS(t)
	k := procsim.NewKernel()
	rm := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RM"})
	for i := 0; i < 200; i++ {
		ap, err := rm.CreateProcess(ProcessSpec{Executable: "app", Program: procsim.NewExitingProgram(0)}, StartPaused)
		if err != nil {
			t.Fatalf("CreateProcess: %v", err)
		}
		stop, err := rm.MonitorProcess(ap)
		if err != nil {
			t.Fatalf("MonitorProcess: %v", err)
		}
		if err := ap.Continue(); err != nil {
			t.Fatalf("Continue: %v", err)
		}
		if _, err := ap.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		stop()
		if v, err := rm.TryGet(AttrStatus); err != nil || v != "exited:exit(0)" {
			t.Fatalf("run %d: status after stop = %q, %v; want exited:exit(0)", i, v, err)
		}
		if err := rm.Delete(AttrStatus); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		k.Reap(ap.PID())
	}
}

func TestRequestStartServeStartRequests(t *testing.T) {
	addr := newLASS(t)
	k := procsim.NewKernel()
	rm := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RM"})
	rt := initT(t, Config{Context: "job", LASSAddr: addr, Identity: "RT"})

	ap, _ := rm.CreateProcess(ProcessSpec{
		Executable: "app", Program: procsim.NewExitingProgram(0), Symbols: procsim.StdSymbols,
	}, StartPaused)
	served := make(chan error, 1)
	go func() { served <- rm.ServeStartRequests(context.Background(), ap) }()

	time.Sleep(10 * time.Millisecond)
	if ap.State() != procsim.StateCreated {
		t.Fatal("AP started before request")
	}
	if err := rt.RequestStart(); err != nil {
		t.Fatalf("RequestStart: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeStartRequests: %v", err)
	}
	if st, err := ap.Wait(); err != nil || st.Code != 0 {
		t.Fatalf("Wait = %v, %v", st, err)
	}
}

func TestServeStartRequestsCancel(t *testing.T) {
	addr := newLASS(t)
	k := procsim.NewKernel()
	rm := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RM"})
	ap, _ := rm.CreateProcess(ProcessSpec{
		Executable: "app", Program: procsim.NewExitingProgram(0), Symbols: procsim.StdSymbols,
	}, StartPaused)
	defer ap.Kill("")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rm.ServeStartRequests(ctx, ap); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
}

func TestStartModeString(t *testing.T) {
	if StartRun.String() != "run" || StartPaused.String() != "paused" {
		t.Error("StartMode strings wrong")
	}
}

func TestHandleAccessors(t *testing.T) {
	addr := newLASS(t)
	h := initT(t, Config{Context: "ctx7", LASSAddr: addr, Identity: "me"})
	if h.Identity() != "me" || h.Context() != "ctx7" {
		t.Errorf("accessors = %q, %q", h.Identity(), h.Context())
	}
}

// TestFigure3ACreateSequence reproduces Figure 3A: the RM creates the
// application paused, creates the RT running; the RT inits, attaches,
// and continues the application. The recorded TDP calls must appear in
// the paper's order.
func TestFigure3ACreateSequence(t *testing.T) {
	tr := telemetry.NewTracer("test")
	addr := newLASS(t)
	k := procsim.NewKernel()

	rm := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RM", Tracer: tr})

	// RM: tdp_create_process(AP, paused)
	ap, err := rm.CreateProcess(ProcessSpec{
		Executable: "foo", Program: procsim.NewExitingProgram(0), Symbols: procsim.StdSymbols,
	}, StartPaused)
	if err != nil {
		t.Fatalf("create AP: %v", err)
	}
	rm.PublishPID(ap)

	// RM: tdp_create_process(RT, run). The RT here is a real simulated
	// process whose program performs the tool-side TDP calls.
	rtDone := make(chan error, 1)
	rtProg := procsim.ProgramFunc(func(pc *procsim.ProcContext) int {
		rt, err := Init(Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RT", Tracer: tr})
		if err != nil {
			rtDone <- err
			return 1
		}
		defer rt.Exit()
		pid, err := rt.GetPID(context.Background())
		if err != nil {
			rtDone <- err
			return 1
		}
		tp, err := rt.Attach(pid)
		if err != nil {
			rtDone <- err
			return 1
		}
		if err := tp.Continue(); err != nil {
			rtDone <- err
			return 1
		}
		rtDone <- nil
		return 0
	})
	rtProc, err := rm.CreateProcess(ProcessSpec{Executable: "rt-daemon", Program: rtProg}, StartRun)
	if err != nil {
		t.Fatalf("create RT: %v", err)
	}
	if err := <-rtDone; err != nil {
		t.Fatalf("RT flow: %v", err)
	}
	if st, err := ap.Wait(); err != nil || st.Code != 0 {
		t.Fatalf("AP wait = %v, %v", st, err)
	}
	rtProc.Wait()

	// Assert the Figure 3A order.
	if err := testkit.StepsOf(t, tr).CheckOrder(
		"RM:tdp_init",
		"RM:tdp_create_process", // AP, paused
		"RM:tdp_create_process", // RT, run
		"RT:tdp_init",
		"RT:tdp_attach",
		"RT:tdp_continue_process",
	); err != nil {
		t.Error(err)
	}
	// The AP create must be paused, the RT create run.
	var creates []string
	for _, sp := range tr.Spans() {
		if sp.Actor == "RM" && sp.Name == "tdp_create_process" {
			creates = append(creates, sp.Fields["detail"])
		}
	}
	if len(creates) != 2 || creates[0] != "foo,paused" || creates[1] != "rt-daemon,run" {
		t.Errorf("creates = %v", creates)
	}
}

// TestFigure3BAttachSequence reproduces Figure 3B: the application is
// already running under the RM; the RT is created later, attaches, and
// continues it.
func TestFigure3BAttachSequence(t *testing.T) {
	tr := telemetry.NewTracer("test")
	addr := newLASS(t)
	k := procsim.NewKernel()

	rm := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RM", Tracer: tr})

	// RM: tdp_create_process(AP, run) — the app runs for a while.
	ap, err := rm.CreateProcess(ProcessSpec{
		Executable: "server", Program: procsim.NewSpinnerProgram(), Symbols: procsim.StdSymbols,
	}, StartRun)
	if err != nil {
		t.Fatalf("create AP: %v", err)
	}
	rm.PublishPID(ap)

	// Later: RM creates the RT, which attaches to the running process.
	rt := initT(t, Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RT", Tracer: tr})
	pid, err := rt.GetPID(context.Background())
	if err != nil {
		t.Fatalf("GetPID: %v", err)
	}
	tp, err := rt.Attach(pid)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// Attach paused the running app (case 3: "pause the application").
	if ap.State() != procsim.StateStopped {
		t.Errorf("state after attach = %v, want stopped", ap.State())
	}
	if err := tp.Continue(); err != nil {
		t.Fatalf("Continue: %v", err)
	}
	if ap.State() != procsim.StateRunning {
		t.Errorf("state after continue = %v, want running", ap.State())
	}
	tp.Kill("")

	if err := testkit.StepsOf(t, tr).CheckOrder(
		"RM:tdp_init",
		"RM:tdp_create_process", // AP, run
		"RT:tdp_init",
		"RT:tdp_attach",
		"RT:tdp_continue_process",
	); err != nil {
		t.Error(err)
	}
}

// TestHandleOverDeadLASSFailsTyped kills the LASS under two handles:
// the library's job is to detect a dead server (PAPER §1), so every call
// fails promptly with attrspace.ErrConnLost — a Get blocked across the
// death included, instead of hanging — and the daemon recovers the way
// it started, with a tdp_init against the restarted LASS.
func TestHandleOverDeadLASSFailsTyped(t *testing.T) {
	addr := "unix:" + filepath.Join(t.TempDir(), "lass.sock")
	srv, _, err := ServeLASS(addr)
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	rm := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "RM"})
	rt := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "RT"})
	if err := rm.Put("before", "1"); err != nil {
		t.Fatalf("Put before the death: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := rt.Get(context.Background(), "after")
		got <- err
	}()
	for { // the Get is parked on the server
		if _, gets, _, _ := srv.Stats(); gets > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	srv.Close() // the LASS dies
	start := time.Now()
	if err := rm.Put("after", "2"); !errors.Is(err, attrspace.ErrConnLost) {
		t.Errorf("Put over a dead LASS: %v, want ErrConnLost", err)
	}
	if _, err := rt.TryGet("before"); !errors.Is(err, attrspace.ErrConnLost) {
		t.Errorf("TryGet over a dead LASS: %v, want ErrConnLost", err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, attrspace.ErrConnLost) {
			t.Errorf("Get blocked across the death: %v, want ErrConnLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Get blocked across the death never returned")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("the handles took %v to fail, want under 5 s", d)
	}

	srv, _, err = ServeLASS(addr)
	if err != nil {
		t.Fatalf("restart LASS: %v", err)
	}
	defer srv.Close()
	again := initT(t, Config{Context: "c", LASSAddr: addr, Identity: "RM"})
	if err := again.Put("after", "2"); err != nil {
		t.Fatalf("Put after re-Init: %v", err)
	}
	if v, err := again.TryGet("after"); err != nil || v != "2" {
		t.Errorf("TryGet after re-Init = %q, %v; want 2", v, err)
	}
}
