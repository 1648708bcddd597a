package mrnet

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/rmkit"
	"tdp/internal/wire"
)

// fakeDaemon registers with addr, waits for RUN, sends the given
// samples, then DONE.
func fakeDaemon(t *testing.T, addr, name string, samples map[string]paradyn.FuncStats, status string) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("%s: dial: %v", name, err)
	}
	wc := wire.NewConn(raw)
	if err := wc.Send(wire.NewMessage("REGISTER").Set("daemon", name).Set("host", "h").SetInt("pid", 1)); err != nil {
		t.Fatalf("%s: register: %v", name, err)
	}
	go func() {
		defer raw.Close()
		m, err := wc.Recv()
		if err != nil || m.Verb != "RUN" {
			t.Errorf("%s: expected RUN, got %v, %v", name, m, err)
			return
		}
		for fn, s := range samples {
			wc.Send(wire.NewMessage("SAMPLE").
				Set("fn", fn).
				Set("calls", fmt.Sprintf("%d", s.Calls)).
				Set("time_us", fmt.Sprintf("%d", s.TimeMicros)))
		}
		time.Sleep(10 * time.Millisecond) // let a flush cycle pass
		wc.Send(wire.NewMessage("DONE").Set("status", status))
		// Keep the connection open briefly so the node can flush.
		time.Sleep(50 * time.Millisecond)
	}()
}

func newFE(t *testing.T) *paradyn.FrontEnd {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fe, err := paradyn.NewFrontEnd(paradyn.FrontEndConfig{Listener: l, AutoRun: true})
	if err != nil {
		t.Fatalf("NewFrontEnd: %v", err)
	}
	t.Cleanup(fe.Close)
	return fe
}

func TestSingleNodeReduction(t *testing.T) {
	fe := newFE(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	node, err := NewNode(Config{
		Name: "agg", Listener: l, ParentAddr: fe.Addr(), ExpectedChildren: 3,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	for i := 0; i < 3; i++ {
		fakeDaemon(t, node.Addr(), fmt.Sprintf("d%d", i), map[string]paradyn.FuncStats{
			"work": {Calls: 10, TimeMicros: 100},
			"io":   {Calls: int64(i), TimeMicros: int64(i * 5)},
		}, "exit(0)")
	}

	// The front-end sees exactly one (aggregate) daemon.
	if err := fe.WaitDone(1, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	daemons := fe.Daemons()
	if len(daemons) != 1 || daemons[0] != "agg" {
		t.Fatalf("daemons = %v, want [agg]", daemons)
	}
	// Reduced stats are the sums.
	stats := fe.AllStats()
	if stats["work"].Calls != 30 || stats["work"].TimeMicros != 300 {
		t.Errorf("work = %+v, want 30 calls / 300us", stats["work"])
	}
	if stats["io"].Calls != 3 || stats["io"].TimeMicros != 15 {
		t.Errorf("io = %+v, want 3 calls / 15us", stats["io"])
	}
	if st, ok := fe.ExitStatus("agg"); !ok || st != "exit(0)" {
		t.Errorf("aggregate status = %q, %v", st, ok)
	}
	if node.ChildCount() != 3 || node.DoneCount() != 3 {
		t.Errorf("children/done = %d/%d", node.ChildCount(), node.DoneCount())
	}
}

func TestMixedExitStatuses(t *testing.T) {
	fe := newFE(t)
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	node, err := NewNode(Config{
		Name: "agg", Listener: l, ParentAddr: fe.Addr(), ExpectedChildren: 2,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()
	fakeDaemon(t, node.Addr(), "ok", map[string]paradyn.FuncStats{"f": {Calls: 1}}, "exit(0)")
	fakeDaemon(t, node.Addr(), "bad", map[string]paradyn.FuncStats{"f": {Calls: 1}}, "exit(1)")
	if err := fe.WaitDone(1, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	if st, _ := fe.ExitStatus("agg"); st != "mixed" {
		t.Errorf("aggregate status = %q, want mixed", st)
	}
}

func TestTwoLevelTree(t *testing.T) {
	fe := newFE(t)
	leafAddrs, shutdown, err := BuildTree(fe.Addr(), 2, 2, nil)
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	defer shutdown()
	if len(leafAddrs) != 2 {
		t.Fatalf("leafAddrs = %v", leafAddrs)
	}
	// Four daemons, two per leaf.
	for i := 0; i < 4; i++ {
		fakeDaemon(t, leafAddrs[i%2], fmt.Sprintf("d%d", i), map[string]paradyn.FuncStats{
			"work": {Calls: 5, TimeMicros: 50},
		}, "exit(0)")
	}
	if err := fe.WaitDone(1, 10*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	stats := fe.AllStats()
	if stats["work"].Calls != 20 || stats["work"].TimeMicros != 200 {
		t.Errorf("work = %+v, want 20 calls / 200us", stats["work"])
	}
	// One aggregate at the front-end regardless of tree size.
	if got := fe.Daemons(); len(got) != 1 {
		t.Errorf("daemons = %v", got)
	}
}

func TestRepeatedSamplesDoNotDoubleCount(t *testing.T) {
	// Daemons stream the same (monotone) sample repeatedly; the
	// reduction must track latest values, not accumulate deltas.
	fe := newFE(t)
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	node, err := NewNode(Config{
		Name: "agg", Listener: l, ParentAddr: fe.Addr(), ExpectedChildren: 1,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	raw, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	wc.Send(wire.NewMessage("REGISTER").Set("daemon", "d0").Set("host", "h").SetInt("pid", 1))
	if m, err := wc.Recv(); err != nil || m.Verb != "RUN" {
		t.Fatalf("RUN: %v %v", m, err)
	}
	for i := 1; i <= 5; i++ {
		wc.Send(wire.NewMessage("SAMPLE").Set("fn", "work").
			Set("calls", fmt.Sprintf("%d", i*10)).
			Set("time_us", fmt.Sprintf("%d", i*100)))
		time.Sleep(3 * time.Millisecond)
	}
	wc.Send(wire.NewMessage("DONE").Set("status", "exit(0)"))
	if err := fe.WaitDone(1, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	stats := fe.AllStats()
	if stats["work"].Calls != 50 || stats["work"].TimeMicros != 500 {
		t.Errorf("work = %+v, want latest 50 calls / 500us (not a sum of the stream)", stats["work"])
	}
}

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Error("NewNode without listener succeeded")
	}
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	if _, err := NewNode(Config{Listener: l}); err == nil {
		t.Error("NewNode without parent succeeded")
	}
	l2, _ := net.Listen("tcp", "127.0.0.1:0")
	if _, err := NewNode(Config{Listener: l2, ParentAddr: "127.0.0.1:1"}); err == nil {
		t.Error("NewNode with dead parent succeeded")
	}
}

func TestRealParadyndsThroughTree(t *testing.T) {
	// End-to-end: real paradyn daemons under the queue RM, streaming
	// through a reduction node to the front-end. The RM launches the
	// auxiliary service — the §2 AS bullet.
	fe := newFE(t)
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	node, err := NewNode(Config{
		Name: "agg", Listener: l, ParentAddr: fe.Addr(), ExpectedChildren: 3,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	host, port, _ := net.SplitHostPort(node.Addr())
	rm, err := rmkit.NewQueueRM(3, nil)
	if err != nil {
		t.Fatalf("NewQueueRM: %v", err)
	}
	defer rm.Close()

	var jobs []*rmkit.QueuedJob
	for i := 0; i < 3; i++ {
		phases := []procsim.PhaseSpec{{Name: "work", Units: 2}}
		qj, err := rm.Enqueue(rmkit.JobSpec{
			Name:     "app",
			Program:  procsim.NewPhasedProgram(4, phases),
			Symbols:  procsim.PhasedSymbols(phases),
			Tool:     paradyn.Tool(),
			ToolArgs: []string{"-m" + host, "-p" + port, "-a%pid"},
			Timeout:  30 * time.Second,
		})
		if err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		jobs = append(jobs, qj)
	}
	for i, qj := range jobs {
		if st, err := qj.Wait(30 * time.Second); err != nil || st.Code != 0 {
			t.Fatalf("job %d = %v, %v", i, st, err)
		}
	}
	if err := fe.WaitDone(1, 10*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	stats := fe.AllStats()
	if stats["work"].Calls != 12 { // 3 daemons x 4 calls
		t.Errorf("reduced work calls = %d, want 12\n%s", stats["work"].Calls, paradyn.FormatTable(stats))
	}
	if len(fe.Daemons()) != 1 {
		t.Errorf("front-end sees %d daemons, want 1 aggregate", len(fe.Daemons()))
	}
	if !strings.Contains(fe.Report(), "work") {
		t.Errorf("report:\n%s", fe.Report())
	}
}

// TestFinalFlushNotOvertaken: a flush that has taken the dirty set but
// not yet written it (the ticker goroutine's, under load) must not be
// overtaken by the handler's final flush + DONE, or the parent sees DONE
// before the last sample ("compute_forces calls = 0").
func TestFinalFlushNotOvertaken(t *testing.T) {
	fe := newFE(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	node, err := NewNode(Config{
		Name: "agg", Listener: l, ParentAddr: fe.Addr(), ExpectedChildren: 1,
		FlushInterval: time.Hour, // every flush below is the test's or the handler's
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()
	parked, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	node.mu.Lock()
	node.afterTake = func(taken int) {
		if taken > 0 && first.CompareAndSwap(false, true) {
			close(parked)
			<-release // only this flush parks; any other runs through
		}
	}
	node.mu.Unlock()

	raw, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	wc.Send(wire.NewMessage("REGISTER").Set("daemon", "d0").Set("host", "h").SetInt("pid", 1))
	wc.Send(wire.NewMessage("SAMPLE").Set("fn", "compute_forces").Set("calls", "5").Set("time_us", "50"))
	go func() { // the ticker's part: flush until one has taken the sample
		for {
			node.flush()
			select {
			case <-parked:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	<-parked
	wc.Send(wire.NewMessage("DONE").Set("status", "exit(0)"))
	if fe.WaitDone(1, 100*time.Millisecond) == nil {
		t.Error("DONE reached the front-end while a flush still held the sample it had taken")
	}
	close(release)
	if err := fe.WaitDone(1, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	if got := fe.AllStats()["compute_forces"].Calls; got != 5 {
		t.Errorf("compute_forces calls = %d at DONE, want 5", got)
	}
}
