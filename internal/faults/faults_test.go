package faults

import (
	"context"
	"strings"
	"testing"
	"time"

	"tdp"
	"tdp/internal/procsim"
)

func newSupervisorT(t *testing.T) (*procsim.Kernel, *Supervisor) {
	t.Helper()
	k := procsim.NewKernel()
	s := NewSupervisor(k)
	t.Cleanup(s.Close)
	return k, s
}

func waitFault(t *testing.T, s *Supervisor) Fault {
	t.Helper()
	select {
	case f := <-s.Faults():
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no fault detected")
		return Fault{}
	}
}

func TestDetectKilledApplication(t *testing.T) {
	k, s := newSupervisorT(t)
	p, err := k.Spawn(procsim.Spec{Executable: "app", Program: procsim.NewSpinnerProgram(), Symbols: procsim.StdSymbols}, false)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	s.Watch(RoleApplication, p.PID(), "app", nil)
	p.Kill("SIGKILL")
	f := waitFault(t, s)
	if f.Role != RoleApplication || f.PID != p.PID() || f.Status.Signal != "SIGKILL" {
		t.Errorf("fault = %+v", f)
	}
	if !strings.Contains(f.String(), "AP app") {
		t.Errorf("String = %q", f.String())
	}
}

func TestDetectToolNonzeroExit(t *testing.T) {
	k, s := newSupervisorT(t)
	p, _ := k.Spawn(procsim.Spec{Executable: "paradynd", Program: procsim.NewExitingProgram(3)}, false)
	s.Watch(RoleTool, p.PID(), "paradynd", nil)
	f := waitFault(t, s)
	if f.Role != RoleTool || f.Status.Code != 3 {
		t.Errorf("fault = %+v", f)
	}
}

func TestCleanExitIsNotAFault(t *testing.T) {
	k, s := newSupervisorT(t)
	p, _ := k.Spawn(procsim.Spec{Executable: "ok", Program: procsim.NewExitingProgram(0)}, false)
	s.Watch(RoleApplication, p.PID(), "ok", nil)
	p.WaitParent()
	select {
	case f := <-s.Faults():
		t.Errorf("unexpected fault %v", f)
	case <-time.After(50 * time.Millisecond):
	}
	if len(s.History()) != 0 {
		t.Errorf("history = %v", s.History())
	}
}

func TestCustomExpectedPredicate(t *testing.T) {
	k, s := newSupervisorT(t)
	// A tool whose protocol says exit(9) means "detached cleanly".
	p, _ := k.Spawn(procsim.Spec{Executable: "t", Program: procsim.NewExitingProgram(9)}, false)
	s.Watch(RoleTool, p.PID(), "t", func(st procsim.ExitStatus) bool { return st.Code == 9 })
	p.WaitParent()
	select {
	case f := <-s.Faults():
		t.Errorf("unexpected fault %v", f)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestUnwatch(t *testing.T) {
	k, s := newSupervisorT(t)
	p, _ := k.Spawn(procsim.Spec{Executable: "app", Program: procsim.NewSpinnerProgram(), Symbols: procsim.StdSymbols}, false)
	s.Watch(RoleApplication, p.PID(), "app", nil)
	s.Unwatch(p.PID())
	p.Kill("")
	select {
	case f := <-s.Faults():
		t.Errorf("fault after Unwatch: %v", f)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestDetectDeadAttributeServer(t *testing.T) {
	_, s := newSupervisorT(t)
	srv, addr, err := tdp.ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	ping := PingAttrSpace(nil, addr)
	if err := ping(context.Background()); err != nil {
		t.Fatalf("initial ping: %v", err)
	}
	s.WatchService("lass@node1", 10*time.Millisecond, 0, ping)
	// Healthy for a few cycles.
	select {
	case f := <-s.Faults():
		t.Fatalf("fault while healthy: %v", f)
	case <-time.After(50 * time.Millisecond):
	}
	srv.Close() // the AS dies
	f := waitFault(t, s)
	if f.Role != RoleAux || f.Name != "lass@node1" || f.Err == nil {
		t.Errorf("fault = %+v", f)
	}
	if !strings.Contains(f.String(), "AS lass@node1") {
		t.Errorf("String = %q", f.String())
	}
}

// TestPingAttrSpaceJoinsNothing: a probe is a PING on a connection that
// never says HELLO — twenty of them leave the server's HELLO count and
// its set of contexts exactly where they were.
func TestPingAttrSpaceJoinsNothing(t *testing.T) {
	srv, addr, err := tdp.ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	defer srv.Close()
	hellos := srv.Telemetry().Counter("attrspace.ops.hello")
	pings := srv.Telemetry().Counter("attrspace.ops.ping")
	h0, p0, c0 := hellos.Value(), pings.Value(), len(srv.Space().Contexts())
	ping := PingAttrSpace(nil, addr)
	for i := 0; i < 20; i++ {
		if err := ping(context.Background()); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if got := pings.Value() - p0; got != 20 {
		t.Errorf("server answered %d PINGs, want 20", got)
	}
	if got := hellos.Value() - h0; got != 0 {
		t.Errorf("20 probes sent %d HELLOs, want none", got)
	}
	if got := len(srv.Space().Contexts()); got != c0 {
		t.Errorf("contexts = %d after 20 probes, want %d: a probe joins nothing", got, c0)
	}
}

func TestPublishFaultsIntoAttributeSpace(t *testing.T) {
	// The RM detects the tool's death and the surviving entities learn
	// of it through the attribute space — the paper's "communicate
	// their occurrence to the other entities".
	k, s := newSupervisorT(t)
	srv, addr, err := tdp.ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	defer srv.Close()
	rm, err := tdp.Init(tdp.Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RM"})
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	defer rm.Exit()
	other, err := tdp.Init(tdp.Config{Context: "job", LASSAddr: addr, Identity: "observer"})
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	defer other.Exit()

	s.PublishTo(rm)
	p, _ := k.Spawn(procsim.Spec{Executable: "paradynd", Program: procsim.NewSpinnerProgram(), Symbols: procsim.StdSymbols}, false)
	s.Watch(RoleTool, p.PID(), "paradynd", nil)
	p.Kill("SIGSEGV")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, err := other.Get(ctx, "fault")
	if err != nil {
		t.Fatalf("Get fault: %v", err)
	}
	if !strings.Contains(v, "RT paradynd") || !strings.Contains(v, "SIGSEGV") {
		t.Errorf("fault attribute = %q", v)
	}
}

func TestHistoryAccumulates(t *testing.T) {
	k, s := newSupervisorT(t)
	for i := 0; i < 3; i++ {
		p, _ := k.Spawn(procsim.Spec{Executable: "x", Program: procsim.NewExitingProgram(1)}, false)
		s.Watch(RoleApplication, p.PID(), "x", nil)
		p.WaitParent()
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(s.History()) < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(s.History()); got != 3 {
		t.Errorf("history = %d faults, want 3", got)
	}
}

func TestRoleStrings(t *testing.T) {
	if RoleApplication.String() != "AP" || RoleTool.String() != "RT" || RoleAux.String() != "AS" {
		t.Error("role strings wrong")
	}
	if Role(7).String() != "role(7)" {
		t.Error("unknown role string")
	}
}

func TestSupervisorCloseIdempotent(t *testing.T) {
	_, s := newSupervisorT(t)
	s.Close()
	s.Close()
}

func TestToolRestartOnFault(t *testing.T) {
	// An RM policy built on the supervisor: when the tool dies, launch
	// a replacement that re-attaches — the paper's "respond to them".
	k, s := newSupervisorT(t)
	srv, addr, err := tdp.ServeLASS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeLASS: %v", err)
	}
	defer srv.Close()
	rm, err := tdp.Init(tdp.Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "RM"})
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	defer rm.Exit()

	ap, err := rm.CreateProcess(tdp.ProcessSpec{
		Executable: "app", Program: procsim.NewSleeperProgram(time.Hour), Symbols: procsim.StdSymbols,
	}, tdp.StartRun)
	if err != nil {
		t.Fatalf("create app: %v", err)
	}
	defer ap.Kill("")
	rm.PublishPID(ap)

	mkTool := func() *tdp.Process {
		tool, err := rm.CreateProcess(tdp.ProcessSpec{
			Executable: "tool",
			Program: procsim.ProgramFunc(func(pc *procsim.ProcContext) int {
				h, err := tdp.Init(tdp.Config{Context: "job", LASSAddr: addr, Kernel: k, Identity: "tool"})
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
				h.Put("tool_generation", "attached")
				p.Continue()
				pc.Sleep(time.Hour) // monitor forever (until killed)
				return 0
			}),
		}, tdp.StartRun)
		if err != nil {
			t.Fatalf("create tool: %v", err)
		}
		return tool
	}

	tool1 := mkTool()
	s.Watch(RoleTool, tool1.PID(), "tool", nil)
	// Wait for the first generation to attach.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := rm.Get(ctx, "tool_generation"); err != nil {
		t.Fatalf("first tool never attached: %v", err)
	}
	tool1.Kill("SIGKILL")
	f := waitFault(t, s)
	if f.Role != RoleTool {
		t.Fatalf("fault = %v", f)
	}
	// Policy: restart. The replacement must be able to attach again —
	// requires the kernel to have released the dead tracer.
	rm.Delete("tool_generation")
	tool2 := mkTool()
	defer tool2.Kill("")
	s.Watch(RoleTool, tool2.PID(), "tool", nil)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := rm.Get(ctx2, "tool_generation"); err != nil {
		t.Fatalf("replacement tool never attached: %v", err)
	}
}
