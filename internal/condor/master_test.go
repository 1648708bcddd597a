package condor

import (
	"slices"
	"testing"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/netsim"
	"tdp/internal/telemetry"
	"tdp/internal/testkit"
)

func waitRestart(t *testing.T, m *Master, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.Restarts() < want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if m.Restarts() < want {
		t.Fatalf("restarts = %d, want >= %d", m.Restarts(), want)
	}
}

func TestMasterRestartsDeadLASS(t *testing.T) {
	tr := telemetry.NewTracer("test")
	machine, err := NewMachine(MachineConfig{Name: "m", Arch: "INTEL", OpSys: "LINUX", Memory: 64})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	defer machine.Close()
	master := NewMaster(machine, 5*time.Millisecond, tr)
	defer master.Close()
	addr := machine.LASSAddr()

	// Healthy: no restarts.
	time.Sleep(30 * time.Millisecond)
	if master.Restarts() != 0 {
		t.Fatalf("spurious restarts: %d", master.Restarts())
	}

	// Kill the daemon.
	machine.LASS().Close()
	waitRestart(t, master, 1)

	// Same address, working again.
	if machine.LASSAddr() != addr {
		t.Errorf("address changed across restart: %q -> %q", addr, machine.LASSAddr())
	}
	c, err := attrspace.Dial(nil, addr, "after")
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	defer c.Close()
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
	if err := testkit.StepsOf(t, tr).CheckOrder("master:daemon_died", "master:daemon_restarted"); err != nil {
		t.Error(err)
	}
}

func TestMasterOnSimulatedNetwork(t *testing.T) {
	nw := netsim.New()
	host := nw.AddHost("node1")
	machine, err := NewMachine(MachineConfig{Name: "node1", Arch: "INTEL", OpSys: "LINUX", Memory: 64, NetHost: host})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	defer machine.Close()
	master := NewMaster(machine, 5*time.Millisecond, nil)
	defer master.Close()

	machine.LASS().Close()
	waitRestart(t, master, 1)
	c, err := attrspace.Dial(machine.Dial(), machine.LASSAddr(), "after")
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	defer c.Close()
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
}

func TestMasterCloseIdempotent(t *testing.T) {
	machine, err := NewMachine(MachineConfig{Name: "m", Arch: "X", OpSys: "Y", Memory: 1})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	defer machine.Close()
	master := NewMaster(machine, time.Millisecond, nil)
	master.Close()
	master.Close()
}

func TestJobSurvivesAcrossLASSRestart(t *testing.T) {
	// A job that starts after the restart works normally: the restart
	// is transparent to future jobs because the address is stable.
	machine, err := NewMachine(MachineConfig{Name: "m1", Arch: "INTEL", OpSys: "LINUX", Memory: 128})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	pool := NewPool(PoolOptions{NegotiationTimeout: 2 * time.Second})
	t.Cleanup(pool.Close)
	// Adopt the machine into the pool manually.
	sd := NewStartd(machine, pool.Registry(), nil)
	pool.mu.Lock()
	pool.machines["m1"] = machine
	pool.startds["m1"] = sd
	pool.mu.Unlock()
	pool.mm.AdvertiseMachine("m1", machine.Ad())
	registerTestPrograms(pool.Registry())

	master := NewMaster(machine, 5*time.Millisecond, nil)
	defer master.Close()
	machine.LASS().Close()
	waitRestart(t, master, 1)

	jobs, err := pool.Submit("executable = exit7\nqueue\n")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := jobs[0].WaitExit(15 * time.Second)
	if err != nil {
		t.Fatalf("WaitExit after restart: %v", err)
	}
	if st.Code != 7 {
		t.Errorf("exit = %v", st)
	}
}

// TestMasterDetectsHungLASS: a LASS that accepts connections and never
// answers is dead to its clients. The master's probe is bounded, so the
// hang is declared a death when the bound runs out — on the master's
// clock, so the test advances the two seconds instead of waiting them
// out — and Close returns even with a probe in flight against the hung
// daemon.
func TestMasterDetectsHungLASS(t *testing.T) {
	tr := telemetry.NewTracer("test")
	machine, err := NewMachine(MachineConfig{Name: "m", Arch: "INTEL", OpSys: "LINUX", Memory: 64})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	defer machine.Close()
	machine.mu.Lock()
	machine.lassAddr = testkit.HungListener(t)
	machine.mu.Unlock()

	clk := testkit.NewClock()
	master := newMaster(machine, 5*time.Millisecond, tr, clk)
	clk.Advance(clk.NextTimer()) // the interval: a probe is now in flight
	if d := clk.NextTimer(); d != probeTimeout {
		t.Fatalf("probe bound = %v, want probeTimeout (%v)", d, probeTimeout)
	}
	if slices.Contains(testkit.StepsOf(t, tr), "master:daemon_died") {
		t.Fatal("death declared before the probe's bound ran out")
	}
	clk.Advance(probeTimeout)
	for deadline := time.Now().Add(5 * time.Second); !slices.Contains(testkit.StepsOf(t, tr), "master:daemon_died"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("hung LASS never declared dead")
		}
	}

	// The restart cannot bind the hung daemon's port, so the master is
	// watching again: put another probe in flight, then close.
	clk.Advance(clk.NextTimer())
	clk.NextTimer()
	closed := make(chan struct{})
	go func() {
		master.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged behind a probe of the hung LASS")
	}
}

// TestMasterProbeJoinsNothing: the master's health check is a PING on a
// connection that never says HELLO, so supervising a LASS creates no
// context on it and sends it no HELLO.
func TestMasterProbeJoinsNothing(t *testing.T) {
	machine, err := NewMachine(MachineConfig{Name: "m", Arch: "INTEL", OpSys: "LINUX", Memory: 64})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	defer machine.Close()
	lass := machine.LASS()
	hellos := lass.Telemetry().Counter("attrspace.ops.hello")
	pings := lass.Telemetry().Counter("attrspace.ops.ping")
	h0, c0 := hellos.Value(), len(lass.Space().Contexts())
	master := NewMaster(machine, time.Millisecond, nil)
	for deadline := time.Now().Add(5 * time.Second); pings.Value() < 20; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d probes in 5s", pings.Value())
		}
	}
	master.Close()
	if got := hellos.Value() - h0; got != 0 {
		t.Errorf("20 probes sent %d HELLOs, want none", got)
	}
	if got := len(lass.Space().Contexts()); got != c0 {
		t.Errorf("contexts = %d after 20 probes, want %d", got, c0)
	}
	if master.Restarts() != 0 {
		t.Errorf("spurious restarts: %d", master.Restarts())
	}
}
