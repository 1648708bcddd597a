package tdp_test

// This file reproduces the paper's architectural figures as executable
// experiments (DESIGN.md E1, E2):
//
//   Figure 1 — remote execution with RM and RT behind a firewall: the
//   tool daemon on the private execution host reaches its front-end
//   only through the resource manager's proxy on the gateway.
//
//   Figure 2 — the same topology with the attribute space servers
//   added: a LASS on each execution host, the CASS beside the
//   front-ends, with LASS isolation between hosts.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/condor"
	"tdp/internal/netsim"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/proxy"
	"tdp/internal/telemetry"
)

// figure1Net builds the Figure-1 network: the user's desktop (RM and
// RT front-ends), the gateway (firewall + RM proxy), and the private
// execution host. The firewall admits only gateway traffic in or out
// of node1, and blocks inbound connections to the desktop except from
// the gateway.
func figure1Net() (nw *netsim.Network, desktop, gateway, node *netsim.Host) {
	nw = netsim.New()
	desktop = nw.AddHost("desktop")
	gateway = nw.AddHost("gateway")
	node = nw.AddHost("node1")
	nw.AddRule(netsim.BlockInbound("node1", "gateway"))
	nw.AddRule(netsim.BlockOutbound("node1", "gateway"))
	nw.AddRule(netsim.BlockInbound("desktop", "gateway"))
	return
}

func TestFigure1Topology(t *testing.T) {
	tr := telemetry.NewTracer("test")
	nw, desktop, gateway, node := figure1Net()

	// Paradyn front-end on the desktop.
	feListener, err := desktop.Listen(2090)
	if err != nil {
		t.Fatalf("listen FE: %v", err)
	}
	fe, err := paradyn.NewFrontEnd(paradyn.FrontEndConfig{Listener: feListener, AutoRun: true, Tracer: tr})
	if err != nil {
		t.Fatalf("NewFrontEnd: %v", err)
	}
	defer fe.Close()

	// The private node cannot reach the front-end directly.
	if _, err := node.Dial("desktop:2090"); !errors.Is(err, netsim.ErrBlocked) {
		t.Fatalf("direct dial = %v, want firewall block", err)
	}

	// The RM establishes its proxy on the gateway, forwarding to the
	// front-end (§2.4: TDP "merely leverages existing" proxy
	// facilities).
	fw := proxy.NewForwarder(gateway.Dial, "desktop:2090")
	fwListener, err := gateway.Listen(7000)
	if err != nil {
		t.Fatalf("listen proxy: %v", err)
	}
	go fw.Serve(fwListener)
	defer fw.Close()

	// Condor pool whose execute machine lives on the private host; its
	// LASS binds on node1's simulated network.
	pool := condor.NewPool(condor.PoolOptions{Tracer: tr, NegotiationTimeout: 2 * time.Second})
	defer pool.Close()
	if _, err := pool.AddMachine(condor.MachineConfig{
		Name: "node1", Arch: "INTEL", OpSys: "LINUX", Memory: 128, NetHost: node,
	}); err != nil {
		t.Fatalf("AddMachine: %v", err)
	}
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	pool.Registry().RegisterProgram("science", func(args []string) (procsim.Program, []string) {
		phases, prog := procsim.DefaultScienceApp(20)
		return prog, procsim.PhasedSymbols(phases)
	})

	// TDP hands the daemon the PROXY address, not the front-end's.
	submit := `executable = science
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-zunix -a%pid"
+FrontendAddr = "gateway:7000"
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
		t.Fatalf("front-end never heard from the daemon: %v", err)
	}
	// The profile crossed the firewall through the proxy.
	if fn, _, ok := fe.Bottleneck(); !ok || fn != "compute_forces" {
		t.Errorf("bottleneck = %q, %v", fn, ok)
	}
	tunnels, bytes := fw.Stats()
	if tunnels < 1 || bytes == 0 {
		t.Errorf("proxy stats = %d tunnels, %d bytes — traffic did not flow through the proxy", tunnels, bytes)
	}
	// The firewall blocked at least our one direct attempt.
	if _, blocked := nw.Stats(); blocked < 1 {
		t.Errorf("firewall blocked %d dials, want >= 1", blocked)
	}
}

func TestFigure2AttributeServers(t *testing.T) {
	// Figure 2 adds the attribute servers: a CASS on the front-end
	// host and a LASS per execution host. The front-end publishes its
	// address in the CASS ("port arguments should be published by
	// Paradyn front-end and disseminated to remote sites as attribute
	// values", §4.3); the submit side reads it there and the starter
	// disseminates it to the execution host's LASS.
	nw, desktop, gateway, node := figure1Net()
	nw.AddHost("node2")

	// CASS on the desktop.
	cassListener, err := desktop.Listen(4000)
	if err != nil {
		t.Fatalf("listen CASS: %v", err)
	}
	cass := attrspace.NewServer()
	go cass.Serve(cassListener)
	defer cass.Close()

	// Paradyn front-end on the desktop; it publishes its address into
	// the CASS.
	feListener, err := desktop.Listen(2090)
	if err != nil {
		t.Fatalf("listen FE: %v", err)
	}
	fe, err := paradyn.NewFrontEnd(paradyn.FrontEndConfig{Listener: feListener, AutoRun: true})
	if err != nil {
		t.Fatalf("NewFrontEnd: %v", err)
	}
	defer fe.Close()

	feSide, err := tdp.Init(tdp.Config{
		Context:  "parador",
		LASSAddr: "desktop:4000", // the front-end host's local server doubles as its LASS
		CASSAddr: "desktop:4000",
		Dial:     func(addr string) (net.Conn, error) { return desktop.Dial(addr) },
		Identity: "paradyn-fe",
	})
	if err != nil {
		t.Fatalf("Init FE side: %v", err)
	}
	defer feSide.Exit()
	// Publish the proxy address (the reachable one) under the standard name.
	if err := feSide.PutGlobal(tdp.AttrFrontendAddr, "gateway:7000"); err != nil {
		t.Fatalf("PutGlobal: %v", err)
	}

	// RM proxy on the gateway.
	fw := proxy.NewForwarder(gateway.Dial, "desktop:2090")
	fwListener, _ := gateway.Listen(7000)
	go fw.Serve(fwListener)
	defer fw.Close()

	// The submit machine (also outside the private net) reads the
	// front-end address from the CASS.
	submitSide, err := tdp.Init(tdp.Config{
		Context:  "parador",
		LASSAddr: "desktop:4000",
		CASSAddr: "desktop:4000",
		Dial:     func(addr string) (net.Conn, error) { return desktop.Dial(addr) },
		Identity: "submit",
	})
	if err != nil {
		t.Fatalf("Init submit side: %v", err)
	}
	defer submitSide.Exit()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	feAddr, err := submitSide.GetGlobal(ctx, tdp.AttrFrontendAddr)
	if err != nil {
		t.Fatalf("GetGlobal: %v", err)
	}

	// Pool on the private node; the submit file carries the address
	// learned from the CASS.
	pool := condor.NewPool(condor.PoolOptions{NegotiationTimeout: 2 * time.Second})
	defer pool.Close()
	machine, err := pool.AddMachine(condor.MachineConfig{
		Name: "node1", Arch: "INTEL", OpSys: "LINUX", Memory: 128, NetHost: node,
	})
	if err != nil {
		t.Fatalf("AddMachine: %v", err)
	}
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	pool.Registry().RegisterProgram("science", func(args []string) (procsim.Program, []string) {
		phases, prog := procsim.DefaultScienceApp(10)
		return prog, procsim.PhasedSymbols(phases)
	})
	submit := `executable = science
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-a%pid"
+FrontendAddr = "` + feAddr + `"
queue
`
	// Observe the job's attributes in node1's LASS — reached through the
	// gateway, the only host the firewall admits. The probe joins the
	// job's context before the job exists: a launch takes 200 µs, and a
	// probe that joined after the last participant had left would wait on
	// a fresh, empty context.
	probe, err := attrspace.Dial(
		func(addr string) (net.Conn, error) { return gateway.Dial(addr) },
		machine.LASSAddr(), "job-1")
	if err != nil {
		t.Fatalf("probe dial: %v", err)
	}
	defer probe.Close()
	jobs, err := pool.Submit(submit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	probeCtx, probeCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer probeCancel()
	pidVal, _, err := probe.GetAt(probeCtx, attrspace.Local, tdp.AttrPID)
	if err != nil {
		t.Fatalf("pid never appeared in node1's LASS: %v", err)
	}
	if pidVal == "" {
		t.Error("empty pid attribute")
	}
	// The front-end address disseminated from the CASS reached the LASS.
	if fa, _, err := probe.GetAt(probeCtx, attrspace.Local, tdp.AttrFrontendAddr); err != nil || fa != "gateway:7000" {
		t.Errorf("frontend addr in LASS = %q, %v", fa, err)
	}

	if _, err := jobs[0].WaitExit(30 * time.Second); err != nil {
		t.Fatalf("WaitExit: %v", err)
	}
	if err := fe.WaitDone(1, 10*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}

	// Figure 2 isolation: job attributes lived only in the node's
	// LASS; the CASS never saw a job context.
	for _, c := range cass.Space().Contexts() {
		if strings.HasPrefix(c, "job-") {
			t.Errorf("job context leaked into the CASS: %v", cass.Space().Contexts())
		}
	}
}
