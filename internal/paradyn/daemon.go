package paradyn

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/condor"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// DaemonOptions are parsed from paradynd's argument vector, which uses
// the paper's Figure 5B style: "-zunix -l3 -mpinguino.cs.wisc.edu
// -p2090 -P2091 -a%pid".
type DaemonOptions struct {
	FEHost  string // -m<host>
	FEPort  int    // -p<port>: the daemon-protocol port
	FEPort2 int    // -P<port>: the front-end's second port (Figure 5B's -P2091)
	PID     int    // -a<pid>; 0 when the marker was unresolved (%pid) or absent
	TDP     bool   // true when no concrete pid was given: fetch it from the LASS
	Level   int    // -l<n>, instrumentation level (kept for fidelity)
	Flavor  string // -z<flavor>, e.g. "unix" (kept for fidelity)
}

// ParseDaemonArgs parses the paradynd argument style of §4.3. An
// argument "-a%pid" (unsubstituted marker) or a missing/empty -a means
// the daemon is running under the TDP framework and must get the pid
// from the attribute space — exactly how the prototype's paradynd
// detected TDP mode ("when paradynd parses its arguments ... it does
// not find any application process reference; paradynd assumes then
// that it is working under a TDP framework").
func ParseDaemonArgs(args []string) DaemonOptions {
	opts := DaemonOptions{TDP: true}
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "-m"):
			opts.FEHost = a[2:]
		case strings.HasPrefix(a, "-p"):
			opts.FEPort, _ = strconv.Atoi(a[2:])
		case strings.HasPrefix(a, "-P"):
			opts.FEPort2, _ = strconv.Atoi(a[2:])
		case strings.HasPrefix(a, "-z"):
			opts.Flavor = a[2:]
		case strings.HasPrefix(a, "-l"):
			opts.Level, _ = strconv.Atoi(a[2:])
		case strings.HasPrefix(a, "-a"):
			v := a[2:]
			if v == "" || strings.Contains(v, "%pid") {
				opts.TDP = true
				continue
			}
			if pid, err := strconv.Atoi(v); err == nil && pid > 0 {
				opts.PID = pid
				opts.TDP = false
			}
		}
	}
	return opts
}

// FEAddr returns the front-end address from the arguments, or "".
func (o DaemonOptions) FEAddr() string {
	if o.FEHost == "" || o.FEPort == 0 {
		return ""
	}
	return net.JoinHostPort(o.FEHost, strconv.Itoa(o.FEPort))
}

// SampleInterval is how often a daemon streams metric samples to its
// front-end while the application runs. The wait between samples ends
// early when the application exits.
const SampleInterval = 5 * time.Millisecond

// Tool is paradynd packaged as a condor run-time tool: register it
// under the name used by +ToolDaemonCmd ("paradynd"). The returned
// program performs the full §4.3 daemon role.
func Tool() condor.Tool {
	return func(env condor.ToolEnv, args []string) procsim.Program {
		return procsim.ProgramFunc(func(pc *procsim.ProcContext) int {
			return runDaemon(env, args, pc)
		})
	}
}

// runDaemon is paradynd's main line.
func runDaemon(env condor.ToolEnv, args []string, pc *procsim.ProcContext) int {
	opts := ParseDaemonArgs(args)
	fail := func(stage string, err error) int {
		fmt.Fprintf(pc.Stderr(), "paradynd: %s: %v\n", stage, err)
		return 1
	}

	// TDP framework setup (Figure 6 step 3).
	h, err := tdp.Init(tdp.Config{
		Context:  env.Context,
		LASSAddr: env.LASSAddr,
		Dial:     env.Dial,
		Kernel:   env.Kernel,
		Identity: "paradynd",
		Tracer:   env.Tracer,
	})
	if err != nil {
		return fail("tdp_init", err)
	}
	defer h.Exit()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Find the application: explicit pid (attach mode) or blocking get
	// from the attribute space (create mode under TDP).
	var pid procsim.PID
	if opts.TDP {
		pid, err = h.GetPID(ctx)
		if err != nil {
			return fail("tdp_get pid", err)
		}
	} else {
		pid = procsim.PID(opts.PID)
	}

	// Attach (pausing the process if it was running) and "parse the
	// executable to discover symbols and find potential
	// instrumentation points" (§4.2).
	proc, err := h.Attach(pid)
	if err != nil {
		return fail("tdp_attach", err)
	}
	metrics := NewMetrics()
	for _, sym := range proc.Symbols() {
		sym := sym
		if _, err := proc.InsertProbe(sym,
			func(pc *procsim.ProcContext) { metrics.OnEntry(sym, pc.CPUMicros()) },
			func(pc *procsim.ProcContext) { metrics.OnExit(sym, pc.CPUMicros()) }); err != nil {
			return fail("instrument "+sym, err)
		}
	}

	// Connect to the front-end: the address comes from the argument
	// vector (the prototype's manual mechanism) or from the attribute
	// space (the "complete TDP framework" of §4.3, where the RM
	// publishes the front-end address — possibly a proxy, §2.4).
	feAddr := opts.FEAddr()
	if feAddr == "" {
		if v, err := h.TryGet(tdp.AttrFrontendAddr); err == nil {
			feAddr = v
		}
	}
	var fe *wire.Conn
	var local *telemetry.Registry
	if feAddr != "" {
		dial := env.Dial
		if dial == nil {
			dial = attrspace.TCPDial
		}
		raw, err := dial(feAddr)
		if err != nil {
			return fail("connect front-end "+feAddr, err)
		}
		defer raw.Close()
		fe = wire.NewConn(raw)
		name := fmt.Sprintf("paradynd.%s.rank%d", env.Machine, env.Rank)
		reg := wire.NewMessage("REGISTER").
			Set("daemon", name).
			Set("host", env.Machine).
			SetInt("pid", int(pid)).
			Set("executable", proc.Executable()).
			SetInt("rank", env.Rank)
		if err := fe.Send(reg); err != nil {
			return fail("register", err)
		}
		// The daemon's telemetry lives in a daemon-LOCAL registry: many
		// simulated daemons share one process, and the pool rollup sums
		// counters across registrants, so answering the front-end's
		// polls from the shared process registry would multiply-count
		// it.
		local = telemetry.NewRegistry()
		run := make(chan error, 1)
		go serveFrontEnd(fe, name, local, run)
		// Wait for the user's run command from the front-end.
		if err := <-run; err != nil {
			return fail("await RUN", err)
		}
	}

	// Tell the RM we are in control, then start the application.
	if err := h.Put(tdp.AttrToolReady, "1"); err != nil {
		return fail("tool_ready", err)
	}
	if err := proc.Continue(); err != nil {
		return fail("tdp_continue", err)
	}

	// Stream samples until the application exits. The process-wide
	// counter still ticks so a plain STATS snapshot shows the
	// instrumentation data volume next to the protocol traffic.
	sendSamples := func() {}
	if fe != nil {
		samplesLocal := local.Counter("paradyn.samples.sent")
		sampleLat := local.Histogram("paradyn.sample.batch_us", nil)
		samplesSent := telemetry.Default().Counter("paradyn.samples.sent")
		sendSamples = func() {
			start := time.Now()
			fe.Cork()
			for fn, s := range metrics.Snapshot() {
				fe.Send(wire.NewMessage("SAMPLE").
					Set("fn", fn).
					Set("calls", strconv.FormatInt(s.Calls, 10)).
					Set("time_us", strconv.FormatInt(s.TimeMicros, 10)))
				samplesSent.Inc()
				samplesLocal.Inc()
			}
			sampleLat.Observe(float64(time.Since(start).Microseconds()))
			fe.Uncork()
		}
	}
	for {
		sendSamples()
		if pc.Wait(SampleInterval, proc.Exited()) {
			break
		}
	}
	exit, _ := proc.ExitStatus()
	sendSamples()
	if fe != nil {
		// The final snapshot rides on DONE: a finished daemon's totals
		// are exact at its parent without a poll.
		fe.Send(WithSnapshot(wire.NewMessage("DONE").Set("status", exit.String()), local.Snapshot()))
	}

	// Leave a human-readable profile on stdout (lands in the
	// ToolDaemonOutput file and is transferred back, §2's data-file
	// bullet), in one write.
	profile := metrics.Snapshot() // the probes stopped with the process
	pc.Stdout().Write(appendProfile(make([]byte, 0, tableSize(profile)+128), env.Machine, env.Rank, exit, profile))
	return 0
}

// appendProfile appends the profile a daemon leaves on its stdout: the
// line that names the daemon and the application's exit, the table
// (AppendTable), and the bottleneck when there is one.
func appendProfile(b []byte, machine string, rank int, exit procsim.ExitStatus, profile map[string]FuncStats) []byte {
	b = append(b, "paradynd "...)
	b = append(b, machine...)
	b = append(b, " rank "...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, ": "...)
	b = append(b, exit.String()...)
	b = append(b, '\n')
	b = AppendTable(b, profile)
	if fn, share, ok := Bottleneck(profile, "main"); ok {
		b = append(b, "bottleneck: "...)
		b = append(b, fn...)
		b = append(b, " ("...)
		b = strconv.AppendFloat(b, share*100, 'f', 0, 64)
		b = append(b, "%)\n"...)
	}
	return b
}

// serveFrontEnd reads the front-end connection until it closes: the
// first RUN (or the connection's failure before one) is reported on
// run, and every STATS poll is answered from the daemon's registry —
// also while the daemon still waits for RUN.
func serveFrontEnd(fe *wire.Conn, name string, reg *telemetry.Registry, run chan<- error) {
	ran := false
	for {
		m, err := fe.Recv()
		if err != nil {
			if !ran {
				run <- err
			}
			return
		}
		switch m.Verb {
		case "RUN":
			if !ran {
				ran = true
				run <- nil
			}
		case "STATS":
			fe.Send(StatsReply(m, name, reg.Snapshot()))
		}
	}
}
