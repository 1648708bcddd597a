// Command tdpbench drives the non-benchmark experiments of
// EXPERIMENTS.md from the command line:
//
//	tdpbench -experiment matrix    the m+n interoperability matrix (E9)
//	tdpbench -experiment fig1      the Figure-1 firewall/proxy topology (E1)
//	tdpbench -experiment footprint the adapter-size report (E10)
//	tdpbench -experiment timeline  per-step waterfall of the Figure-6 launch (E24)
//	tdpbench -experiment allocs    heap objects per operation by allocation site and layer (E28)
//
// The timing experiments (E11–E15) are `go test -bench=.` benchmarks;
// see bench_test.go.
//
// With -metrics, the run also writes BENCH_<experiment>.json: a
// machine-readable record of the run (wall time plus a snapshot of the
// process-wide telemetry registry — wire traffic, attribute ops,
// proxy relay counts, Paradyn sample volume) for scripted comparison
// across runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"tdp/internal/condor"
	"tdp/internal/interop"
	"tdp/internal/netsim"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/proxy"
	"tdp/internal/telemetry"
)

func main() {
	exp := flag.String("experiment", "matrix", "experiment to run: matrix | fig1 | footprint | timeline | allocs")
	jobs := flag.Int("jobs", 200, "timeline: number of tool launches to time")
	metrics := flag.Bool("metrics", false, "write BENCH_<experiment>.json with a telemetry snapshot")
	flag.Parse()
	start := time.Now()
	switch *exp {
	case "matrix":
		runMatrix()
	case "fig1":
		runFig1()
	case "footprint":
		runFootprint()
	case "timeline":
		runTimeline(*jobs)
	case "allocs":
		runAllocs()
	default:
		fmt.Fprintf(os.Stderr, "tdpbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *metrics {
		writeMetrics(*exp, start)
	}
}

// benchRecord is the BENCH_*.json document shape. Telemetry is the
// process-wide registry, which every simulated daemon in this process
// counted into during the experiment.
type benchRecord struct {
	Experiment string             `json:"experiment"`
	StartedAt  time.Time          `json:"started_at"`
	DurationMS int64              `json:"duration_ms"`
	Telemetry  telemetry.Snapshot `json:"telemetry"`
}

func writeMetrics(experiment string, start time.Time) {
	rec := benchRecord{
		Experiment: experiment,
		StartedAt:  start.UTC(),
		DurationMS: time.Since(start).Milliseconds(),
		Telemetry:  telemetry.Default().Snapshot(),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatalf("tdpbench: encode metrics: %v", err)
	}
	name := "BENCH_" + experiment + ".json"
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		log.Fatalf("tdpbench: write %s: %v", name, err)
	}
	fmt.Printf("metrics written to %s\n", name)
}

// runMatrix executes all RM × tool pairings (experiment E9).
func runMatrix() {
	fmt.Println("E9: m + n interoperability matrix (3 RMs x 3 tools)")
	start := time.Now()
	results := interop.RunMatrix()
	fmt.Print(interop.FormatMatrix(results))
	for _, r := range results {
		fmt.Println(" ", r)
		if r.Detail != "" {
			fmt.Println("      evidence:", r.Detail)
		}
	}
	fmt.Printf("completed in %v\n", time.Since(start).Round(time.Millisecond))
	for _, r := range results {
		if !r.OK {
			os.Exit(1)
		}
	}
}

// runFig1 builds the Figure-1 topology and runs Parador across the
// firewall (experiment E1).
func runFig1() {
	fmt.Println("E1: Figure-1 topology — tool traffic crosses the firewall only via the RM proxy")
	nw := netsim.New()
	desktop := nw.AddHost("desktop")
	gateway := nw.AddHost("gateway")
	node := nw.AddHost("node1")
	nw.AddRule(netsim.BlockInbound("node1", "gateway"))
	nw.AddRule(netsim.BlockOutbound("node1", "gateway"))
	nw.AddRule(netsim.BlockInbound("desktop", "gateway"))

	feListener, err := desktop.Listen(2090)
	if err != nil {
		log.Fatalf("tdpbench: %v", err)
	}
	fe, err := paradyn.NewFrontEnd(paradyn.FrontEndConfig{Listener: feListener, AutoRun: true})
	if err != nil {
		log.Fatalf("tdpbench: %v", err)
	}
	defer fe.Close()

	if _, err := node.Dial("desktop:2090"); err != nil {
		fmt.Printf("  direct dial node1 -> desktop: %v (expected)\n", err)
	}

	fw := proxy.NewForwarder(gateway.Dial, "desktop:2090")
	fw.Instrument(telemetry.Default())
	fwListener, _ := gateway.Listen(7000)
	go fw.Serve(fwListener)
	defer fw.Close()

	pool := condor.NewPool(condor.PoolOptions{NegotiationTimeout: 10 * time.Second})
	defer pool.Close()
	if _, err := pool.AddMachine(condor.MachineConfig{
		Name: "node1", Arch: "INTEL", OpSys: "LINUX", Memory: 256, NetHost: node,
	}); err != nil {
		log.Fatalf("tdpbench: %v", err)
	}
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	pool.Registry().RegisterProgram("science", func(args []string) (procsim.Program, []string) {
		phases, prog := procsim.DefaultScienceApp(50)
		return prog, procsim.PhasedSymbols(phases)
	})
	jobs, err := pool.Submit(`executable = science
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-a%pid"
+FrontendAddr = "gateway:7000"
queue
`)
	if err != nil {
		log.Fatalf("tdpbench: %v", err)
	}
	st, err := jobs[0].WaitExit(2 * time.Minute)
	if err != nil {
		log.Fatalf("tdpbench: %v", err)
	}
	if err := fe.WaitDone(1, time.Minute); err != nil {
		log.Fatalf("tdpbench: %v", err)
	}
	tunnels, bytes := fw.Stats()
	dials, blocked := nw.Stats()
	telemetry.Default().Gauge("netsim.dials").Set(int64(dials))
	telemetry.Default().Gauge("netsim.blocked").Set(int64(blocked))
	fmt.Printf("  job: %s\n", st)
	if fn, share, ok := fe.Bottleneck(); ok {
		fmt.Printf("  bottleneck found across the firewall: %s (%.0f%%)\n", fn, share*100)
	}
	fmt.Printf("  proxy: %d tunnel(s), %d bytes relayed\n", tunnels, bytes)
	fmt.Printf("  network: %d dials allowed, %d blocked by firewall\n", dials, blocked)
}

// newLaunchPool starts the one-machine pool of the launch experiments
// (timeline, allocs): as lassd does, its LASS also listens on the unix
// socket, so starter and tool take the same-host path to it; "app" is a
// two-phase program and paradynd the registered tool.
func newLaunchPool(tracer *telemetry.Tracer) *condor.Pool {
	pool := condor.NewPool(condor.PoolOptions{Tracer: tracer})
	m, err := pool.AddMachine(condor.MachineConfig{Name: "node1", Arch: "INTEL", OpSys: "LINUX", Memory: 128})
	if err == nil {
		_, err = m.LASS().ListenUnixBeside(m.LASSAddr())
	}
	if err != nil {
		log.Fatalf("tdpbench: %v", err)
	}
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	phases := []procsim.PhaseSpec{{Name: "phase0", Units: 2}, {Name: "phase1", Units: 2}}
	pool.Registry().RegisterProgram("app", func([]string) (procsim.Program, []string) {
		return procsim.NewPhasedProgram(1, phases), procsim.PhasedSymbols(phases)
	})
	return pool
}

// launchOne runs one job under paradynd through pool — the paper's
// Figure 3/6 flow — and waits for its clean exit.
func launchOne(pool *condor.Pool) error {
	jobs, err := pool.Submit("executable = app\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"paradynd\"\n+ToolDaemonArgs = \"-a%pid\"\nqueue\n")
	if err != nil {
		return err
	}
	st, err := jobs[0].WaitExit(time.Minute)
	if err == nil && (st.Signaled() || st.Code != 0) {
		err = fmt.Errorf("job ended %s", st)
	}
	return err
}

// runTimeline launches n jobs under paradynd on a one-machine pool,
// one at a time, and prints where a launch's time goes: for every step
// the pool, the starter, the tool and their TDP handles record, the
// median and p90 gap since the step before it in the same job, in the
// order the steps happen (experiment E24). A launch regression shows as
// the one row whose gap grew.
func runTimeline(n int) {
	tracer := telemetry.NewTracer("tdpbench")
	pool := newLaunchPool(tracer)
	defer pool.Close()
	type step struct{ at, gap []float64 } // µs since the job's first step; since its previous step
	steps := make(map[string]*step)
	for i := 0; i < n; i++ {
		from := time.Now()
		if err := launchOne(pool); err != nil {
			log.Fatalf("tdpbench: job %d: %v", i, err)
		}
		// One job in flight: every step taken since from is this job's,
		// and one job's spans are a small part of the tracer's ring.
		var entries []telemetry.SpanRecord
		for _, sp := range tracer.Spans() {
			if sp.TraceID == "" && !sp.Start.Before(from) {
				entries = append(entries, sp)
			}
		}
		seen := make(map[string]int)
		for k, e := range entries {
			key := e.Actor + ":" + e.Name
			if seen[key]++; seen[key] > 1 {
				key = fmt.Sprintf("%s#%d", key, seen[key])
			}
			s := steps[key]
			if s == nil {
				s = &step{}
				steps[key] = s
			}
			s.at = append(s.at, float64(e.Start.Sub(entries[0].Start).Microseconds()))
			if k > 0 {
				s.gap = append(s.gap, float64(e.Start.Sub(entries[k-1].Start).Microseconds()))
			}
		}
	}
	keys := make([]string, 0, len(steps))
	for k := range steps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return quantile(steps[keys[i]].at, 0.5) < quantile(steps[keys[j]].at, 0.5) })
	fmt.Printf("E24: Figure-6 launch timeline, %d jobs, one in flight (µs; at = since the job's first step, gap = since its previous step)\n", n)
	fmt.Printf("  %-36s %8s %8s %8s %8s %6s\n", "step", "at p50", "at p90", "gap p50", "gap p90", "jobs")
	for _, k := range keys {
		s := steps[k]
		fmt.Printf("  %-36s %8.0f %8.0f %8.0f %8.0f %6d\n", k,
			quantile(s.at, 0.5), quantile(s.at, 0.9), quantile(s.gap, 0.5), quantile(s.gap, 0.9), len(s.at))
	}
}

// quantile returns the q-quantile of xs (nearest rank), sorting xs in
// place; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[int(q*float64(len(xs)-1)+0.5)]
}

// runFootprint reports the §4.3 "< 500 lines" adapter claim for this
// codebase: the RM-side and tool-side TDP integration sizes.
func runFootprint() {
	fmt.Println("E10: TDP adapter footprint (paper: 'the total code involved was less than 500 lines')")
	files := map[string]string{
		"condor starter TDP path (runWithTool + helpers)": "internal/condor/starter.go",
		"rmkit RM adapter (Launch)":                       "internal/rmkit/launch.go",
		"paradynd TDP integration":                        "internal/paradyn/daemon.go",
	}
	for name, path := range files {
		n, err := countLines(path)
		if err != nil {
			fmt.Printf("  %-48s (run from the repository root: %v)\n", name, err)
			continue
		}
		fmt.Printf("  %-48s %4d lines\n", name, n)
	}
	fmt.Println("  see EXPERIMENTS.md E10 for the measured breakdown")
}

func countLines(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	return n, nil
}
