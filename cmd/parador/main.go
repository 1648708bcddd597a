// Command parador reproduces the paper's §4 experiment end to end:
// the Paradyn front-end starts first and listens for daemons; a Condor
// pool runs a job whose submit file carries the TDP directives of
// Figure 5B; the starter creates the application suspended at exec,
// launches paradynd, and publishes the pid through the machine's LASS;
// paradynd attaches, instruments, reports to the front-end, and
// continues the application; the front-end's Performance Consultant
// names the bottleneck.
//
// Usage:
//
//	parador [-iters N] [-mpi ranks] [-trace]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"tdp/internal/condor"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
)

func main() {
	iters := flag.Int("iters", 100, "application iterations")
	mpi := flag.Int("mpi", 0, "run as an MPI job with this many ranks (0 = vanilla)")
	showTrace := flag.Bool("trace", false, "record the TDP protocol steps and print them")
	showSearch := flag.Bool("pc", false, "print the Performance Consultant search tree")
	showViz := flag.Bool("viz", false, "print time histograms for the hottest function")
	flag.Parse()

	var tracer *telemetry.Tracer
	if *showTrace {
		tracer = telemetry.NewTracer("parador")
	}

	// 1. The Paradyn front-end starts first (as in the paper's tests)
	//    and its ports go into the submit file.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("parador: %v", err)
	}
	fe, err := paradyn.NewFrontEnd(paradyn.FrontEndConfig{Listener: l, AutoRun: true, Tracer: tracer})
	if err != nil {
		log.Fatalf("parador: %v", err)
	}
	defer fe.Close()
	host, port, _ := net.SplitHostPort(fe.Addr())
	log.Printf("parador: paradyn front-end listening on %s", fe.Addr())

	// 2. A Condor pool with TDP-capable starters.
	machines := 1
	ranks := 1
	if *mpi > 0 {
		machines, ranks = *mpi, *mpi
	}
	pool := condor.NewPool(condor.PoolOptions{Tracer: tracer, NegotiationTimeout: 10 * time.Second})
	defer pool.Close()
	for i := 0; i < machines; i++ {
		if _, err := pool.AddMachine(condor.MachineConfig{
			Name: fmt.Sprintf("node%d", i+1), Arch: "INTEL", OpSys: "LINUX", Memory: 256,
		}); err != nil {
			log.Fatalf("parador: %v", err)
		}
	}
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	n := *iters
	pool.Registry().RegisterProgram("science", func(args []string) (procsim.Program, []string) {
		phases, prog := procsim.DefaultScienceApp(n)
		return prog, procsim.PhasedSymbols(phases)
	})

	// 3. The Figure-5B-style submit file.
	submit := fmt.Sprintf(`universe = %s
executable = science
output = outfile
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-zunix -l3 -m%s -p%s -a%%pid"
+ToolDaemonOutput = "daemon.out"
queue
`, universe(*mpi), host, port)
	if *mpi > 0 {
		submit = fmt.Sprintf("machine_count = %d\n", *mpi) + submit
	}

	jobs, err := pool.Submit(submit)
	if err != nil {
		log.Fatalf("parador: %v", err)
	}
	st, err := jobs[0].WaitExit(5 * time.Minute)
	if err != nil {
		log.Fatalf("parador: %v", err)
	}
	if err := fe.WaitDone(ranks, time.Minute); err != nil {
		log.Fatalf("parador: %v", err)
	}

	// 4. Report.
	fmt.Printf("job finished: %s on %v\n\n", st, jobs[0].Machines())
	fmt.Println("merged profile (all daemons):")
	fmt.Print(fe.Report())
	if fn, share, ok := fe.Bottleneck(); ok {
		fmt.Printf("\nPerformance Consultant: bottleneck is %s (%.0f%% of non-main time)\n", fn, share*100)
	}
	if *showSearch {
		root, confirmed := fe.Consult(paradyn.DefaultSearchConfig())
		fmt.Println("\nPerformance Consultant search:")
		fmt.Print(paradyn.FormatSearch(root))
		for _, h := range confirmed {
			fmt.Printf("confirmed: %s (%.0f%%)\n", h.Name, h.Share*100)
		}
	}
	if *showViz {
		for _, d := range fe.Daemons() {
			fmt.Printf("\nhistograms for %s:\n", d)
			fmt.Print(fe.Visualization(d, 1, paradyn.HistogramOptions{Buckets: 16, Width: 32}))
		}
	}
	if data, ok := pool.SubmitFiles().Read("daemon.out"); ok {
		fmt.Printf("\ndaemon.out (transferred back, %d bytes)\n", len(data))
	}
	if *showTrace {
		fmt.Println("\n--- TDP protocol trace ---")
		for _, sp := range tracer.Spans() {
			if sp.TraceID == "" { // a protocol step, not an attribute operation's span
				fmt.Println(" ", sp)
			}
		}
	}
}

func universe(mpi int) string {
	if mpi > 0 {
		return "MPI"
	}
	return "Vanilla"
}
