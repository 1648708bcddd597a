// Command condor_pool boots an in-process Condor pool (matchmaker,
// schedd, N execute machines each with its own LASS and simulated
// kernel), runs every submit file given on the command line, and
// reports results. It is the batch-driver counterpart to
// condor_submit -run.
//
// Usage:
//
//	condor_pool [-machines N] job1.submit [job2.submit ...]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tdp/internal/condor"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
	"tdp/internal/tools"
)

func main() {
	machines := flag.Int("machines", 4, "number of execute machines")
	showTrace := flag.Bool("trace", false, "record the protocol steps and print them after the last job")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: condor_pool [-machines N] [-trace] job.submit ...")
		os.Exit(2)
	}

	var tracer *telemetry.Tracer
	if *showTrace {
		tracer = telemetry.NewTracer("condor_pool")
	}
	pool := condor.NewPool(condor.PoolOptions{Tracer: tracer, NegotiationTimeout: 10 * time.Second})
	defer pool.Close()
	for i := 0; i < *machines; i++ {
		m, err := pool.AddMachine(condor.MachineConfig{
			Name: fmt.Sprintf("node%d", i+1), Arch: "INTEL", OpSys: "LINUX", Memory: 256,
		})
		if err != nil {
			log.Fatalf("condor_pool: %v", err)
		}
		log.Printf("condor_pool: machine %s up, LASS at %s", m.Name(), m.LASSAddr())
	}
	registerDemoPrograms(pool.Registry())

	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("condor_pool: %v", err)
		}
		jobs, err := pool.Submit(string(src))
		if err != nil {
			log.Fatalf("condor_pool: %s: %v", path, err)
		}
		for _, j := range jobs {
			st, err := j.WaitExit(2 * time.Minute)
			if err != nil {
				log.Printf("condor_pool: job %d: %v", j.ID, err)
				continue
			}
			fmt.Printf("job %d (%s) on %v: %s\n", j.ID, j.Submit.Executable, j.Machines(), st)
			if tout := j.ToolOutput(); tout != "" {
				fmt.Printf("--- tool output ---\n%s", tout)
			}
		}
	}
	fmt.Println("--- queue ---")
	fmt.Print(pool.QueueSummary())
	if *showTrace {
		fmt.Println("--- protocol trace ---")
		for _, sp := range tracer.Spans() {
			if sp.TraceID == "" { // a protocol step, not an attribute operation's span
				fmt.Println(" ", sp)
			}
		}
	}
}

func registerDemoPrograms(reg *condor.Registry) {
	reg.RegisterProgram("science", func(args []string) (procsim.Program, []string) {
		phases, prog := procsim.DefaultScienceApp(50)
		return prog, procsim.PhasedSymbols(phases)
	})
	reg.RegisterProgram("foo", func(args []string) (procsim.Program, []string) {
		phases, prog := procsim.DefaultScienceApp(20)
		return prog, procsim.PhasedSymbols(phases)
	})
	reg.RegisterProgram("sleep", func(args []string) (procsim.Program, []string) {
		return procsim.NewSleeperProgram(200 * time.Millisecond), procsim.StdSymbols
	})
	reg.RegisterTool("paradynd", paradyn.Tool())
	reg.RegisterTool("tracer", tools.Tracer())
	reg.RegisterTool("debugger", tools.Debugger())
}
