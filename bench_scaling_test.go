package tdp_test

// Scaling benchmarks: how the reproduction's mechanisms behave as the
// job, pool, or tool fan-out grows. These back the EXPERIMENTS.md
// scaling rows (E8 sweep, E-aux reduction network).

import (
	"fmt"
	"net"
	"testing"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/condor"
	"tdp/internal/mpisim"
	"tdp/internal/mrnet"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/rmkit"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// BenchmarkMPIUniverseRanks measures end-to-end MPI job time (allocate
// N machines, rank-0-first startup, token ring, teardown) as ranks
// grow.
func BenchmarkMPIUniverseRanks(b *testing.B) {
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			pool := condor.NewPool(condor.PoolOptions{NegotiationTimeout: 10 * time.Second})
			defer pool.Close()
			for i := 0; i < ranks; i++ {
				if _, err := pool.AddMachine(condor.MachineConfig{
					Name: fmt.Sprintf("m%d", i), Arch: "INTEL", OpSys: "LINUX", Memory: 128,
				}); err != nil {
					b.Fatal(err)
				}
			}
			pool.Registry().RegisterProgram("ring", func(args []string) (procsim.Program, []string) {
				return mpisim.NewRingProgram(), mpisim.RingSymbols
			})
			submit := fmt.Sprintf("universe = MPI\nexecutable = ring\nmachine_count = %d\nqueue\n", ranks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs, err := pool.Submit(submit)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := jobs[0].WaitExit(60 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLASSContexts measures attribute operations when the server
// hosts many simultaneous job contexts (an RM multiplexing many tools,
// §3.2).
func BenchmarkLASSContexts(b *testing.B) {
	for _, contexts := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("contexts=%d", contexts), func(b *testing.B) {
			srv := attrspace.NewServer()
			addr, err := srv.ListenAndServe("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			// Populate N live contexts.
			clients := make([]*attrspace.Client, contexts)
			for i := range clients {
				c, err := attrspace.Dial(nil, addr, fmt.Sprintf("job-%d", i))
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				c.Put("pid", "1")
				clients[i] = c
			}
			// Operate on the last one.
			c := clients[contexts-1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Put("attr", "value"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkToolFanout compares the front-end ingesting samples from N
// daemons directly vs. through a reduction node — the §2 auxiliary
// service argument. Measured: time for every daemon to deliver one
// round of `funcs` samples and the front-end (or tree) to absorb them.
func BenchmarkToolFanout(b *testing.B) {
	const funcs = 8
	run := func(b *testing.B, daemons int, reduced bool) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		fe, err := paradyn.NewFrontEnd(paradyn.FrontEndConfig{Listener: l, AutoRun: true})
		if err != nil {
			b.Fatal(err)
		}
		defer fe.Close()

		target := fe.Addr()
		if reduced {
			nl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			node, err := mrnet.NewNode(mrnet.Config{
				Name: "agg", Listener: nl, ParentAddr: fe.Addr(),
				ExpectedChildren: daemons, FlushInterval: time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			target = node.Addr()
		}

		// Register everyone first — a reduction node releases RUN only
		// once its expected fan-in has arrived.
		conns := make([]*wire.Conn, daemons)
		for i := range conns {
			raw, err := net.Dial("tcp", target)
			if err != nil {
				b.Fatal(err)
			}
			defer raw.Close()
			wc := wire.NewConn(raw)
			if err := wc.Send(wire.NewMessage("REGISTER").
				Set("daemon", fmt.Sprintf("d%d", i)).Set("host", "h").SetInt("pid", i)); err != nil {
				b.Fatal(err)
			}
			conns[i] = wc
		}
		for i, wc := range conns {
			if m, err := wc.Recv(); err != nil || m.Verb != "RUN" {
				b.Fatalf("RUN handshake for daemon %d: %v %v", i, m, err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d, wc := range conns {
				for f := 0; f < funcs; f++ {
					if err := wc.Send(wire.NewMessage("SAMPLE").
						Set("fn", fmt.Sprintf("f%d", f)).
						SetInt("calls", i*daemons+d).
						SetInt("time_us", i)); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(daemons*funcs), "samples/op")
	}
	for _, daemons := range []int{4, 16} {
		b.Run(fmt.Sprintf("direct/daemons=%d", daemons), func(b *testing.B) { run(b, daemons, false) })
		b.Run(fmt.Sprintf("reduced/daemons=%d", daemons), func(b *testing.B) { run(b, daemons, true) })
	}
}

// BenchmarkMRNetFanIn times one telemetry poll of 64 daemons from the
// front-end: directly (the front-end asks each daemon) or through a 2-
// or 3-level reduction tree (the front-end asks the root, each node its
// children, and the front-end reads one merged reply).
func BenchmarkMRNetFanIn(b *testing.B) {
	const daemons = 64
	run := func(b *testing.B, levels int) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		fe, err := paradyn.NewFrontEnd(paradyn.FrontEndConfig{Listener: l, AutoRun: true})
		if err != nil {
			b.Fatal(err)
		}
		defer fe.Close()

		addrs := make([]string, daemons)
		if levels == 0 {
			for i := range addrs {
				addrs[i] = fe.Addr()
			}
		} else {
			tree, err := mrnet.BuildReductionTree(mrnet.TreeConfig{
				ParentAddr:    fe.Addr(),
				Daemons:       daemons,
				FanOut:        8,
				Levels:        levels,
				FlushInterval: time.Hour,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer tree.Close()
			leaves := tree.LeafAddrs()
			for i := range addrs {
				addrs[i] = leaves[i%len(leaves)]
			}
		}

		// Each daemon answers polls from its own registry, as paradynd
		// does.
		for i := range addrs {
			raw, err := net.Dial("tcp", addrs[i])
			if err != nil {
				b.Fatal(err)
			}
			defer raw.Close()
			wc := wire.NewConn(raw)
			name := fmt.Sprintf("d%d", i)
			if err := wc.Send(wire.NewMessage("REGISTER").Set("daemon", name).Set("host", "h"+name)); err != nil {
				b.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			reg.Counter("app.ops").Add(int64(i + 1))
			go func() {
				for {
					m, err := wc.Recv()
					if err != nil {
						return
					}
					if m.Verb == "STATS" {
						wc.Send(paradyn.StatsReply(m, name, reg.Snapshot()))
					}
				}
			}()
		}
		want := int64(daemons * (daemons + 1) / 2)
		registrants := daemons
		if levels > 0 {
			registrants = 1
		}
		if err := fe.WaitDaemons(registrants, 10*time.Second); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := fe.PoolSnapshot().Counters["app.ops"]; got != want {
				b.Fatalf("app.ops = %d, want %d", got, want)
			}
		}
		b.ReportMetric(daemons, "daemons/poll")
	}
	b.Run(fmt.Sprintf("direct/daemons=%d", daemons), func(b *testing.B) { run(b, 0) })
	b.Run(fmt.Sprintf("tree2/daemons=%d", daemons), func(b *testing.B) { run(b, 2) })
	b.Run(fmt.Sprintf("tree3/daemons=%d", daemons), func(b *testing.B) { run(b, 3) })
}

// BenchmarkRMKitLaunch measures the bare TDP launch adapter without
// any pool machinery: the floor cost any RM pays.
func BenchmarkRMKitLaunch(b *testing.B) {
	rm, err := rmkit.NewForkRM(nil)
	if err != nil {
		b.Fatal(err)
	}
	defer rm.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := rm.Run(rmkit.JobSpec{
			Name: "exit", Program: procsim.NewExitingProgram(0), Symbols: procsim.StdSymbols,
		})
		if err != nil || st.Code != 0 {
			b.Fatalf("%v %v", st, err)
		}
	}
}
