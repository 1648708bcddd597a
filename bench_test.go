package tdp_test

// Benchmark harness for the EXPERIMENTS.md rows. The paper's
// evaluation is qualitative (it has no performance tables), so these
// benchmarks are the quantitative characterization of the mechanisms
// TDP introduces, plus the ablations DESIGN.md §6 calls out:
//
//	E11  attribute space operations        BenchmarkAttrSpace*
//	E12  create vs attach launch paths     BenchmarkCreateVsAttach*
//	E13  proxy overhead                    BenchmarkProxy*
//	E15  event delivery                    BenchmarkServiceEvents,
//	                                       BenchmarkCallbackDelivery
//	abl  blocking get vs polling           BenchmarkBlockingGetVsPoll
//	sub  wire codec                        BenchmarkWire*
//	sub  matchmaking                       BenchmarkClassAdMatch
//	E5+  end-to-end job throughput         BenchmarkCondorJob*
//	E7   full Parador launch overhead      BenchmarkParadorLaunch*

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/classad"
	"tdp/internal/condor"
	"tdp/internal/netsim"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/proxy"
	"tdp/internal/wire"
)

// --- E11: attribute space characterization ---------------------------------

func benchServer(b *testing.B) string {
	b.Helper()
	srv := attrspace.NewServer()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatalf("serve: %v", err)
	}
	b.Cleanup(srv.Close)
	return addr
}

func benchClientAt(b *testing.B, addr, ctx string) *attrspace.Client {
	b.Helper()
	c, err := attrspace.Dial(nil, addr, ctx)
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func benchClient(b *testing.B, ctx string) *attrspace.Client {
	return benchClientAt(b, benchServer(b), ctx)
}

func BenchmarkAttrSpacePut(b *testing.B) {
	c := benchClient(b, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put("attr", "value"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttrSpacePutBatch(b *testing.B) {
	// The MPUT path: 8 pairs per round trip — the startup-publication
	// shape (pid, executable name, args, frontend address, ...).
	for _, size := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("pairs=%d", size), func(b *testing.B) {
			c := benchClient(b, "bench")
			pairs := make([]attrspace.KV, size)
			for i := range pairs {
				pairs[i] = attrspace.KV{Key: fmt.Sprintf("k%d", i), Value: "value"}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.PutBatch(pairs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "puts/op")
		})
	}
}

func BenchmarkAttrSpaceTryGet(b *testing.B) {
	c := benchClient(b, "bench")
	c.Put("attr", "value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.TryGetAt(context.Background(), attrspace.Local, "attr"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttrSpaceGetPresent(b *testing.B) {
	c := benchClient(b, "bench")
	c.Put("attr", "value")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.GetAt(ctx, attrspace.Local, "attr"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttrSpaceAsyncPutPipelined(b *testing.B) {
	// Async puts keep many operations in flight on one connection —
	// the §3.3 motivation for tdp_async_put.
	c := benchClient(b, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	const window = 64
	pending := make([]<-chan attrspace.Result, 0, window)
	for i := 0; i < b.N; i++ {
		ch, err := c.PutAsync("attr", "value")
		if err != nil {
			b.Fatal(err)
		}
		pending = append(pending, ch)
		if len(pending) == window {
			for _, ch := range pending {
				<-ch
			}
			pending = pending[:0]
		}
	}
	for _, ch := range pending {
		<-ch
	}
}

func BenchmarkAttrSpaceClients(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			srv := attrspace.NewServer()
			addr, err := srv.ListenAndServe("127.0.0.1:0")
			if err != nil {
				b.Fatalf("serve: %v", err)
			}
			defer srv.Close()
			conns := make([]*attrspace.Client, clients)
			for i := range conns {
				c, err := attrspace.Dial(nil, addr, "bench")
				if err != nil {
					b.Fatalf("dial: %v", err)
				}
				defer c.Close()
				conns[i] = c
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := conns[int(next.Add(1))%clients]
				for pb.Next() {
					if err := c.Put("attr", "value"); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// --- ablation: blocking get vs client-side polling --------------------------

func BenchmarkBlockingGetVsPoll(b *testing.B) {
	// DESIGN.md §6 ablation. A consumer needs an attribute the
	// producer publishes after `wait`. The paper's blocking tdp_get
	// costs exactly one request regardless of the wait; client-side
	// polling costs round-trips proportional to the wait (reported as
	// reqs/op — the load each waiting daemon puts on the LASS).
	const wait = time.Millisecond
	b.Run("blocking-get", func(b *testing.B) {
		addr := benchServer(b)
		c := benchClientAt(b, addr, "bench-blk")
		producer := benchClientAt(b, addr, "bench-blk")
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			attr := fmt.Sprintf("k%d", i)
			done := make(chan struct{})
			go func() {
				time.Sleep(wait)
				producer.Put(attr, "v")
				close(done)
			}()
			if _, _, err := c.GetAt(ctx, attrspace.Local, attr); err != nil {
				b.Fatal(err)
			}
			<-done
		}
		b.ReportMetric(1, "reqs/op")
	})
	b.Run("polling", func(b *testing.B) {
		addr := benchServer(b)
		c := benchClientAt(b, addr, "bench-poll")
		producer := benchClientAt(b, addr, "bench-poll")
		b.ResetTimer()
		rounds := 0
		for i := 0; i < b.N; i++ {
			attr := fmt.Sprintf("k%d", i)
			done := make(chan struct{})
			go func() {
				time.Sleep(wait)
				producer.Put(attr, "v")
				close(done)
			}()
			for {
				rounds++
				if _, _, err := c.TryGetAt(context.Background(), attrspace.Local, attr); err == nil {
					break
				}
			}
			<-done
		}
		b.ReportMetric(float64(rounds)/float64(b.N), "reqs/op")
	})
}

// --- E12: create vs attach launch paths -------------------------------------

func benchTDPPair(b *testing.B) (*tdp.Handle, *tdp.Handle, *procsim.Kernel) {
	b.Helper()
	srv, addr, err := tdp.ServeLASS("127.0.0.1:0")
	if err != nil {
		b.Fatalf("ServeLASS: %v", err)
	}
	b.Cleanup(srv.Close)
	k := procsim.NewKernel()
	rm, err := tdp.Init(tdp.Config{Context: "bench", LASSAddr: addr, Kernel: k, Identity: "RM"})
	if err != nil {
		b.Fatalf("Init: %v", err)
	}
	b.Cleanup(func() { rm.Exit() })
	rt, err := tdp.Init(tdp.Config{Context: "bench", LASSAddr: addr, Kernel: k, Identity: "RT"})
	if err != nil {
		b.Fatalf("Init: %v", err)
	}
	b.Cleanup(func() { rt.Exit() })
	return rm, rt, k
}

func BenchmarkCreateVsAttach(b *testing.B) {
	// Time from "job arrives" to "instrumented application running"
	// for the two §2.2 paths.
	spec := func() tdp.ProcessSpec {
		phases := []procsim.PhaseSpec{{Name: "work", Units: 1}}
		return tdp.ProcessSpec{
			Executable: "app",
			Program:    procsim.NewPhasedProgram(1, phases),
			Symbols:    procsim.PhasedSymbols(phases),
		}
	}
	b.Run("create-paused", func(b *testing.B) {
		rm, rt, _ := benchTDPPair(b)
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			ap, err := rm.CreateProcess(spec(), tdp.StartPaused)
			if err != nil {
				b.Fatal(err)
			}
			attr := fmt.Sprintf("pid-%d", i)
			rm.Put(attr, tdp.FormatPID(ap.PID()))
			v, err := rt.Get(ctx, attr)
			if err != nil {
				b.Fatal(err)
			}
			var pid int
			fmt.Sscanf(v, "%d", &pid)
			tp, err := rt.Attach(procsim.PID(pid))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tp.InsertProbe("work", func(*procsim.ProcContext) {}, nil); err != nil {
				b.Fatal(err)
			}
			if err := tp.Continue(); err != nil {
				b.Fatal(err)
			}
			tp.Wait()
		}
	})
	b.Run("attach-running", func(b *testing.B) {
		rm, rt, _ := benchTDPPair(b)
		for i := 0; i < b.N; i++ {
			sp := spec()
			sp.Program = procsim.NewSpinnerProgram()
			sp.Symbols = procsim.StdSymbols
			ap, err := rm.CreateProcess(sp, tdp.StartRun)
			if err != nil {
				b.Fatal(err)
			}
			tp, err := rt.Attach(ap.PID())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tp.InsertProbe("work", func(*procsim.ProcContext) {}, nil); err != nil {
				b.Fatal(err)
			}
			if err := tp.Continue(); err != nil {
				b.Fatal(err)
			}
			tp.Kill("")
			tp.Wait()
		}
	})
}

// --- E13: proxy overhead -----------------------------------------------------

func benchEchoHost(b *testing.B, h *netsim.Host, port int) {
	b.Helper()
	l, err := h.Listen(port)
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	b.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				io.Copy(c, c)
				c.Close()
			}(c)
		}
	}()
}

func benchRoundTrips(b *testing.B, c net.Conn, payload []byte) {
	buf := make([]byte, len(payload))
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payload) * 2))
}

func BenchmarkProxy(b *testing.B) {
	payload := make([]byte, 1024)
	b.Run("direct", func(b *testing.B) {
		nw := netsim.New()
		a := nw.AddHost("a")
		s := nw.AddHost("s")
		benchEchoHost(b, s, 1)
		c, err := a.Dial("s:1")
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		benchRoundTrips(b, c, payload)
	})
	b.Run("forwarder", func(b *testing.B) {
		nw := netsim.New()
		a := nw.AddHost("a")
		gw := nw.AddHost("gw")
		s := nw.AddHost("s")
		benchEchoHost(b, s, 1)
		fw := proxy.NewForwarder(gw.Dial, "s:1")
		l, _ := gw.Listen(2)
		go fw.Serve(l)
		defer fw.Close()
		c, err := a.Dial("gw:2")
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		benchRoundTrips(b, c, payload)
	})
	b.Run("connect-proxy", func(b *testing.B) {
		nw := netsim.New()
		a := nw.AddHost("a")
		gw := nw.AddHost("gw")
		s := nw.AddHost("s")
		benchEchoHost(b, s, 1)
		srv := proxy.NewServer(gw.Dial, nil)
		l, _ := gw.Listen(2)
		go srv.Serve(l)
		defer srv.Close()
		c, err := proxy.DialVia(a.Dial, "gw:2", "s:1")
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		benchRoundTrips(b, c, payload)
	})
}

// --- E15 + ablation: event delivery ------------------------------------------

func BenchmarkServiceEvents(b *testing.B) {
	h := benchHandle(b)
	h.Put("k", "v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		h.AsyncGet("k", func(tdp.Result, any) { close(done) }, nil)
		<-h.Activity()
		h.ServiceEvents()
		<-done
	}
}

func benchHandle(b *testing.B) *tdp.Handle {
	b.Helper()
	srv, addr, err := tdp.ServeLASS("127.0.0.1:0")
	if err != nil {
		b.Fatalf("ServeLASS: %v", err)
	}
	b.Cleanup(srv.Close)
	h, err := tdp.Init(tdp.Config{Context: "bench", LASSAddr: addr, Identity: "bench"})
	if err != nil {
		b.Fatalf("Init: %v", err)
	}
	b.Cleanup(func() { h.Exit() })
	return h
}

func BenchmarkCallbackDelivery(b *testing.B) {
	// Ablation (DESIGN.md §6): ServiceEvents (the paper's poll-loop
	// model) vs direct goroutine delivery. The poll-loop adds a queue
	// hop but guarantees callbacks run at safe points.
	b.Run("service-events", func(b *testing.B) {
		h := benchHandle(b)
		h.Put("k", "v")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done := make(chan struct{})
			h.AsyncGet("k", func(tdp.Result, any) { close(done) }, nil)
			<-h.Activity()
			h.ServiceEvents()
			<-done
		}
	})
	b.Run("direct-goroutine", func(b *testing.B) {
		c := benchClient(b, "bench-direct")
		c.Put("k", "v")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch, err := c.GetAsync("k")
			if err != nil {
				b.Fatal(err)
			}
			<-ch
		}
	})
}

// --- wire codec ---------------------------------------------------------------

func BenchmarkWireEncode(b *testing.B) {
	m := wire.NewMessage("PUT").Set("id", "12345").Set("attr", "executable_name").Set("value", "foo")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.Encode()) == 0 {
			b.Fatal("empty encode")
		}
	}
}

func BenchmarkWireAppendEncode(b *testing.B) {
	// The hot-path encoder: appends into a reused buffer, no sort, no
	// per-message allocation in steady state.
	m := wire.NewMessage("PUT").Set("id", "12345").Set("attr", "executable_name").Set("value", "foo")
	buf := make([]byte, 0, m.EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.AppendEncode(buf[:0])
		if len(buf) == 0 {
			b.Fatal("empty encode")
		}
	}
}

func BenchmarkWireDecode(b *testing.B) {
	payload := wire.NewMessage("PUT").Set("id", "12345").Set("attr", "executable_name").Set("value", "foo").Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeInto(b *testing.B) {
	// The hot-path decoder: reuses one Message (and its field map)
	// across frames, interning the protocol vocabulary.
	payload := wire.NewMessage("PUT").Set("id", "12345").Set("attr", "executable_name").Set("value", "foo").Encode()
	m := new(wire.Message)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.DecodeInto(m, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireConnSend(b *testing.B) {
	// Full framing path: encode + 4-byte header + one Write, through the
	// per-connection scratch buffer.
	c := wire.NewConn(struct {
		io.Writer
		io.Reader
	}{Writer: io.Discard, Reader: nil})
	m := wire.NewMessage("PUT").Set("id", "12345").Set("attr", "executable_name").Set("value", "foo")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- matchmaking ---------------------------------------------------------------

func BenchmarkClassAdMatch(b *testing.B) {
	job := classad.NewAd()
	job.SetInt("ImageSize", 64)
	job.SetExpr("Requirements", `Arch == "INTEL" && OpSys == "LINUX" && Memory >= 64`)
	job.SetExpr("Rank", "Memory")
	offers := make([]*classad.Ad, 100)
	for i := range offers {
		m := classad.NewAd()
		m.SetString("Arch", "INTEL")
		m.SetString("OpSys", "LINUX")
		m.SetInt("Memory", int64(32+i*8))
		m.SetExpr("Requirements", "TARGET.ImageSize <= MY.Memory")
		offers[i] = m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if best := classad.MatchBest(job, offers); best < 0 {
			b.Fatal("no match")
		}
	}
}

// --- E5/E7: end-to-end job costs -----------------------------------------------

func BenchmarkCondorJobPlain(b *testing.B) {
	pool := condor.NewPool(condor.PoolOptions{NegotiationTimeout: 5 * time.Second})
	defer pool.Close()
	if _, err := pool.AddMachine(condor.MachineConfig{Name: "m", Arch: "INTEL", OpSys: "LINUX", Memory: 128}); err != nil {
		b.Fatal(err)
	}
	pool.Registry().RegisterProgram("app", func(args []string) (procsim.Program, []string) {
		return procsim.NewExitingProgram(0), procsim.StdSymbols
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := pool.Submit("executable = app\nqueue\n")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := jobs[0].WaitExit(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParadorLaunch(b *testing.B) {
	// The cost the paper's design adds: the same job with and without
	// the TDP tool-daemon handshake (create paused, publish pid, tool
	// attach/instrument/continue).
	run := func(b *testing.B, submit string, tool bool) {
		pool := condor.NewPool(condor.PoolOptions{NegotiationTimeout: 5 * time.Second})
		defer pool.Close()
		if _, err := pool.AddMachine(condor.MachineConfig{Name: "m", Arch: "INTEL", OpSys: "LINUX", Memory: 128}); err != nil {
			b.Fatal(err)
		}
		pool.Registry().RegisterProgram("app", func(args []string) (procsim.Program, []string) {
			phases := []procsim.PhaseSpec{{Name: "work", Units: 1}}
			return procsim.NewPhasedProgram(1, phases), procsim.PhasedSymbols(phases)
		})
		if tool {
			pool.Registry().RegisterTool("paradynd", paradyn.Tool())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jobs, err := pool.Submit(submit)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := jobs[0].WaitExit(30 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) {
		run(b, "executable = app\nqueue\n", false)
	})
	b.Run("with-paradynd", func(b *testing.B) {
		run(b, `executable = app
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-a%pid"
queue
`, true)
	})
}
