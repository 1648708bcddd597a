package main

import (
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
)

// allocOps is how many operations each hot-op scenario of the allocs
// experiment profiles, and allocLives how many whole connection or job
// lifetimes (a hundred times an op's work each), after allocWarm
// unprofiled ones (past the ring promotion at 100 replies and the seqs
// strconv formats for free).
const (
	allocOps   = 20000
	allocLives = 5000
	allocWarm  = 500
)

// allocLayers is the order layers print in.
var allocLayers = []string{"condor", "classad", "paradyn", "procsim", "tdp", "attrspace client", "attrspace server", "attrspace cache", "attrspace router", "attrspace", "wire", "attr", "telemetry", "net/syscall", "other"}

// runAllocs prints, for each hot operation, where its heap objects are
// allocated: objects and bytes per operation by allocation site, grouped
// by layer. Every daemon runs in this process (as in the repository's
// benchmark), so one operation's sites span the handle, the client, the
// wire and the servers it crosses. The profile is exact
// (MemProfileRate = 1) about every object that got its own block.
func runAllocs() {
	runtime.MemProfileRate = 1
	lass := allocDaemon(nil)
	defer lass.Close()
	local := allocHandle(tdp.Config{Context: "allocs-local", LASSAddr: lass.addr})
	defer local.Exit()

	const shards = 2
	addrs := make([]string, shards)
	casses := make([]allocServer, shards)
	for i := range addrs {
		i := i
		casses[i] = allocDaemon(func(s *attrspace.Server) {
			if err := s.SetShard(i, shards); err != nil {
				log.Fatalf("tdpbench: %v", err)
			}
		})
		defer casses[i].Close()
		addrs[i] = casses[i].addr
	}
	// shardEvents sums what the shards pushed to subscribers and what
	// they withheld from the cache that made the write.
	shardEvents := func() (pushed, suppressed int64) {
		for _, cass := range casses {
			reg := cass.Telemetry()
			pushed += reg.Counter("attrspace.events.pushed").Value()
			suppressed += reg.Counter("attrspace.events.suppressed").Value()
		}
		return
	}
	glass := allocDaemon(func(s *attrspace.Server) {
		s.EnableGlobalCache(strings.Join(addrs, ","), attrspace.CacheConfig{})
	})
	defer glass.Close()
	global := allocHandle(tdp.Config{Context: "allocs-global", LASSAddr: glass.addr, GlobalViaLASS: true})
	defer global.Exit()

	pool := newLaunchPool(nil)
	defer pool.Close()

	value := strings.Repeat("v", 32)
	batch := make([]tdp.KV, 8)
	for i := range batch {
		batch[i] = tdp.KV{Key: fmt.Sprintf("allocs.batch%d", i), Value: value}
	}
	fmt.Printf("E28–E32: heap objects per operation by allocation site (%d ops, or %d set-ups or jobs, each after %d warm-up; all daemons in this process)\n", allocOps, allocLives, allocWarm)
	fmt.Println("  The profile records every object given its own block; objects the tiny allocator packs")
	fmt.Println("  into an existing block are invisible to it, which is why MemStats.Mallocs reads higher.")
	for _, sc := range []struct {
		name   string
		ops    int
		op     func() error
		events bool // also print the shards' events per op
	}{
		{name: "local put (32 B)", ops: allocOps, op: func() error { return local.Put("allocs.attr", value) }},
		{name: "local tryget (hit)", ops: allocOps, op: func() error { _, err := local.TryGet("allocs.attr"); return err }},
		{name: "local tryget (miss)", ops: allocOps, op: func() error {
			if _, err := local.TryGet("allocs.absent"); !errors.Is(err, tdp.ErrNotFound) {
				return fmt.Errorf("tryget of an absent attribute: %v", err)
			}
			return nil
		}},
		{name: "local putbatch(8)", ops: allocOps, op: func() error { return local.PutBatch(batch) }},
		{name: "global write (handle → caching LASS → shard)", ops: allocOps, events: true,
			op: func() error { return global.PutGlobal("allocs.attr", value) }},
		{name: "global batch write (8 pairs)", ops: allocOps, events: true,
			op: func() error { return global.PutBatchGlobal(batch) }},
		{name: "global read (cache hit)", ops: allocOps, op: func() error { _, err := global.TryGetGlobal("allocs.attr"); return err }},
		{name: "set-up (tdp.Init + one put + Exit)", ops: allocLives, op: func() error {
			h, err := tdp.Init(tdp.Config{Context: "allocs-setup", LASSAddr: lass.addr, Identity: "tdpbench"})
			if err != nil {
				return err
			}
			err = h.Put("allocs.attr", value)
			h.Exit()
			// Every set-up creates the context: the next one starts only
			// when the LASS has taken this one's EXIT and destroyed it.
			for lass.Space().Refs("allocs-setup") > 0 {
				time.Sleep(10 * time.Microsecond)
			}
			return err
		}},
		{name: "launch (one job through condor.Pool under paradynd)", ops: allocLives, op: func() error { return launchOne(pool) }},
	} {
		pushed, suppressed := shardEvents()
		profileScenario(sc.name, sc.ops, sc.op)
		if sc.events {
			p, s := shardEvents()
			n := float64(allocWarm + sc.ops)
			fmt.Printf("  shard events per op: %.2f pushed, %.2f suppressed (attrspace.events.pushed / .suppressed; the cache's is the only subscription)\n",
				float64(p-pushed)/n, float64(s-suppressed)/n)
		}
	}
}

// allocServer is one in-process daemon of the experiment.
type allocServer struct {
	*attrspace.Server
	addr string
}

// allocDaemon starts a server the way lassd and cassd do: its own
// registry and tracer, a loopback TCP listener and the unix socket
// beside it. configure runs before the first listener opens.
func allocDaemon(configure func(*attrspace.Server)) allocServer {
	srv := attrspace.NewServer()
	srv.SetTelemetry(telemetry.NewRegistry(), telemetry.NewTracer("daemon"))
	if configure != nil {
		configure(srv)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err == nil {
		_, err = srv.ListenUnixBeside(addr)
	}
	if err != nil {
		log.Fatalf("tdpbench: %v", err)
	}
	return allocServer{srv, addr}
}

func allocHandle(cfg tdp.Config) *tdp.Handle {
	cfg.Identity, cfg.Telemetry = "tdpbench", telemetry.NewRegistry()
	h, err := tdp.Init(cfg)
	if err != nil {
		log.Fatalf("tdpbench: %v", err)
	}
	return h
}

// siteCount is what one allocation site (or one layer) allocated.
type siteCount struct{ objects, bytes int64 }

// heapSites returns the cumulative allocation counts of every stack the
// memory profile knows. Two collections first: the profile publishes an
// allocation only once a GC cycle has completed after it.
func heapSites() map[[32]uintptr]siteCount {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			out := make(map[[32]uintptr]siteCount, n)
			for _, r := range recs[:n] { // one record per stack and size
				c := out[r.Stack0]
				out[r.Stack0] = siteCount{c.objects + r.AllocObjects, c.bytes + r.AllocBytes}
			}
			return out
		}
	}
}

func profileScenario(name string, ops int, op func() error) {
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				log.Fatalf("tdpbench: %s: %v", name, err)
			}
		}
	}
	run(allocWarm)
	before := heapSites()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(ops)
	runtime.ReadMemStats(&m1)
	after := heapSites()

	type site struct {
		layer, label string
		siteCount
	}
	bySite := make(map[string]*site)
	for stack, a := range after {
		b := before[stack]
		if a.objects == b.objects {
			continue
		}
		layer, label := classifyStack(stack)
		s := bySite[layer+"\x00"+label]
		if s == nil {
			s = &site{layer: layer, label: label}
			bySite[layer+"\x00"+label] = s
		}
		s.objects += a.objects - b.objects
		s.bytes += a.bytes - b.bytes
	}
	layers := make(map[string][]*site)
	var total siteCount
	for _, s := range bySite {
		layers[s.layer] = append(layers[s.layer], s)
		total.objects += s.objects
		total.bytes += s.bytes
	}
	per := func(n int64) float64 { return float64(n) / float64(ops) }
	fmt.Printf("\n%s\n", name)
	fmt.Printf("  %-18s %-62s %10s %10s\n", "layer", "site", "objects/op", "bytes/op")
	for _, layer := range allocLayers {
		sites := layers[layer]
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].objects != sites[j].objects {
				return sites[i].objects > sites[j].objects
			}
			return sites[i].label < sites[j].label
		})
		var sum, rest siteCount
		for _, s := range sites {
			sum.objects, sum.bytes = sum.objects+s.objects, sum.bytes+s.bytes
			if per(s.objects) < 0.005 {
				rest.objects, rest.bytes = rest.objects+s.objects, rest.bytes+s.bytes
				continue
			}
			fmt.Printf("  %-18s %-62s %10.2f %10.1f\n", layer, s.label, per(s.objects), per(s.bytes))
		}
		if rest.objects > 0 {
			fmt.Printf("  %-18s %-62s %10.2f %10.1f\n", layer, "(sites below 0.005 objects/op)", per(rest.objects), per(rest.bytes))
		}
		if len(sites) > 0 {
			fmt.Printf("  %-18s %-62s %10.2f %10.1f\n", layer, "= layer total", per(sum.objects), per(sum.bytes))
		}
	}
	fmt.Printf("  profile sum %.2f objects/op, %.1f bytes/op; MemStats.Mallocs delta %.2f/op, TotalAlloc delta %.1f bytes/op\n",
		per(total.objects), per(total.bytes), per(int64(m1.Mallocs-m0.Mallocs)), per(int64(m1.TotalAlloc-m0.TotalAlloc)))
}

// classifyStack names an allocation by the innermost frame of this
// module on its stack — the line that asked for the object, whatever
// library routine made it — and assigns it that frame's layer. The
// helpers in attrspace's ops.go serve client and router alike, so for
// those the layer is their caller's. An object the socket layer of the
// standard library made for itself (a dial's or an accept's netFD, its
// addresses) is the net/syscall layer's, under the module line that
// asked for the connection.
func classifyStack(stack [32]uintptr) (layer, label string) {
	n := 0
	for n < len(stack) && stack[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stack[:n])
	leaf, sockets := "", false
	for {
		f, more := frames.Next()
		if leaf == "" {
			leaf = f.Function
		}
		if !sockets {
			pkg, _, _ := strings.Cut(f.Function, ".")
			sockets = pkg == "net" || pkg == "syscall" || pkg == "os" || pkg == "internal/poll"
		}
		if fn, ok := strings.CutPrefix(f.Function, "tdp/internal/"); ok || strings.HasPrefix(f.Function, "tdp.") {
			if !ok {
				fn = f.Function
			}
			if label == "" {
				label = fmt.Sprintf("%s %s:%d", fn, filepath.Base(f.File), f.Line)
				if leaf != f.Function {
					label += " (" + leaf + ")"
				}
			}
			if layer = layerOf(fn, filepath.Base(f.File)); layer != "" {
				if sockets {
					layer = "net/syscall"
				}
				return layer, label
			}
		}
		if !more {
			break
		}
	}
	if label == "" {
		label = leaf
	}
	return "other", label
}

// layerOf maps a module function (its name without "tdp/internal/") and
// its file to a layer; "" asks for the caller's.
func layerOf(fn, file string) string {
	pkg, _, _ := strings.Cut(fn, ".")
	switch pkg {
	case "tdp", "wire", "attr", "telemetry", "condor", "classad", "paradyn", "procsim":
		return pkg
	case "attrspace":
		switch file {
		case "ops.go":
			return ""
		case "server.go":
			return "attrspace server"
		case "cache.go":
			return "attrspace cache"
		case "router.go", "shardmap.go":
			return "attrspace router"
		case "client.go", "transport.go":
			return "attrspace client"
		}
		return "attrspace"
	}
	return "other"
}
