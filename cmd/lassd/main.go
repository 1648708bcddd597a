// Command lassd runs a Local Attribute Space Server (LASS): the
// per-execution-host attribute server of TDP §2.1. Resource manager
// and tool daemons on the host connect to it with tdp.Init.
//
// The server answers the STATS verb from its telemetry registry
// (inspect it live with `tdpattr stats`), and -monitor makes it
// self-publish metrics as tdp.monitor.lass.* attributes.
//
// With -cass the LASS also serves the G* global-forwarding verbs: it
// relays global operations to the CASS at that address through a
// read-through cache invalidated by its own CASS subscription, so
// steady-state global gets by local daemons cost one local hop. A
// comma-separated -cass list makes the LASS a shard router instead:
// each context's ops go to the shard its name hashes to, multi-context
// ops scatter-gather across the pool, and a dead shard fails only its
// own key range.
// -cache-max bounds cached entries per context; -event-buffer sizes
// each subscriber's event channel: how many updates it may fall behind
// by before the oldest is dropped and declared to it (EVENT lost=<d>).
//
// -debug-addr additionally serves pprof profiles and the registry as
// /metrics (Prometheus exposition) and /stats.json over HTTP.
//
// Usage:
//
//	lassd [-addr host:port | -addr unix:/path] [-unix] [-shm=false]
//	      [-loglevel debug|info|error|silent]
//	      [-monitor 5s] [-monitor-context name]
//	      [-cass host:port[,host:port...]] [-cache-max n] [-event-buffer n]
//	      [-debug-addr host:port]
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/debughttp"
	"tdp/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4510", "listen address (host:port, or unix:/path for a unix-domain socket)")
	unixSock := flag.Bool("unix", false, "also listen on the conventional same-host unix socket beside -addr, so local clients skip the TCP stack")
	logLevel := flag.String("loglevel", "error", "log verbosity: debug|info|error|silent")
	monitor := flag.Duration("monitor", 0, "self-publish metrics as tdp.monitor.lass.* at this interval (0 disables)")
	monitorCtx := flag.String("monitor-context", "default", "context to publish monitor attributes into")
	cassAddr := flag.String("cass", "", "upstream CASS address(es); enables the G* global verbs with a subscription-invalidated read cache. A comma-separated list (\"host1:4500,host2:4500\") routes contexts across a sharded CASS pool by name hash — order must match every cassd's -shard i/n numbering")
	cacheMax := flag.Int("cache-max", 0, "max cached global entries per context (0 = default 4096)")
	eventBuf := flag.Int("event-buffer", attrspace.DefaultEventBuffer, "updates a subscriber may fall behind by before the oldest is dropped and declared")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful shutdown bound: announce CLOSE to clients and finish in-flight replies for up to this long before closing (0 closes immediately)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, /metrics, and /stats.json over HTTP on this address (empty disables)")
	shm := flag.Bool("shm", true, "let same-host clients be promoted to the shared-memory ring transport (unix-socket connections are promoted to an mmap ring pair once their traffic has paid for one); -shm=false keeps every client on the socket byte stream")
	flag.Parse()

	srv := attrspace.NewServer()
	srv.SetShm(*shm)
	srv.SetLogger(telemetry.NewLogger(os.Stderr, telemetry.ParseLevel(*logLevel), "lassd"))
	srv.SetTelemetry(telemetry.NewRegistry(), telemetry.NewTracer("lassd"))
	srv.SetEventBuffer(*eventBuf)
	if *cassAddr != "" {
		gc := srv.EnableGlobalCache(*cassAddr, attrspace.CacheConfig{MaxEntries: *cacheMax})
		if n := gc.ShardMap().Len(); n > 1 {
			log.Printf("lassd: global forwarding across %d CASS shards enabled", n)
		} else {
			log.Printf("lassd: global forwarding to CASS %s enabled", *cassAddr)
		}
	}
	bound, err := srv.ListenAndServe(*addr)
	if err != nil {
		log.Fatalf("lassd: %v", err)
	}
	log.Printf("lassd: serving attribute space on %s", bound)
	if *unixSock {
		side, err := srv.ListenUnixBeside(bound)
		if err != nil {
			log.Fatalf("lassd: %v", err)
		}
		if side != "" {
			log.Printf("lassd: same-host fast path on %s", side)
		}
	}
	if *debugAddr != "" {
		dbg, stopDbg, err := debughttp.Serve(*debugAddr, func() telemetry.Snapshot {
			return srv.Telemetry().Snapshot()
		})
		if err != nil {
			log.Fatalf("lassd: %v", err)
		}
		defer stopDbg()
		log.Printf("lassd: debug endpoint on http://%s", dbg)
	}
	if *monitor > 0 {
		stop := srv.StartMonitorPublisher(*monitorCtx, "lass", *monitor)
		defer stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	snap := srv.Telemetry().Snapshot()
	log.Printf("lassd: shutting down; final telemetry:\n%s", snap.Text())
	if *drainTimeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("lassd: drain cut short: %v", err)
		}
		cancel()
	} else {
		srv.Close()
	}
}
