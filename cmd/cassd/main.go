// Command cassd runs the Central Attribute Space Server (CASS): the
// attribute server that lives on the host running the tool front-end
// (TDP §2.1, Figure 2). It is the same server as lassd — the paper's
// LASS/CASS distinction is placement, not implementation — but is
// provided as its own command so deployments read naturally.
//
// Like lassd it answers the STATS verb from its telemetry registry
// (`tdpattr stats`) and can self-publish tdp.monitor.cass.* attributes.
// -debug-addr additionally serves pprof profiles and the registry as
// /metrics (Prometheus exposition) and /stats.json over HTTP.
//
// Usage:
//
//	cassd [-addr host:port | -addr unix:/path] [-unix] [-shm=false]
//	      [-loglevel debug|info|error|silent]
//	      [-monitor 5s] [-monitor-context name] [-event-buffer n]
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
	addr := flag.String("addr", "127.0.0.1:4500", "listen address (host:port, or unix:/path for a unix-domain socket)")
	unixSock := flag.Bool("unix", false, "also listen on the conventional same-host unix socket beside -addr, so local clients skip the TCP stack")
	logLevel := flag.String("loglevel", "error", "log verbosity: debug|info|error|silent")
	monitor := flag.Duration("monitor", 0, "self-publish metrics as tdp.monitor.cass.* at this interval (0 disables)")
	monitorCtx := flag.String("monitor-context", "default", "context to publish monitor attributes into")
	eventBuf := flag.Int("event-buffer", attrspace.DefaultEventBuffer, "updates a subscriber may fall behind by before the oldest is dropped and declared; a CASS fanning out to many caching LASSes wants this large")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful shutdown bound: announce CLOSE to clients and finish in-flight replies for up to this long before closing (0 closes immediately)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, /metrics, and /stats.json over HTTP on this address (empty disables)")
	shard := flag.String("shard", "", "serve as shard i of an n-way partitioned CASS (\"i/n\", 0-based); contexts hashing to other shards are refused")
	shm := flag.Bool("shm", true, "let same-host clients be promoted to the shared-memory ring transport (unix-socket connections are promoted to an mmap ring pair once their traffic has paid for one); -shm=false keeps every client on the socket byte stream")
	flag.Parse()

	srv := attrspace.NewServer()
	srv.SetShm(*shm)
	srv.SetLogger(telemetry.NewLogger(os.Stderr, telemetry.ParseLevel(*logLevel), "cassd"))
	srv.SetTelemetry(telemetry.NewRegistry(), telemetry.NewTracer("cassd"))
	srv.SetEventBuffer(*eventBuf)
	if *shard != "" {
		idx, total, err := attrspace.ParseShardSpec(*shard)
		if err != nil {
			log.Fatalf("cassd: %v", err)
		}
		if err := srv.SetShard(idx, total); err != nil {
			log.Fatalf("cassd: %v", err)
		}
		log.Printf("cassd: serving shard %d/%d of the partitioned CASS", idx, total)
	}
	bound, err := srv.ListenAndServe(*addr)
	if err != nil {
		log.Fatalf("cassd: %v", err)
	}
	log.Printf("cassd: serving central attribute space on %s", bound)
	if *unixSock {
		side, err := srv.ListenUnixBeside(bound)
		if err != nil {
			log.Fatalf("cassd: %v", err)
		}
		if side != "" {
			log.Printf("cassd: same-host fast path on %s", side)
		}
	}
	if *debugAddr != "" {
		dbg, stopDbg, err := debughttp.Serve(*debugAddr, func() telemetry.Snapshot {
			return srv.Telemetry().Snapshot()
		})
		if err != nil {
			log.Fatalf("cassd: %v", err)
		}
		defer stopDbg()
		log.Printf("cassd: debug endpoint on http://%s", dbg)
	}
	if *monitor > 0 {
		stop := srv.StartMonitorPublisher(*monitorCtx, "cass", *monitor)
		defer stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	snap := srv.Telemetry().Snapshot()
	log.Printf("cassd: shutting down; final telemetry:\n%s", snap.Text())
	if *drainTimeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("cassd: drain cut short: %v", err)
		}
		cancel()
	} else {
		srv.Close()
	}
}
