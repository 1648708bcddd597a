// Command tdptop renders a live, refreshing view of a tool pool's
// telemetry — the observability counterpart of top(1). It polls a
// daemon's STATS verb (by default with scope=tree, so a CASS or mrnet
// root that aggregates children reports the whole pool) and shows
// hosts, sample rates, stream queue depths, coalesce/lost counts, and
// latency quantiles, with per-second rates computed between polls.
//
// Usage:
//
//	tdptop [-server host:port] [-interval 1s] [-scope tree] [-once]
//
// -once prints a single frame and exits (scripting/CI); otherwise the
// screen refreshes in place until interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
)

func main() {
	server := flag.String("server", "127.0.0.1:4500", "attribute space server to poll (CASS or any daemon answering STATS)")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	scope := flag.String("scope", "tree", `STATS scope; "tree" rolls up the daemon's children, "" is the daemon alone`)
	once := flag.Bool("once", false, "print one frame and exit")
	flag.Parse()

	c, err := attrspace.Dial(nil, *server, "default")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdptop:", err)
		os.Exit(1)
	}
	defer c.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)

	var prev telemetry.Snapshot
	last := time.Now()
	first := true
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		daemon, cur, err := c.ServerStats(ctx, *scope)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdptop:", err)
			os.Exit(1)
		}
		now := time.Now()
		var elapsed time.Duration
		if !first {
			elapsed = now.Sub(last)
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(os.Stdout, daemon, prev, cur, elapsed)
		if *once {
			return
		}
		prev, last, first = cur, now, false
		select {
		case <-sig:
			return
		case <-time.After(*interval):
		}
	}
}
