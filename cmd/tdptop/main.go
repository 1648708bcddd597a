// Command tdptop renders a live, refreshing view of a tool pool's
// telemetry — the observability counterpart of top(1). It polls a
// daemon's STATS verb (by default with scope=tree, so a CASS or an
// mrnet node that rolls up its children reports the whole pool) and
// shows hosts, hosts down, tree depth, sample rates and every counter,
// gauge and latency histogram, with per-second rates computed between
// polls.
//
// Usage:
//
//	tdptop [-server host:port] [-interval 1s] [-scope tree] [-once]
//
// -once prints a single frame and exits (scripting/CI); otherwise the
// screen refreshes in place until interrupted.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"time"

	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

func main() {
	server := flag.String("server", "127.0.0.1:4500", "daemon to poll (CASS, LASS or mrnet node — anything answering STATS)")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	scope := flag.String("scope", "tree", `STATS scope; "tree" rolls up the daemon's children, "" is the daemon alone`)
	once := flag.Bool("once", false, "print one frame and exit")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	if err := top(os.Stdout, *server, *scope, *interval, *once, sig); err != nil {
		fmt.Fprintln(os.Stderr, "tdptop:", err)
		os.Exit(1)
	}
}

// pollTimeout bounds one STATS round trip.
const pollTimeout = 10 * time.Second

// top polls server every interval and renders a frame per poll to w,
// until stop delivers or, with once, after the first frame.
func top(w io.Writer, server, scope string, interval time.Duration, once bool, stop <-chan os.Signal) error {
	raw, err := net.DialTimeout("tcp", server, pollTimeout)
	if err != nil {
		return err
	}
	defer raw.Close()
	wc := wire.NewConn(raw)

	var prev telemetry.Snapshot
	last := time.Now()
	for id := 1; ; id++ {
		raw.SetDeadline(time.Now().Add(pollTimeout))
		daemon, cur, err := poll(wc, scope, id)
		if err != nil {
			return err
		}
		now := time.Now()
		var elapsed time.Duration
		if id > 1 {
			elapsed = now.Sub(last)
		}
		if !once {
			fmt.Fprint(w, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(w, daemon, prev, cur, elapsed)
		if once {
			return nil
		}
		prev, last = cur, now
		select {
		case <-stop:
			return nil
		case <-time.After(interval):
		}
	}
}

// poll is one `STATS scope=… id=…` → STATSV exchange on wc. STATS is a
// daemon-scope verb, legal on a fresh connection: no HELLO, so polling
// an attribute space server joins (and creates) no context, and an
// mrnet node — which takes STATS or REGISTER as a first message —
// answers it too.
func poll(wc *wire.Conn, scope string, id int) (daemon string, snap telemetry.Snapshot, err error) {
	req := wire.NewMessage("STATS").SetInt("id", id)
	if scope != "" {
		req.Set("scope", scope)
	}
	if err := wc.Send(req); err != nil {
		return "", snap, err
	}
	for {
		m, err := wc.Recv()
		if err != nil {
			return "", snap, err
		}
		if m.Get("id") != strconv.Itoa(id) {
			continue
		}
		switch m.Verb {
		case "STATSV":
			snap, err = telemetry.ParseSnapshot([]byte(m.Get("json")))
			return m.Get("daemon"), snap, err
		case "ERROR":
			return "", snap, fmt.Errorf("STATS: %s", m.Get("error"))
		}
	}
}
