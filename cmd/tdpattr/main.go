// Command tdpattr is a command-line client for a TDP attribute space
// server (a LASS or the CASS) — the condor_status of this ecosystem.
// It joins a context, performs one operation, and exits.
//
// Usage:
//
//	tdpattr -server host:port -context job-1 put pid 1234
//	tdpattr -server host:port -context job-1 get pid        # blocks
//	tdpattr -server host:port -context job-1 tryget pid
//	tdpattr -server host:port -context job-1 delete pid
//	tdpattr -server host:port -context job-1 list
//	tdpattr -server host:port -context job-1 watch          # stream events
//	tdpattr -server host:port -context job-1 hold           # pin the context
//	tdpattr -server host:port stats                         # dump server telemetry
//	tdpattr -server host:port -scope tree stats             # rolled-up subtree telemetry
//
// Contexts are reference counted (§3.2): a context is destroyed when
// its last participant exits, and each tdpattr invocation is a full
// join/exit cycle. Inspecting a live job works because its daemons
// hold the context; for standalone experiments, run `tdpattr hold` in
// the background first to pin the context, or the attributes you put
// will vanish when the command exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"tdp/internal/attrspace"
)

func main() {
	server := flag.String("server", "127.0.0.1:4510", "attribute space server address")
	ctxName := flag.String("context", "default", "attribute space context")
	timeout := flag.Duration("timeout", 30*time.Second, "blocking operation timeout")
	scope := flag.String("scope", "", `stats scope: "tree" merges the daemon's children (mrnet subtree rollup)`)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	c, err := attrspace.Dial(nil, *server, *ctxName)
	if err != nil {
		fail(err)
	}
	defer c.Close()

	switch args[0] {
	case "put":
		if len(args) != 3 {
			usage()
		}
		if _, err := c.PutAt(context.Background(), attrspace.Local, args[1], args[2]); err != nil {
			fail(err)
		}
	case "get":
		if len(args) != 2 {
			usage()
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		v, _, err := c.GetAt(ctx, attrspace.Local, args[1])
		if err != nil {
			fail(err)
		}
		fmt.Println(v)
	case "tryget":
		if len(args) != 2 {
			usage()
		}
		v, _, err := c.TryGetAt(context.Background(), attrspace.Local, args[1])
		if err != nil {
			fail(err)
		}
		fmt.Println(v)
	case "delete":
		if len(args) != 2 {
			usage()
		}
		if _, err := c.DeleteAt(context.Background(), attrspace.Local, args[1]); err != nil {
			fail(err)
		}
	case "list":
		snap, err := c.SnapshotAt(context.Background(), attrspace.Local)
		if err != nil {
			fail(err)
		}
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%s = %q\n", k, snap[k])
		}
	case "hold":
		// Keep the context reference alive until the timeout (or
		// forever with -timeout 0 ... practically, a very long time).
		d := *timeout
		if d <= 0 {
			d = 24 * time.Hour
		}
		fmt.Printf("holding context %q for %v\n", *ctxName, d)
		time.Sleep(d)
	case "stats":
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		daemon, snap, err := c.ServerStats(ctx, *scope)
		if err != nil {
			fail(err)
		}
		fmt.Printf("# daemon %s\n", daemon)
		fmt.Print(snap.Text())
	case "watch":
		if err := c.Subscribe(); err != nil {
			fail(err)
		}
		deadline := time.After(*timeout)
		for {
			select {
			case ev, ok := <-c.Events():
				if !ok {
					return
				}
				if ev.Lost > 0 {
					fmt.Printf("lost %d updates (this watcher fell behind)\n", ev.Lost)
				}
				if ev.Op != "lost" {
					fmt.Printf("%s %s = %q (seq %d)\n", ev.Op, ev.Attr, ev.Value, ev.Seq)
				}
			case <-deadline:
				return
			}
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tdpattr [-server addr] [-context name] put|get|tryget|delete|list|watch|stats [attr [value]]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tdpattr:", err)
	os.Exit(1)
}
