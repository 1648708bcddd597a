package attrspace

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"tdp/internal/testkit"
	"tdp/internal/wire"
)

// The allocation budget of the hot operations, counted the way the
// repository's benchmark counts: process-wide mallocs, so the client and
// the in-process server together. What is left per round trip is one
// object: for a write the server's copy of the request payload (an ack
// is read in place and its seq is written into the frame as digits), for
// a read the client's copy of the value it returns (the server reads the
// request in place, the client the VALUE). The budgets leave one object
// of slack over that. Client bookkeeping (reply slot, reply message,
// frame header, doorbell byte, batch keys) must add nothing.
const (
	putAllocBudget      = 2
	tryGetAllocBudget   = 2
	putBatchAllocBudget = 6 // a batch of 8: the request's presized field map and the server's pairs are the rest
)

// allocPair is a connected client and server, on the unix socket or on
// the ring a same-host connection earns.
func allocPair(t *testing.T, ring bool) *Client {
	t.Helper()
	srv := NewServer()
	srv.SetShm(ring)
	c := dialT(t, serveUnix(t, srv, nil), "alloc")
	if ring {
		earnRing(t, c)
	}
	return c
}

func TestHotOpAllocBudget(t *testing.T) {
	transports := []string{"unix"}
	if wire.ShmSupported() {
		transports = append(transports, "shm")
	}
	for _, name := range transports {
		name := name
		t.Run(name, func(t *testing.T) {
			c := allocPair(t, name == "shm")
			bg := context.Background()
			batch := make([]KV, 8)
			for i := range batch {
				batch[i] = KV{Key: fmt.Sprintf("batch%d", i), Value: "0123456789abcdef0123456789abcdef"}
			}
			ops := []struct {
				name   string
				budget float64
				run    func() error
			}{
				{"PutAt", putAllocBudget, func() error { return dropSeq(c.PutAt(bg, Local, "pid", "4242")) }},
				{"TryGetAt", tryGetAllocBudget, func() error { _, _, err := c.TryGetAt(bg, Local, "pid"); return err }},
				{"PutBatchAt8", putBatchAllocBudget, func() error { return dropSeq(c.PutBatchAt(bg, Local, batch)) }},
			}
			for _, op := range ops {
				// Warm: slots, scratch buffers, the attribute, and the seqs
				// below 100 that strconv formats without allocating.
				var err error
				for i := 0; i < 128 && err == nil; i++ {
					err = op.run()
				}
				if err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				got := testing.AllocsPerRun(200, func() {
					if e := op.run(); e != nil {
						err = e
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				t.Logf("%s: %.1f allocs/op (budget %.0f)", op.name, got, op.budget)
				if got > op.budget {
					t.Errorf("%s allocates %.1f objects per call, budget %.0f", op.name, got, op.budget)
				}
			}
		})
	}
}

// The budgets of a global write through the caching LASS: the handle's
// request and reply over the unix socket, the cache, the router, the
// pooled TCP connection and the shard, process-wide. One object over
// what the path measures. A PutGlobal measures the protocol's own: the
// two request payloads the servers copy (GPUT, CPUT); both acks are read
// in place and carry their seqs as digits written into the frame. The
// router's request travels in its op and the shard joins the context
// through its connection's one reference, so neither adds anything; an
// echoed EVENT (copied and decoded) or a goroutine per cycle shows here.
// An 8-pair PutBatchGlobal adds the client's presized GMPUT field map
// and the pairs each of the two servers decodes the batch into. A
// TryGetGlobal that hits the cache goes no further than the LASS, which
// reads the GTRYGET in place: the client's copy of the value is all.
const (
	globalPutAllocBudget      = 3
	globalPutBatchAllocBudget = 8
	globalTryGetAllocBudget   = 2
)

func TestGlobalPutAllocBudget(t *testing.T) {
	c := globalAllocPair(t)
	bg := context.Background()
	globalAllocBudget(t, "PutAt(Global)", globalPutAllocBudget, func() error { return dropSeq(c.PutAt(bg, Global, "pid", "4242")) })
}

func TestGlobalTryGetAllocBudget(t *testing.T) {
	c := globalAllocPair(t)
	bg := context.Background()
	if _, err := c.PutAt(bg, Global, "pid", "4242"); err != nil { // the write caches it: every read below hits
		t.Fatal(err)
	}
	globalAllocBudget(t, "TryGetAt(Global), a cache hit", globalTryGetAllocBudget, func() error {
		_, _, err := c.TryGetAt(bg, Global, "pid")
		return err
	})
}

func TestGlobalPutBatchAllocBudget(t *testing.T) {
	c := globalAllocPair(t)
	bg := context.Background()
	batch := make([]KV, 8)
	for i := range batch {
		batch[i] = KV{Key: fmt.Sprintf("batch%d", i), Value: "0123456789abcdef0123456789abcdef"}
	}
	globalAllocBudget(t, "PutBatchAt(Global, 8)", globalPutBatchAllocBudget, func() error { return dropSeq(c.PutBatchAt(bg, Global, batch)) })
}

// globalAllocPair is a handle on a caching LASS over one shard, on the
// unix socket.
func globalAllocPair(t *testing.T) *Client {
	_, lass, _, _ := startCachingLASS(t)
	lass.SetShm(false)
	return dialT(t, serveUnix(t, lass, nil), "alloc")
}

func globalAllocBudget(t *testing.T, name string, budget int, op func() error) {
	t.Helper()
	var err error
	run := func() {
		if e := op(); e != nil {
			err = e
		}
	}
	for i := 0; i < 128; i++ { // slots, scratch, the mirror's entries, seqs below 100
		run()
	}
	got := testing.AllocsPerRun(500, run)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Logf("%s: %.2f allocs/op (budget %d)", name, got, budget)
	if got > float64(budget) {
		t.Errorf("a %s through the caching LASS allocates %.2f objects, budget %d", name, got, budget)
	}
}

// TestEventAllocBudget: an EVENT delivered to a subscriber's handler is
// decoded in place like a reply, so a put that is also pushed to one
// subscriber costs at most two puts' worth.
func TestEventAllocBudget(t *testing.T) {
	srv := NewServer()
	srv.SetShm(false)
	addr := serveUnix(t, srv, nil)
	writer, watcher := dialT(t, addr, "alloc"), dialT(t, addr, "alloc")
	seen := make(chan string, 1)
	if _, err := watcher.subscribe(func(ev Event) { seen <- ev.Value }); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	var err error
	putAndSee := func() {
		if e := writer.Put("status", "running"); e != nil {
			err = e
			return
		}
		if v := <-seen; v != "running" {
			err = fmt.Errorf("event carried %q", v)
		}
	}
	for i := 0; i < 128; i++ {
		putAndSee()
	}
	withEvent := testing.AllocsPerRun(200, putAndSee)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("put + one delivered event: %.1f allocs", withEvent)
	if withEvent > 2*putAllocBudget {
		t.Errorf("a put pushed to one subscriber allocates %.1f objects, want at most %d (two puts)", withEvent, 2*putAllocBudget)
	}
}

// The budget of a connection's whole life — dial, HELLO, one Put, Close
// over the unix socket, client and in-process server together — in
// objects and in bytes: what every tdp_init of a launch pays. One object
// and 5 % over what the lazy set-up measures (it was 81 objects and
// 18.6 KB while every connection built its read buffers, event channel
// and mux tables up front).
const (
	setupAllocBudget = 49
	setupBytesBudget = 4250
)

func TestSetupAllocBudget(t *testing.T) {
	srv := NewServer()
	addr := serveUnix(t, srv, nil)
	hold := dialT(t, addr, "setup") // keeps the context, so a cycle does not pay for creating it
	if err := hold.Put("held", "1"); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		c, err := Dial(nil, addr, "setup")
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		if err := c.Put("pid", "4242"); err != nil {
			t.Fatalf("Put: %v", err)
		}
		c.Close()
	}
	for i := 0; i < 200; i++ { // warm: the buffer pool, the attribute, seqs below 100
		cycle()
	}
	const cycles = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / cycles
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / cycles
	t.Logf("set-up: %.1f objects, %.0f bytes per dial + HELLO + put + close (budgets %d, %d)", objects, bytes, setupAllocBudget, setupBytesBudget)
	if testkit.Race {
		return // the read-buffer pool leaks by design under the race detector
	}
	if objects > setupAllocBudget {
		t.Errorf("a set-up allocates %.1f objects, budget %d", objects, setupAllocBudget)
	}
	if bytes > setupBytesBudget {
		t.Errorf("a set-up allocates %.0f bytes, budget %d", bytes, setupBytesBudget)
	}
}
