package attrspace

import (
	"fmt"
	"testing"

	"tdp/internal/wire"
)

// The allocation budget of the hot operations, counted the way the
// repository's benchmark counts: process-wide mallocs, so the client and
// the in-process server together. What is left per round trip is the
// codec's own — one payload copy per message, request and reply — and
// the seq the server formats into its ack; the budgets leave one object
// of slack over that. Client bookkeeping (reply slot, reply message,
// frame header, doorbell byte, batch keys) must add nothing.
const (
	putAllocBudget      = 4
	tryGetAllocBudget   = 4
	putBatchAllocBudget = 13 // a batch of 8: the request's field map is the rest
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
			batch := make([]KV, 8)
			for i := range batch {
				batch[i] = KV{Key: fmt.Sprintf("batch%d", i), Value: "0123456789abcdef0123456789abcdef"}
			}
			ops := []struct {
				name   string
				budget float64
				run    func() error
			}{
				{"Put", putAllocBudget, func() error { return c.Put("pid", "4242") }},
				{"TryGet", tryGetAllocBudget, func() error { _, err := c.TryGet("pid"); return err }},
				{"PutBatch8", putBatchAllocBudget, func() error { return c.PutBatch(batch) }},
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

// TestEventAllocBudget: an EVENT delivered to a subscriber's handler is
// decoded in place like a reply, so a put that is also pushed to one
// subscriber costs at most two puts' worth.
func TestEventAllocBudget(t *testing.T) {
	srv := NewServer()
	srv.SetShm(false)
	addr := serveUnix(t, srv, nil)
	writer, watcher := dialT(t, addr, "alloc"), dialT(t, addr, "alloc")
	seen := make(chan string, 1)
	watcher.SetEventHandler(func(ev Event) { seen <- ev.Value })
	if err := watcher.Subscribe(); err != nil {
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
