package tdp

import (
	"cmp"
	"context"
	"slices"

	"tdp/internal/attrspace"
)

// This file implements the asynchronous operations and event
// notification model of §3.2–§3.3: tdp_async_get, tdp_async_put, and
// tdp_service_event.
//
// An async operation returns immediately; its completion callback is
// queued, not run. The daemon's poll loop observes Activity() (the
// descriptor-activity analog) and calls ServiceEvents at a safe point,
// which runs the callbacks on the daemon's own goroutine. This is the
// design the paper settles on after rejecting signal- and thread-based
// delivery.

// Result is the completion value of an asynchronous get or put.
type Result struct {
	Attr  string // attribute name
	Value string // value read (get) or written (put)
	Err   error  // non-nil when the operation failed
}

// Callback receives the result of a completed asynchronous operation
// together with the caller-supplied argument (the paper's
// callback_arg). Callbacks run inside ServiceEvents.
type Callback func(r Result, arg any)

// AsyncGet starts a blocking get that completes in the background;
// when the attribute becomes available (or the operation fails), cb is
// queued and will run on the next ServiceEvents call. This is
// tdp_async_get.
func (h *Handle) AsyncGet(attribute string, cb Callback, arg any) error {
	timing := h.observe(opAsyncGet)
	h.cfg.Tracer.Step(h.cfg.Identity, "tdp_async_get", attribute)
	ch, err := h.lass.GetAsync(attribute)
	if err != nil {
		timing.done()
		return err
	}
	go h.post(ch, cb, arg, timing)
	return nil
}

// AsyncPut starts a put that completes in the background; cb is queued
// once the server acknowledges (or the operation fails). This is
// tdp_async_put.
func (h *Handle) AsyncPut(attribute, value string, cb Callback, arg any) error {
	timing := h.observe(opAsyncPut)
	h.tracePut("tdp_async_put", attribute, value)
	ch, err := h.lass.PutAsync(attribute, value)
	if err != nil {
		timing.done()
		return err
	}
	go h.post(ch, cb, arg, timing)
	return nil
}

// post waits for the transport completion, records the operation's
// end-to-end latency, and queues the callback; the pending-event gauge
// tracks the backlog the poll loop has yet to service.
func (h *Handle) post(ch <-chan attrspace.Result, cb Callback, arg any, timing opTiming) {
	r := <-ch
	timing.done()
	res := Result{Attr: r.Attr, Value: r.Value, Err: r.Err}
	if cb == nil {
		return
	}
	h.queue.Post(func() { cb(res, arg) })
	h.noteEventDepth()
}

// ServiceEvents runs every queued completion callback on the calling
// goroutine, in completion order, and returns how many ran. Daemons
// call it from their poll loop after Activity fires; callbacks
// therefore execute at a well-known, safe point (§3.3). This is
// tdp_service_event.
func (h *Handle) ServiceEvents() int {
	defer h.observe(opServiceEvents).done()
	h.cfg.Tracer.Step(h.cfg.Identity, "tdp_service_event", "")
	n := h.queue.Service()
	h.noteEventDepth()
	return n
}

// Activity returns a channel that becomes readable when completion
// callbacks are pending — the analog of the tdp file descriptor going
// active in the paper's poll-loop pseudo-code. Select on it alongside
// other descriptors, then call ServiceEvents.
func (h *Handle) Activity() <-chan struct{} { return h.queue.Activity() }

// PendingEvents reports the number of callbacks waiting for
// ServiceEvents.
func (h *Handle) PendingEvents() int { return h.queue.Len() }

// WatchUpdates subscribes to attribute change events in the local
// context. Each change queues a call to cb (delivered, like all TDP
// callbacks, through ServiceEvents) with op "put", "delete" or
// "destroy". The paper uses this for the RM's optional immediate
// notification of process status changes (§2.3).
//
// A watcher that falls behind loses updates, and the server says so
// (Event.Lost). Then WatchUpdates re-reads the context and queues a
// "put" for each attribute whose value differs from the last one its
// callbacks saw, in write order, and a "delete" (with the last value
// seen) for each that is gone; events the re-read already covers are
// skipped. So the callbacks still see every attribute's final value,
// though not every value in between. A re-read that fails is owed and
// tried again at the next event. Each re-read is one snapshot of the
// whole context, so a watcher that always lags pays one per burst of
// events it falls behind. The server's bare account of a loss (an
// event of op "lost", which names no attribute) is never handed to cb.
func (h *Handle) WatchUpdates(cb func(attr, value, op string)) error {
	if err := h.lass.Subscribe(); err != nil {
		return err
	}
	if cb == nil {
		return nil
	}
	post := func(attr, value, op string) {
		h.queue.Post(func() { cb(attr, value, op) })
		h.noteEventDepth()
	}
	go func() {
		seen := map[string]string{} // each attribute's value as cb last saw it
		var covered uint64          // the context seq the last re-read reflects
		owed := false               // a declared loss no re-read has repaired yet
		for ev := range h.lass.Events() {
			if ev.Op != "lost" && ev.Seq > covered {
				switch ev.Op {
				case "put":
					seen[ev.Attr] = ev.Value
				case "delete":
					delete(seen, ev.Attr)
				case "destroy": // a context made again counts its seqs from 0
					clear(seen)
					covered = 0
				}
				post(ev.Attr, ev.Value, ev.Op)
			}
			if ev.Lost > 0 {
				owed = true
			}
			if owed {
				covered, owed = h.reread(seen, covered, post)
			}
		}
	}()
	return nil
}

// reread brings seen up to the context's current attributes, posting
// what changed, and returns the context seq that read reflects. On
// failure it returns covered unchanged and owed true, so the caller
// tries again at the next event.
func (h *Handle) reread(seen map[string]string, covered uint64, post func(attr, value, op string)) (seq uint64, owed bool) {
	snap, seq, err := h.lass.SnapshotSeq(context.Background())
	if err != nil {
		return covered, true
	}
	changed := make([]string, 0, len(snap))
	for k, v := range snap {
		if old, ok := seen[k]; !ok || old != v.Value {
			changed = append(changed, k)
		}
	}
	slices.SortFunc(changed, func(a, b string) int { return cmp.Compare(snap[a].Seq, snap[b].Seq) })
	for k, v := range seen {
		if _, ok := snap[k]; !ok {
			delete(seen, k)
			post(k, v, "delete")
		}
	}
	for _, k := range changed {
		seen[k] = snap[k].Value
		post(k, snap[k].Value, "put")
	}
	return seq, false
}
