package tdp

import (
	"context"
	"fmt"
	"strconv"

	"tdp/internal/attrspace"
	"tdp/internal/procsim"
)

// This file implements the §2.3 monitoring and control division of
// labor. The RM is the single entity responsible for controlling the
// application and for observing its status; the RT learns about state
// changes from attributes the RM publishes, and requests control
// operations by writing request attributes the RM watches. This
// eliminates the conflicting-waiter semantics of real operating
// systems (see procsim.StatusRouting) and the race of two processes
// issuing control operations.

// MonitorProcess makes this handle (an RM) the status publisher for p:
// every kernel state change of the process is mirrored into the
// attribute space under AttrStatus, and the exit status is recorded as
// "exited:<status>". It returns a stop function; monitoring also ends
// when the process exits. Once the process has exited, stop does not
// return before that final status has been put — an RM that waits for
// its application and then stops monitoring never loses the status,
// however close behind the exit it comes.
func (h *Handle) MonitorProcess(p *Process) (stop func(), err error) {
	k, err := h.kernel()
	if err != nil {
		return nil, err
	}
	sub := p.p.Subscribe()
	done := make(chan struct{})
	final := false // the exit status has been put; written before done closes
	go func() {
		defer close(done)
		for {
			e, ok := sub.Next()
			if !ok {
				return
			}
			switch e.Kind {
			case procsim.EventContinued:
				h.Put(AttrStatus, "running")
			case procsim.EventStopped:
				h.Put(AttrStatus, "stopped")
			case procsim.EventExited:
				h.Put(AttrStatus, "exited:"+e.Status.String())
				final = true
				k.Cancel(sub)
				return
			}
		}
	}()
	return func() {
		k.Cancel(sub)
		<-done
		// The kernel publishes the exit event after the exit itself, and
		// drops events on a subscriber that has fallen behind: a stop that
		// overtakes or outlives the event puts the status in its place.
		if st, exited := p.ExitStatus(); exited && !final {
			h.Put(AttrStatus, "exited:"+st.String())
		}
	}, nil
}

// RequestStart asks the RM to start (continue) the paused application:
// the RT writes AttrStartRequest, which the RM is watching via
// ServeStartRequests. Per §2.3 the RT never continues the application
// itself when the RM owns it — it coordinates the operation through
// the attribute space. (When the RT itself attached, Continue on its
// own Process handle is the direct path shown in Figure 3.)
func (h *Handle) RequestStart() error {
	return h.Put(AttrStartRequest, "1")
}

// ServeStartRequests blocks until the RT requests a start, then
// continues the process. RMs call it in a goroutine after creating a
// paused application. It returns the Continue error, or the ctx error
// when cancelled first.
func (h *Handle) ServeStartRequests(ctx context.Context, p *Process) error {
	if _, err := h.Get(ctx, AttrStartRequest); err != nil {
		return err
	}
	return p.Continue()
}

// WaitStatus blocks until AttrStatus reaches the wanted prefix (e.g.
// "running", "exited:") and returns the full status value. It consumes
// change notifications via subscription, so it observes every
// transition rather than polling.
func (h *Handle) WaitStatus(ctx context.Context, wantPrefix string) (string, error) {
	// Fast path: already there.
	if v, err := h.TryGet(AttrStatus); err == nil && hasPrefix(v, wantPrefix) {
		return v, nil
	}
	if err := h.lass.Subscribe(); err != nil {
		return "", err
	}
	// Check again to close the subscribe race.
	if v, err := h.TryGet(AttrStatus); err == nil && hasPrefix(v, wantPrefix) {
		return v, nil
	}
	for {
		select {
		case ev, ok := <-h.lass.Events():
			if !ok {
				return "", ErrClosed
			}
			if ev.Lost > 0 {
				// A gap: the server's ring dropped updates for us (the
				// op "lost" marker included). Transitions may have been
				// missed, so ask for the current status directly rather
				// than wait for an event that may never be re-sent.
				if v, err := h.TryGet(AttrStatus); err == nil && hasPrefix(v, wantPrefix) {
					return v, nil
				}
				continue
			}
			if ev.Attr == AttrStatus && ev.Op == "put" && hasPrefix(ev.Value, wantPrefix) {
				return ev.Value, nil
			}
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// ServeLASS starts an attribute space server on a real TCP address
// (use "127.0.0.1:0" for tests) and returns the server and its bound
// address. The same function serves for a CASS — the two differ only
// in placement (§2.1).
func ServeLASS(addr string) (*attrspace.Server, string, error) {
	srv := attrspace.NewServer()
	bound, err := srv.ListenAndServe(addr)
	if err != nil {
		return nil, "", fmt.Errorf("tdp: serve LASS: %w", err)
	}
	return srv, bound, nil
}

// ServeCachingLASS starts a LASS whose G* global verbs forward to the
// CASS at cassAddr through a subscription-invalidated read cache:
// steady-state global gets by local daemons are answered in one local
// hop, writes go through to the CASS (and stay read-your-writes for
// clients of this LASS). Daemons opt in with Config.GlobalViaLASS.
func ServeCachingLASS(addr, cassAddr string, dial attrspace.DialFunc) (*attrspace.Server, string, error) {
	srv := attrspace.NewServer()
	srv.EnableGlobalCache(cassAddr, attrspace.CacheConfig{Dial: dial})
	bound, err := srv.ListenAndServe(addr)
	if err != nil {
		srv.Close()
		return nil, "", fmt.Errorf("tdp: serve caching LASS: %w", err)
	}
	return srv, bound, nil
}

// FormatPID renders a pid the way attribute values carry it.
func FormatPID(pid procsim.PID) string { return strconv.Itoa(int(pid)) }
