package attrspace

import (
	"testing"
	"time"
)

// A connection makes its event channel when it is first needed — by the
// first event to arrive or by the first Events() call. Whichever comes
// first, a consumer sees every event pushed after Subscribe.

func waitEvent(t *testing.T, ch <-chan Event, value string) {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok || ev.Attr != "status" || ev.Value != value {
			t.Fatalf("event = %+v (open %v), want status=%s", ev, ok, value)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("event status=%s never arrived", value)
	}
}

func TestEventsChannelMadeOnFirstUse(t *testing.T) {
	_, addr := startServer(t)
	pub := dialT(t, addr, "lazy")

	t.Run("Events before the event", func(t *testing.T) {
		sub := dialT(t, addr, "lazy")
		if err := sub.Subscribe(); err != nil {
			t.Fatal(err)
		}
		ch := sub.Events()
		pub.Put("status", "early")
		waitEvent(t, ch, "early")
	})
	t.Run("Events after the event", func(t *testing.T) {
		sub := dialT(t, addr, "lazy")
		if err := sub.Subscribe(); err != nil {
			t.Fatal(err)
		}
		pub.Put("status", "late")
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			sub.mu.Lock()
			arrived := sub.events != nil // made by the read loop, for the event
			sub.mu.Unlock()
			if arrived {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the event never reached the client")
			}
		}
		waitEvent(t, sub.Events(), "late")
		pub.Put("status", "later")
		waitEvent(t, sub.Events(), "later")
	})
}

func TestEventsOnClosedClient(t *testing.T) {
	_, addr := startServer(t)
	for _, subscribed := range []bool{false, true} {
		c := dialT(t, addr, "lazy")
		if subscribed {
			if err := c.Subscribe(); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		select {
		case ev, ok := <-c.Events():
			if ok {
				t.Errorf("subscribed=%v: closed client delivered %+v", subscribed, ev)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("subscribed=%v: Events() of a closed client is not a closed channel", subscribed)
		}
	}
}
