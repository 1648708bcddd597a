package attrspace

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The goroutines an idle connection costs, both ends counted, in the
// style of the allocation budgets: the server's reader of the
// connection (and its event pusher for a subscription), and on the
// client a resident reader only while something listens on it (a
// subscription the server answered, an onClose hook). A plain client is
// read by its waiters alone, so between operations nothing runs for it;
// nor for one whose Subscribe was refused, or that asked for its Events
// channel without subscribing. The budgets are the measured floor.
const (
	plainConnGoroutines      = 1
	subscribedConnGoroutines = 3
	hookedConnGoroutines     = 2
)

// settledGoroutines waits for the goroutine count to hold still (a
// reader that has just been told to stop may still be on its way out)
// and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

func TestIdleConnGoroutineBudget(t *testing.T) {
	const conns = 8
	server := func(t *testing.T) string { return serveUnix(t, NewServer(), nil) }
	kinds := []struct {
		name   string
		budget int
		serve  func(*testing.T) string
		listen func(*Client) error
	}{
		{"plain", plainConnGoroutines, server, func(*Client) error { return nil }},
		{"subscribed", subscribedConnGoroutines, server, func(c *Client) error { return c.Subscribe() }},
		{"onClose", hookedConnGoroutines, server, func(c *Client) error { c.onClose(func(error) {}); return nil }},
		{"failed Subscribe", plainConnGoroutines,
			func(t *testing.T) string { return flakySubServer(t, conns) },
			func(c *Client) error {
				if c.Subscribe() == nil {
					return errors.New("Subscribe succeeded against a server that refuses it")
				}
				return nil
			}},
		{"Events unsubscribed", plainConnGoroutines, server, func(c *Client) error { c.Events(); return nil }},
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			addr := kind.serve(t)
			before := settledGoroutines()
			for i := 0; i < conns; i++ {
				c := dialT(t, addr, "idle")
				if _, err := c.PutAt(context.Background(), Local, "k", "v"); err != nil {
					t.Fatal(err)
				}
				// Last, so that no later frame wakes a reader left
				// waiting for one.
				if err := kind.listen(c); err != nil {
					t.Fatal(err)
				}
			}
			per := float64(settledGoroutines()-before) / conns
			t.Logf("%s: %.2f goroutines per idle connection, both ends (budget %d)", kind.name, per, kind.budget)
			if per > float64(kind.budget) {
				t.Errorf("an idle %s connection costs %.2f goroutines, budget %d", kind.name, per, kind.budget)
			}
		})
	}
}

// hangUpListener keeps the server's end of every accepted connection so
// that a test can cut them all under the server.
type hangUpListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *hangUpListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *hangUpListener) hangUp() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// readSideHolder starts an uncancellable blocking GetAt of attr on c and
// waits until it holds the read side: a plain client has no resident
// reader, so while its one request is pending whoever reads is that get.
func readSideHolder(t *testing.T, c *Client, attr string) <-chan error {
	t.Helper()
	got := make(chan error, 1)
	go func() {
		v, _, err := c.GetAt(context.Background(), Local, attr)
		if err == nil && v != "open" {
			err = fmt.Errorf("get %s = %q, want \"open\"", attr, v)
		}
		got <- err
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.reading && len(c.pending) == 1
	})
	return got
}

// eventLog takes a client's events in order: it checks that seqs rise
// and adds up the updates it did not see (gaps between seqs) and those
// declared lost.
type eventLog struct {
	mu         sync.Mutex
	last       uint64
	seen       map[string]bool
	gaps, lost uint64
	outOfOrder int
	done       chan struct{}
}

func (l *eventLog) run(ch <-chan Event) {
	defer close(l.done)
	for ev := range ch {
		l.mu.Lock()
		l.lost += ev.Lost
		if ev.Op != "lost" {
			switch {
			case l.last != 0 && ev.Seq <= l.last:
				l.outOfOrder++
			case l.last != 0:
				l.gaps += ev.Seq - l.last - 1
			}
			if ev.Seq > l.last {
				l.last = ev.Seq
			}
			l.seen[ev.Value] = true
		}
		l.mu.Unlock()
	}
}

func (l *eventLog) saw(value string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[value]
}

// TestReadSideHeldByBlockingGet: a blocking get that cannot be cancelled
// reads the connection for everyone while it waits. Eight goroutines'
// puts and trygets complete through it, each caller getting its own
// reply exactly once (every put a seq of its own, every tryget the value
// and seq its caller's put just wrote), and a Subscribe that lands
// mid-stream gets its events in seq order, every update it missed
// declared lost. Opening the gate ends the get, and the read side passes
// to a resident reader, which the subscription keeps.
func TestReadSideHeldByBlockingGet(t *testing.T) {
	addr := serveUnix(t, NewServer(), nil)
	c := dialT(t, addr, "readside")
	gate := dialT(t, addr, "readside")
	held := readSideHolder(t, c, "gate")

	const workers, rounds = 8, 100
	bg := context.Background()
	log := &eventLog{seen: make(map[string]bool), done: make(chan struct{})}
	seqs := make(chan uint64, workers*rounds)
	subscribed := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for i := 0; i < rounds; i++ {
				if w == 0 && i == rounds/2 {
					if err := c.Subscribe(); err != nil {
						t.Errorf("Subscribe: %v", err)
						return
					}
					go log.run(c.Events())
					close(subscribed)
				}
				v := fmt.Sprintf("%d.%d", w, i)
				seq, err := c.PutAt(bg, Local, key, v)
				if err != nil {
					t.Errorf("%s put %d: %v", key, i, err)
					return
				}
				seqs <- seq
				got, gotSeq, err := c.TryGetAt(bg, Local, key)
				if err != nil || got != v || gotSeq != seq {
					t.Errorf("%s tryget %d = %q@%d, %v; want %q@%d", key, i, got, gotSeq, err, v, seq)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(seqs)
	<-subscribed
	select {
	case err := <-held:
		t.Fatalf("the blocking get returned before its gate opened: %v", err)
	default:
	}
	unique := make(map[uint64]bool)
	for seq := range seqs {
		if unique[seq] {
			t.Errorf("seq %d acked twice", seq)
		}
		unique[seq] = true
	}
	if len(unique) != workers*rounds {
		t.Errorf("%d puts acked, want %d", len(unique), workers*rounds)
	}

	if _, err := gate.PutAt(bg, Local, "gate", "open"); err != nil {
		t.Fatal(err)
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	// Two puts after the gate: whatever loss the burst before them had is
	// declared by the time the second one's event is in.
	for _, v := range []string{"after-1", "after-2"} {
		if _, err := c.PutAt(bg, Local, "after", v); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return log.saw("after-2") })
	log.mu.Lock()
	defer log.mu.Unlock()
	t.Logf("events: %d updates missed, %d declared lost", log.gaps, log.lost)
	if log.outOfOrder != 0 {
		t.Errorf("%d events out of seq order", log.outOfOrder)
	}
	if log.gaps > log.lost {
		t.Errorf("%d updates missed, only %d declared lost", log.gaps, log.lost)
	}
}

// TestReadSideHolderSeesHangUp: the server hangs up while a blocking get
// reads the connection for eight goroutines' puts and trygets. Every
// caller — the get, the callers parked on it, those that come after —
// gets ErrConnLost, once, and the failed client keeps no slot.
func TestReadSideHolderSeesHangUp(t *testing.T) {
	var l *hangUpListener
	addr := serveUnix(t, NewServer(), func(inner net.Listener) net.Listener {
		l = &hangUpListener{Listener: inner}
		return l
	})
	c := dialT(t, addr, "hangup")
	held := readSideHolder(t, c, "gate")

	const workers = 8
	bg := context.Background()
	errs := make(chan error, workers)
	var started sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		started.Add(1)
		go func() {
			key := fmt.Sprintf("w%d", w)
			for i := 0; ; i++ {
				if i == 10 {
					started.Done()
				}
				if _, err := c.PutAt(bg, Local, key, "v"); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.TryGetAt(bg, Local, key); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	started.Wait()
	l.hangUp()

	deadline := time.After(10 * time.Second)
	for i := 0; i <= workers; i++ {
		var err error
		select {
		case err = <-held:
		case err = <-errs:
		case <-deadline:
			t.Fatalf("%d of %d callers never returned after the hang-up", workers+1-i, workers+1)
		}
		if !errors.Is(err, ErrConnLost) {
			t.Errorf("caller returned %v, want ErrConnLost", err)
		}
	}
	if st := slotState(c); st.pending != 0 || st.free != 0 {
		t.Errorf("failed client keeps %d pending and %d free slots", st.pending, st.free)
	}
}
