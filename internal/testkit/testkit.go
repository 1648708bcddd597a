// Package testkit holds the fakes and checks more than one package's
// tests share: a clock the test owns (for internal/liveness and its
// callers), a listener that accepts and never answers, and the order
// check the figure reproductions run on a tracer's protocol steps.
package testkit

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tdp/internal/liveness"
	"tdp/internal/telemetry"
)

// spanRing is the size of a telemetry.Tracer's span log (its maxSpans).
const spanRing = 4096

// Steps is a tracer's span log as "actor:name" strings, oldest first:
// the form in which the figure reproductions state the paper's order of
// protocol steps (telemetry.Tracer.Step).
type Steps []string

// StepsOf reads tr's span log. It fails t when the log has filled the
// tracer's ring, because the oldest steps may then be gone and no order
// check on the rest means anything: a test that records that much uses
// a fresh tracer.
func StepsOf(t testing.TB, tr *telemetry.Tracer) Steps {
	t.Helper()
	spans := tr.Spans()
	if len(spans) >= spanRing {
		t.Fatalf("span log holds %d spans, a full ring: its oldest steps may be lost", len(spans))
	}
	out := make(Steps, len(spans))
	for i, sp := range spans {
		out[i] = sp.Actor + ":" + sp.Name
	}
	return out
}

// CheckOrder verifies that the given "actor:name" steps appear in s in
// the given relative order (other steps may interleave). It returns an
// error naming the first step that is missing or out of order.
func (s Steps) CheckOrder(want ...string) error {
	pos := 0
	for _, w := range want {
		i := slices.Index(s[pos:], w)
		if i < 0 {
			return fmt.Errorf("step %q missing or out of order; steps:\n  %s", w, strings.Join(s, "\n  "))
		}
		pos += i + 1
	}
	return nil
}

// Before reports whether the first occurrence of step a precedes the
// first occurrence of step b. Both must have occurred.
func (s Steps) Before(a, b string) bool {
	i, j := slices.Index(s, a), slices.Index(s, b)
	return i >= 0 && j > i
}

// Clock is a liveness.Clock that moves only when the test says so.
// NextTimer is how a test meets the code it drives without sleeping: it
// blocks until that code has armed its next timer.
type Clock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    time.Time
	timers []*timer // every timer created, in order
	seen   int      // how many NextTimer has handed out
}

type timer struct {
	d     time.Duration
	when  time.Time
	ch    chan time.Time
	spent bool // fired or stopped
}

// NewClock returns a clock standing at an arbitrary fixed instant.
func NewClock() *Clock {
	c := &Clock{now: time.Unix(1_000_000, 0)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *Clock) NewTimer(d time.Duration) liveness.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &timer{d: d, when: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, t)
	c.cond.Broadcast()
	return liveness.Timer{C: t.ch, Stop: func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		was := !t.spent
		t.spent = true
		return was
	}}
}

// NextTimer blocks until the code under test has created a timer this
// method has not reported yet, and returns its duration.
func (c *Clock) NextTimer() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.seen >= len(c.timers) {
		c.cond.Wait()
	}
	c.seen++
	return c.timers[c.seen-1].d
}

// Advance moves the clock forward by d and fires every timer then due.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for _, t := range c.timers {
		if !t.spent && !t.when.After(c.now) {
			t.spent = true
			t.ch <- c.now
		}
	}
}

// HungListener starts a listener that accepts connections and never
// replies — the shape of a deadlocked daemon: alive at the TCP layer,
// dead at the protocol layer. Accepted connections are held open until
// the test ends, so a client sees neither a reset nor an answer. It
// returns the listener's address.
func HungListener(t testing.TB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				<-done
				c.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		close(done)
	})
	return l.Addr().String()
}
