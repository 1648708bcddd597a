package liveness_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"tdp/internal/liveness"
	"tdp/internal/testkit"
)

// Every test here runs on a clock the test owns: the loop under test
// arms a timer, the test reads its duration and advances past it. Nothing
// sleeps.

var errBoom = errors.New("boom")

// within reports whether d is base ± 25 %.
func within(d, base time.Duration) bool {
	return d >= base*3/4 && d <= base*5/4
}

// retryAsync runs Retry on its own goroutine with an attempt that fails
// the first `failures` calls, and returns a channel closed when Retry
// returns and the attempt counter's reader.
func retryAsync(clk liveness.Clock, stop <-chan struct{}, sched liveness.Schedule, failures int) (<-chan struct{}, func() int) {
	calls := make(chan int, 1)
	calls <- 0
	res := make(chan struct{})
	go func() {
		defer close(res)
		liveness.Retry(clk, stop, sched, func() error {
			n := <-calls + 1
			calls <- n
			if n <= failures {
				return errBoom
			}
			return nil
		})
	}()
	return res, func() int { n := <-calls; calls <- n; return n }
}

func TestRetryDoublesCapsAndJitters(t *testing.T) {
	clk := testkit.NewClock()
	sched := liveness.Schedule{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80, 80, 80, 80}
	res, calls := retryAsync(clk, nil, sched, len(want))
	exact := 0
	for i, ms := range want {
		base := ms * time.Millisecond
		d := clk.NextTimer()
		if !within(d, base) {
			t.Fatalf("delay %d = %v, want %v ± 25%%", i, d, base)
		}
		if d == base {
			exact++
		}
		clk.Advance(d)
	}
	<-res
	if got := calls(); got != len(want)+1 {
		t.Errorf("attempts = %d, want %d", got, len(want)+1)
	}
	if exact == len(want) {
		t.Error("no delay was jittered")
	}
}

func TestRetryZeroScheduleIsTheDefault(t *testing.T) {
	clk := testkit.NewClock()
	res, calls := retryAsync(clk, nil, liveness.Schedule{}, 7)
	for i, base := range []time.Duration{50, 100, 200, 400, 800, 1600, 2000} {
		d := clk.NextTimer()
		if !within(d, base*time.Millisecond) {
			t.Fatalf("delay %d = %v, want %v ± 25%%", i, d, base*time.Millisecond)
		}
		clk.Advance(d)
	}
	<-res
	if got := calls(); got != 8 {
		t.Errorf("attempts = %d, want 8", got)
	}
}

func TestRetryStopInterruptsAPendingDelay(t *testing.T) {
	clk := testkit.NewClock()
	stop := make(chan struct{})
	res, calls := retryAsync(clk, stop, liveness.Schedule{Initial: time.Hour, Max: time.Hour}, 1<<30)
	clk.NextTimer() // the loop is asleep for about an hour
	close(stop)
	<-res
	if got := calls(); got != 1 {
		t.Errorf("attempts = %d, want 1", got)
	}
}

func TestWatchTimesOutAHungProbe(t *testing.T) {
	clk := testkit.NewClock()
	res := make(chan error, 1)
	go func() {
		res <- liveness.Watch(clk, nil, time.Second, 200*time.Millisecond, func(ctx context.Context) error {
			<-ctx.Done() // a peer that accepts and never answers
			return ctx.Err()
		})
	}()
	if d := clk.NextTimer(); d != time.Second {
		t.Fatalf("first timer = %v, want the 1s interval", d)
	}
	clk.Advance(time.Second)
	if d := clk.NextTimer(); d != 200*time.Millisecond {
		t.Fatalf("second timer = %v, want the 200ms probe bound", d)
	}
	select {
	case err := <-res:
		t.Fatalf("Watch returned %v before the bound ran out", err)
	default:
	}
	clk.Advance(200 * time.Millisecond)
	if err := <-res; !errors.Is(err, liveness.ErrProbeTimeout) {
		t.Fatalf("Watch = %v, want ErrProbeTimeout", err)
	}
}

func TestWatchStopsAfterTheFirstFailure(t *testing.T) {
	clk := testkit.NewClock()
	probes := 0 // touched only by the probe, which Watch runs one at a time
	res := make(chan error, 1)
	go func() {
		res <- liveness.Watch(clk, nil, time.Second, time.Second, func(context.Context) error {
			if probes++; probes == 3 {
				return errBoom
			}
			return nil
		})
	}()
	for i := 0; i < 3; i++ {
		clk.Advance(clk.NextTimer()) // the interval; the probe then answers at once
		clk.NextTimer()              // its bound, never reached
	}
	if err := <-res; !errors.Is(err, errBoom) {
		t.Fatalf("Watch = %v, want the probe's error", err)
	}
	if probes != 3 {
		t.Errorf("probes = %d, want 3: none after the first failure", probes)
	}
}

func TestWatchStop(t *testing.T) {
	clk := testkit.NewClock()
	stop := make(chan struct{})
	res := make(chan error, 1)
	go func() {
		res <- liveness.Watch(clk, stop, time.Hour, time.Second, func(context.Context) error { return nil })
	}()
	clk.NextTimer()
	close(stop)
	if err := <-res; err != nil {
		t.Fatalf("Watch = %v, want nil on stop", err)
	}
}
