// Package liveness is the repository's one retry / probe mechanism.
// Retry re-runs an attempt on a doubling, jittered schedule until it
// succeeds; Watch probes a peer at a fixed interval, each probe bounded,
// until one fails. Sessions (and through them the shard router), the
// mrnet uplink, the fault supervisor and the condor master call these
// two and keep no timing loop of their own. Both read time only through
// the Clock they are handed, so a test replays a recovery schedule on a
// clock it owns instead of sleeping through it.
package liveness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Clock is the time source of Retry and Watch: System in product code, a
// fake in tests.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is a started timer: C delivers once when it fires; Stop releases
// it.
type Timer struct {
	C    <-chan time.Time
	Stop func() bool
}

// System is the wall clock.
var System Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) NewTimer(d time.Duration) Timer {
	t := time.NewTimer(d)
	return Timer{C: t.C, Stop: t.Stop}
}

// Schedule is a retry schedule: delays start at Initial and double up
// to Max. The zero value is 50 ms to 2 s.
type Schedule struct {
	Initial time.Duration
	Max     time.Duration
}

const (
	defaultInitial = 50 * time.Millisecond
	defaultMax     = 2 * time.Second
	// jitter is the fraction of each delay that is randomized: a delay d
	// is slept as d ± 25 %, so a fleet reconnecting after one server
	// restart does not arrive in lockstep.
	jitter = 0.5
)

// ErrProbeTimeout is Watch's failure for a probe that outlived its
// bound.
var ErrProbeTimeout = errors.New("liveness: probe timed out")

// Retry calls attempt until it returns nil or stop closes. Between
// attempts it sleeps the schedule's next delay, jittered.
func Retry(clk Clock, stop <-chan struct{}, sched Schedule, attempt func() error) {
	if sched == (Schedule{}) {
		sched = Schedule{Initial: defaultInitial, Max: defaultMax}
	}
	if sched.Max < sched.Initial {
		sched.Max = sched.Initial
	}
	delay := sched.Initial
	for {
		select {
		case <-stop:
			return
		default:
		}
		if attempt() == nil {
			return
		}
		t := clk.NewTimer(time.Duration(float64(delay) * (1 + jitter*(rand.Float64()-0.5))))
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return
		}
		if delay *= 2; delay > sched.Max {
			delay = sched.Max
		}
	}
}

// Watch calls probe every interval, cancelling a call that has not
// returned after timeout, and returns the first failure. It returns nil
// when stop closes. probe must return once its context is cancelled.
func Watch(clk Clock, stop <-chan struct{}, interval, timeout time.Duration, probe func(context.Context) error) error {
	for {
		t := clk.NewTimer(interval)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- probe(ctx) }()
		t = clk.NewTimer(timeout)
		var err error
		select {
		case err = <-done:
		case <-t.C:
			cancel()
			err = fmt.Errorf("%w after %v: %v", ErrProbeTimeout, timeout, <-done)
		case <-stop:
			cancel()
			<-done
		}
		t.Stop()
		cancel()
		if err != nil {
			return err
		}
	}
}
