package events

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCallbacksRunOnlyInService(t *testing.T) {
	q := NewQueue()
	var ran atomic.Int32
	q.Post(func() { ran.Add(1) })
	time.Sleep(10 * time.Millisecond)
	if ran.Load() != 0 {
		t.Fatal("callback ran before Service — violates the §3.3 safe-point contract")
	}
	if n := q.Service(); n != 1 {
		t.Fatalf("Service = %d, want 1", n)
	}
	if ran.Load() != 1 {
		t.Fatal("callback did not run in Service")
	}
}

func TestServiceOrderFIFO(t *testing.T) {
	q := NewQueue()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Post(func() { order = append(order, i) })
	}
	q.Service()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

func TestActivityChannelFires(t *testing.T) {
	q := NewQueue()
	select {
	case <-q.Activity():
		t.Fatal("activity before any Post")
	default:
	}
	q.Post(func() {})
	select {
	case <-q.Activity():
	case <-time.After(time.Second):
		t.Fatal("activity channel never fired")
	}
	// After servicing, quiescent again.
	q.Service()
	select {
	case <-q.Activity():
		t.Fatal("activity after Service with empty queue")
	default:
	}
}

func TestActivityCoalesces(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 100; i++ {
		q.Post(func() {})
	}
	// One mark regardless of how many posts.
	<-q.Activity()
	select {
	case <-q.Activity():
		t.Fatal("activity channel held more than one mark")
	default:
	}
	if n := q.Service(); n != 100 {
		t.Fatalf("Service = %d", n)
	}
}

func TestServiceOne(t *testing.T) {
	q := NewQueue()
	var ran []int
	q.Post(func() { ran = append(ran, 1) })
	q.Post(func() { ran = append(ran, 2) })
	if !q.ServiceOne() {
		t.Fatal("ServiceOne = false with pending work")
	}
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("ran = %v", ran)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	// Activity stays armed while work remains.
	select {
	case <-q.Activity():
	case <-time.After(time.Second):
		t.Fatal("activity lost with one callback remaining")
	}
	if !q.ServiceOne() {
		t.Fatal("second ServiceOne = false")
	}
	if q.ServiceOne() {
		t.Fatal("ServiceOne on empty queue = true")
	}
}

func TestPostNilIgnored(t *testing.T) {
	q := NewQueue()
	q.Post(nil)
	if q.Len() != 0 {
		t.Fatal("nil callback queued")
	}
	if n := q.Service(); n != 0 {
		t.Fatalf("Service = %d", n)
	}
}

func TestPostDuringService(t *testing.T) {
	q := NewQueue()
	var second atomic.Bool
	q.Post(func() {
		q.Post(func() { second.Store(true) })
	})
	q.Service()
	if second.Load() {
		t.Fatal("callback posted during Service ran in the same batch")
	}
	// The re-post re-armed activity.
	select {
	case <-q.Activity():
	case <-time.After(time.Second):
		t.Fatal("activity not re-armed by Post during Service")
	}
	q.Service()
	if !second.Load() {
		t.Fatal("re-posted callback never ran")
	}
}

func TestConcurrentPosters(t *testing.T) {
	q := NewQueue()
	var wg sync.WaitGroup
	var count atomic.Int64
	const posters, per = 8, 100
	for i := 0; i < posters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				q.Post(func() { count.Add(1) })
			}
		}()
	}
	wg.Wait()
	total := 0
	for total < posters*per {
		total += q.Service()
	}
	if count.Load() != posters*per {
		t.Fatalf("count = %d", count.Load())
	}
}

func TestPollLoopPattern(t *testing.T) {
	// The paper's pseudo-code: a daemon selects on descriptors, then
	// calls tdp_service_events.
	q := NewQueue()
	done := make(chan struct{})
	var got atomic.Int32
	go func() {
		defer close(done)
		for got.Load() < 3 {
			select {
			case <-q.Activity():
				q.Service()
			case <-time.After(2 * time.Second):
				t.Error("poll loop starved")
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		q.Post(func() { got.Add(1) })
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("poll loop never finished")
	}
}

// TestNoLostWakeup: a Post that lands while Service takes the batch
// leaves the queue active, so a poll loop that waits on Activity between
// Services never sleeps on a pending callback. The window is narrow;
// under -race every run of the old drain-after-unlock code failed, and
// about six runs in ten without it.
func TestNoLostWakeup(t *testing.T) {
	q := NewQueue()
	lost := 0
	for round := 0; round < 200000; round++ {
		posted := make(chan struct{})
		go func() { q.Post(func() {}); close(posted) }()
		q.Service()
		<-posted
		if q.Len() > 0 {
			select {
			case <-q.Activity():
			default:
				lost++
			}
		}
		q.Service()
		select { // a Post whose callback the first Service took marks anyway
		case <-q.Activity():
		default:
		}
	}
	if lost > 0 {
		t.Errorf("%d rounds left a callback pending with Activity not ready", lost)
	}
}
