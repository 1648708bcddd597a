// Package events implements the TDP event-notification model (§3.3).
//
// The paper rejects delivering asynchronous completions via signals
// (they collide with the tool's own signal use) or threads (no thread
// package is portable across tools) in favor of a poll-loop model: an
// asynchronous get or put completion makes a descriptor active; the
// daemon returns from poll/select, and calls tdp_service_event at a
// known-safe point, which runs the registered callbacks.
//
// Queue reproduces that contract: completions are posted by transport
// goroutines but the user-supplied callbacks run only inside Service,
// on the caller's goroutine. Activity() is the descriptor analog — a
// channel that becomes readable when callbacks are pending, suitable
// for use in a select loop.
package events

import "sync"

// Queue holds pending completion callbacks until serviced. The zero
// value is an empty queue; most daemons never post to theirs, so the
// activity channel is made by the first Post or Activity.
type Queue struct {
	mu      sync.Mutex
	pending []func()
	notify  chan struct{}
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return new(Queue) }

// activityLocked returns the activity channel. Callers hold mu.
func (q *Queue) activityLocked() chan struct{} {
	if q.notify == nil {
		q.notify = make(chan struct{}, 1)
	}
	return q.notify
}

// Post enqueues a callback and marks the queue active. It never runs
// the callback itself; that happens in Service. Post is safe to call
// from any goroutine.
func (q *Queue) Post(cb func()) {
	if cb == nil {
		return
	}
	q.mu.Lock()
	q.pending = append(q.pending, cb)
	notify := q.activityLocked()
	q.mu.Unlock()
	select {
	case notify <- struct{}{}:
	default: // already marked active
	}
}

// Activity returns the descriptor-activity channel: it yields a value
// when at least one callback is pending. Use it in a select loop the
// way the paper's daemons use poll(); after it fires, call Service.
func (q *Queue) Activity() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.activityLocked()
}

// Len reports the number of pending callbacks.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Service runs every pending callback, in posting order, on the
// calling goroutine, and returns how many ran. This is
// tdp_service_event: the tool calls it at a safe point in its own
// loop, so callbacks never preempt tool code.
func (q *Queue) Service() int {
	q.mu.Lock()
	batch := q.pending
	q.pending = nil
	notify := q.notify // nil (never ready) while nothing was ever posted
	q.mu.Unlock()
	// Drain the activity mark; callbacks posted while we run will
	// re-arm it.
	select {
	case <-notify:
	default:
	}
	for _, cb := range batch {
		cb()
	}
	return len(batch)
}

// ServiceOne runs at most one pending callback and reports whether one
// ran. It lets a daemon interleave event handling with other work at a
// finer grain than Service.
func (q *Queue) ServiceOne() bool {
	q.mu.Lock()
	if len(q.pending) == 0 {
		q.mu.Unlock()
		return false
	}
	cb := q.pending[0]
	q.pending = q.pending[1:]
	rearm := len(q.pending) > 0
	notify := q.notify
	q.mu.Unlock()
	if !rearm {
		select {
		case <-notify:
		default:
		}
	}
	cb()
	return true
}
