package rmkit

import (
	"fmt"
	"sync"
	"time"

	"tdp/internal/procsim"
	"tdp/internal/telemetry"
)

// QueueRM is a PBS/NQE-style batch queue: jobs enter a FIFO queue and
// a fixed set of worker hosts drains it, one job at a time per worker.
// It is the second extra resource manager in the m + n matrix.
type QueueRM struct {
	tracer *telemetry.Tracer
	hosts  []*Host
	queue  chan *QueuedJob

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
	nextID int
}

// QueuedJob is a job's handle in the queue.
type QueuedJob struct {
	ID   int
	Spec JobSpec

	done chan struct{}
	exit procsim.ExitStatus
	err  error
	host string
}

// Done returns a channel closed when the job finishes (or fails).
func (q *QueuedJob) Done() <-chan struct{} { return q.done }

// Result returns the exit status and error after Done.
func (q *QueuedJob) Result() (procsim.ExitStatus, error) { return q.exit, q.err }

// Host returns the worker host that ran the job.
func (q *QueuedJob) Host() string { return q.host }

// Wait blocks for completion with a timeout.
func (q *QueuedJob) Wait(timeout time.Duration) (procsim.ExitStatus, error) {
	select {
	case <-q.done:
		return q.exit, q.err
	case <-time.After(timeout):
		return procsim.ExitStatus{}, fmt.Errorf("rmkit: job %d still queued/running after %v", q.ID, timeout)
	}
}

// NewQueueRM boots a queue RM with the given number of worker hosts.
func NewQueueRM(workers int, tracer *telemetry.Tracer) (*QueueRM, error) {
	if workers < 1 {
		workers = 1
	}
	rm := &QueueRM{tracer: tracer, queue: make(chan *QueuedJob, 1024)}
	for i := 0; i < workers; i++ {
		host, err := NewHost(fmt.Sprintf("queuerm-w%d", i))
		if err != nil {
			rm.Close()
			return nil, err
		}
		rm.hosts = append(rm.hosts, host)
		rm.wg.Add(1)
		go rm.worker(host)
	}
	return rm, nil
}

func (rm *QueueRM) worker(host *Host) {
	defer rm.wg.Done()
	for qj := range rm.queue {
		if rm.tracer != nil {
			rm.tracer.Step("queuerm", "dispatch", fmt.Sprintf("job=%d host=%s", qj.ID, host.Name))
		}
		qj.host = host.Name
		qj.exit, qj.err = Launch(host, fmt.Sprintf("qjob-%d", qj.ID), qj.Spec, rm.tracer, "queuerm")
		close(qj.done)
	}
}

// Enqueue adds a job to the FIFO queue and returns its handle.
func (rm *QueueRM) Enqueue(spec JobSpec) (*QueuedJob, error) {
	rm.mu.Lock()
	if rm.closed {
		rm.mu.Unlock()
		return nil, fmt.Errorf("rmkit: queue RM closed")
	}
	rm.nextID++
	qj := &QueuedJob{ID: rm.nextID, Spec: spec, done: make(chan struct{})}
	rm.mu.Unlock()
	if rm.tracer != nil {
		rm.tracer.Step("queuerm", "enqueue", fmt.Sprintf("job=%d cmd=%s", qj.ID, spec.Name))
	}
	rm.queue <- qj
	return qj, nil
}

// Workers reports the number of worker hosts.
func (rm *QueueRM) Workers() int { return len(rm.hosts) }

// Close drains the queue (letting running jobs finish) and releases
// the worker hosts.
func (rm *QueueRM) Close() {
	rm.mu.Lock()
	if rm.closed {
		rm.mu.Unlock()
		return
	}
	rm.closed = true
	rm.mu.Unlock()
	close(rm.queue)
	rm.wg.Wait()
	for _, h := range rm.hosts {
		h.Close()
	}
}
