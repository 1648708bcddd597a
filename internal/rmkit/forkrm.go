package rmkit

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tdp/internal/procsim"
	"tdp/internal/telemetry"
)

// ForkRM is the simplest possible resource manager: it runs each job
// immediately on its single host, the way an rsh/ssh launcher or a
// developer's shell would — no queueing, no matchmaking. It exists to
// show that even a trivial RM hosts every TDP tool once it calls
// Launch.
type ForkRM struct {
	host   *Host
	tracer *telemetry.Tracer
	jobs   atomic.Int64

	mu     sync.Mutex
	closed bool
}

// NewForkRM boots a fork RM with its own host.
func NewForkRM(tracer *telemetry.Tracer) (*ForkRM, error) {
	host, err := NewHost("forkrm-host")
	if err != nil {
		return nil, err
	}
	return &ForkRM{host: host, tracer: tracer}, nil
}

// Host returns the RM's execution host.
func (rm *ForkRM) Host() *Host { return rm.host }

// Run executes the job synchronously and returns its exit status.
func (rm *ForkRM) Run(spec JobSpec) (procsim.ExitStatus, error) {
	rm.mu.Lock()
	if rm.closed {
		rm.mu.Unlock()
		return procsim.ExitStatus{}, fmt.Errorf("rmkit: fork RM closed")
	}
	rm.mu.Unlock()
	id := rm.jobs.Add(1)
	rm.tracer.Step("forkrm", "run", spec.Name)
	return Launch(rm.host, fmt.Sprintf("forkjob-%d", id), spec, rm.tracer, "forkrm")
}

// Jobs reports how many jobs have been started.
func (rm *ForkRM) Jobs() int64 { return rm.jobs.Load() }

// Close releases the host.
func (rm *ForkRM) Close() {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if !rm.closed {
		rm.closed = true
		rm.host.Close()
	}
}
