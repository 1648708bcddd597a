package condor

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/liveness"
	"tdp/internal/telemetry"
)

// Master supervises a machine's daemons the way condor_master does
// ("its job is to keep track of the other Condor daemons", §4.1): it
// pings the machine's LASS and restarts it on the same address when it
// dies. Together with the faults package (which detects the failure
// and notifies other entities) this closes the fault-handling loop for
// the AS entity class.
type Master struct {
	machine *Machine
	tracer  *telemetry.Tracer

	restarts atomic.Int64
	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// probeTimeout bounds one health probe of the LASS: a daemon that
// accepts connections and never answers is dead to its clients, and
// without a bound it would wedge the master (and Close) forever.
const probeTimeout = 2 * time.Second

// NewMaster starts supervision of the machine's LASS; interval <= 0
// defaults to 20ms.
func NewMaster(machine *Machine, interval time.Duration, tracer *telemetry.Tracer) *Master {
	return newMaster(machine, interval, tracer, liveness.System)
}

func newMaster(machine *Machine, interval time.Duration, tracer *telemetry.Tracer, clk liveness.Clock) *Master {
	if interval <= 0 {
		interval = 20 * time.Millisecond
	}
	m := &Master{machine: machine, tracer: tracer, stopCh: make(chan struct{})}
	m.wg.Add(1)
	go m.loop(clk, interval)
	return m
}

func (m *Master) loop(clk liveness.Clock, interval time.Duration) {
	defer m.wg.Done()
	// Watch returns nil only when Close stops it.
	for liveness.Watch(clk, m.stopCh, interval, probeTimeout, m.probe) != nil {
		if m.tracer != nil {
			m.tracer.Step("master", "daemon_died", "lass@"+m.machine.Name())
		}
		if err := m.machine.RestartLASS(); err != nil {
			if m.tracer != nil {
				m.tracer.Step("master", "restart_failed", err.Error())
			}
			continue
		}
		m.restarts.Add(1)
		if m.tracer != nil {
			m.tracer.Step("master", "daemon_restarted", "lass@"+m.machine.Name())
		}
	}
}

// probe is one health check of the LASS. A failure is confirmed once
// before it counts — a single failed dial can be transient.
func (m *Master) probe(ctx context.Context) error {
	dial, addr := m.machine.Dial(), m.machine.LASSAddr()
	if attrspace.Probe(ctx, dial, addr) == nil {
		return nil
	}
	return attrspace.Probe(ctx, dial, addr)
}

// Restarts reports how many times the master restarted the LASS.
func (m *Master) Restarts() int64 { return m.restarts.Load() }

// Close stops supervision.
func (m *Master) Close() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	m.wg.Wait()
}
