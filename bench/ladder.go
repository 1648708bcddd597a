package main

import (
	"fmt"
	"runtime"
	"time"
)

// The traced run. Three ladders — local attribute ops, global ops, the
// launch flow — each replay one seeded op stream against every layer of
// their stack in turn, chunk by chunk, so that rung i and rung i+1 see
// the same ops within milliseconds of each other and their difference
// is the upper layer's own cost. The benchmark's span recorder brackets
// every rung call. End-to-end metrics are never taken from this run.

// rungMeter accumulates what a rung costs besides time: allocations and
// process CPU, read around each chunk the rung replays.
type rungMeter struct {
	ms      runtime.MemStats
	m0      uint64
	c0      time.Duration
	mallocs uint64
	cpu     time.Duration
	units   int
}

func (m *rungMeter) begin() {
	runtime.ReadMemStats(&m.ms)
	m.m0 = m.ms.Mallocs
	m.c0 = processCPU()
}

// end closes the bracket; units is how many ops (or messages, or jobs)
// the chunk held.
func (m *rungMeter) end(units int) {
	m.cpu += processCPU() - m.c0
	runtime.ReadMemStats(&m.ms)
	m.mallocs += m.ms.Mallocs - m.m0
	m.units += units
}

func (m *rungMeter) allocsPerUnit() float64 {
	return float64(m.mallocs) / float64(max(m.units, 1))
}

func (m *rungMeter) cpuUSPerUnit() float64 {
	return float64(m.cpu.Microseconds()) / float64(max(m.units, 1))
}

// ladderRun is the state the three ladders share.
type ladderRun struct {
	rec   *recorder
	rep   *report
	fails failureLog
	ops   int // rung calls made, for the result line's attempted
}

func (l *ladderRun) set(name string, value float64) {
	for _, m := range perLayer {
		if m.name == name {
			l.rep.set(name, metric{Value: value, Unit: m.unit})
			return
		}
	}
	panic("ladder sets undeclared metric " + name)
}

// selfUS reports a layer's own time. A negative difference means the
// rungs beneath cost more than the rung above on these ops, which only
// noise can produce; it is reported as 0 and the raw value kept in the
// run's JSON file.
func (l *ladderRun) selfUS(name string, raw float64) {
	l.set(name, max(raw, 0))
	l.rep.RawSelf[name] = raw
}

func runTraced(o options, spec workloadSpec) (*report, error) {
	l := &ladderRun{rec: newRecorder(), rep: &report{Metrics: map[string]metric{}, RawSelf: map[string]float64{}}}
	part := o.seconds / 4
	if err := l.overheadRatio(o, spec, part); err != nil {
		return nil, err
	}
	if err := l.localLadder(o.seed, part); err != nil {
		return nil, fmt.Errorf("local ladder: %w", err)
	}
	if err := l.globalLadder(o.seed, part); err != nil {
		return nil, fmt.Errorf("global ladder: %w", err)
	}
	if err := l.launchLadder(o.seed, part); err != nil {
		return nil, fmt.Errorf("launch ladder: %w", err)
	}
	for _, m := range perLayer {
		if _, ok := l.rep.Metrics[m.name]; !ok {
			return nil, fmt.Errorf("traced run did not produce %s", m.name)
		}
	}
	l.rep.attempted = l.ops
	l.rep.failed = l.fails.count
	l.rep.Failures = l.fails.msgs
	l.rep.Order = nil
	for _, m := range perLayer {
		l.rep.Order = append(l.rep.Order, m.name)
	}
	l.rep.trace = l.rec
	return l.rep, nil
}

// overheadRatio runs the named workload's own op loop in alternating
// untraced and traced slices and reports traced p50 over untraced p50,
// and the untraced slices' throughput and CPU per op.
func (l *ladderRun) overheadRatio(o options, spec workloadSpec, seconds float64) error {
	w := spec.new()
	defer w.close()
	if err := w.setup(o.seed, spec.sizing); err != nil {
		return fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	const pairs = 4
	slice := seconds / (2 * pairs)
	ops := l.rec.get(o.workload + ".op")
	var plain, traced, opsPerS, cpuUS []float64
	for i := 0; i < pairs; i++ {
		for _, r := range timedPhase(w, slice, 1, nil) {
			plain = append(plain, r.P50us)
			opsPerS = append(opsPerS, r.OpsPerS)
			cpuUS = append(cpuUS, r.CPUusPerOp)
			l.ops += r.Ops
		}
		for _, r := range timedPhase(w, slice, 1, func(op int64, start time.Time, d time.Duration) {
			ops.add(op, -1, start, d)
		}) {
			traced = append(traced, r.P50us)
			l.ops += r.Ops
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("%s: no op completed in %g s", o.workload, slice)
	}
	w.finish()
	l.fails.count += w.failures().count
	l.fails.msgs = append(l.fails.msgs, w.failures().msgs...)
	l.set("workload.ops_per_s", median(opsPerS))
	l.set("workload.cpu_us_per_op", median(cpuUS))
	l.set("trace.overhead_ratio", median(traced)/median(plain))
	return nil
}
