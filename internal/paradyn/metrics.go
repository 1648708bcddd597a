// Package paradyn implements a miniature of the Paradyn Parallel
// Performance Tool (paper §4.2): a front-end process that users
// interact with, and per-host daemons (paradynd) that attach to
// application processes, insert dynamic instrumentation (counters and
// timers at function entry/exit — the Dyninst role), stream metric
// samples to the front-end, and support a simplified Performance
// Consultant that searches for the dominant bottleneck.
//
// The daemon is written against the TDP library only: it learns the
// application pid from the attribute space, attaches with tdp_attach,
// instruments while the process is still paused, reports readiness,
// and continues the process — exactly the §4.3 create-mode flow. The
// same daemon works in attach mode (already-running application)
// because tdp_attach pauses a running process first.
package paradyn

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// FuncStats is the instrumentation record for one function.
type FuncStats struct {
	Calls      int64
	TimeMicros int64 // cumulative inclusive time
}

// Metrics accumulates per-function statistics inside a daemon. Probe
// callbacks run on the application's goroutine; the daemon samples
// from its own, so access is locked. Time is the application's
// simulated CPU time (procsim.ProcContext.CPUMicros), which the probes
// pass in, so a profile does not move with the host's load.
type Metrics struct {
	mu      sync.Mutex
	stats   map[string]*FuncStats
	entries map[string]int64 // entry CPU times (µs) for inclusive timing
}

// NewMetrics returns an empty metric store.
func NewMetrics() *Metrics {
	return &Metrics{
		stats:   make(map[string]*FuncStats),
		entries: make(map[string]int64),
	}
}

// OnEntry records a function entry at the given CPU time (µs).
func (m *Metrics) OnEntry(fn string, now int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats[fn]
	if s == nil {
		s = &FuncStats{}
		m.stats[fn] = s
	}
	s.Calls++
	m.entries[fn] = now
}

// OnExit records a function exit at the given CPU time (µs),
// accumulating inclusive time.
func (m *Metrics) OnExit(fn string, now int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t0, ok := m.entries[fn]; ok {
		delete(m.entries, fn)
		if s := m.stats[fn]; s != nil {
			s.TimeMicros += now - t0
		}
	}
}

// Snapshot copies the current statistics.
func (m *Metrics) Snapshot() map[string]FuncStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]FuncStats, len(m.stats))
	for k, v := range m.stats {
		out[k] = *v
	}
	return out
}

// Bottleneck finds the function with the largest share of inclusive
// time, excluding the given roots (normally "main", whose inclusive
// time covers everything). It returns the function, its share of the
// non-root total, and false when no data exists. This is the flat core
// of the Performance Consultant's search.
func Bottleneck(stats map[string]FuncStats, exclude ...string) (fn string, share float64, ok bool) {
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	var total, best int64
	var bestFn string
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic tie-break
	for _, name := range names {
		if skip[name] {
			continue
		}
		t := stats[name].TimeMicros
		total += t
		if t > best {
			best, bestFn = t, name
		}
	}
	if total == 0 || bestFn == "" {
		return "", 0, false
	}
	return bestFn, float64(best) / float64(total), true
}

// FormatTable renders the statistics as the front-end's "histogram"
// display, sorted by time descending.
func FormatTable(stats map[string]FuncStats) string {
	type row struct {
		name string
		s    FuncStats
	}
	rows := make([]row, 0, len(stats))
	var total int64
	for name, s := range stats {
		rows = append(rows, row{name, s})
		total += s.TimeMicros
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].s.TimeMicros != rows[j].s.TimeMicros {
			return rows[i].s.TimeMicros > rows[j].s.TimeMicros
		}
		return rows[i].name < rows[j].name
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %10s %12s %7s\n", "FUNCTION", "CALLS", "TIME(us)", "SHARE")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = float64(r.s.TimeMicros) / float64(total)
		}
		fmt.Fprintf(&sb, "%-24s %10d %12d %6.1f%%\n", r.name, r.s.Calls, r.s.TimeMicros, share*100)
	}
	return sb.String()
}

// Merge combines per-daemon statistics (e.g. across MPI ranks).
func Merge(all ...map[string]FuncStats) map[string]FuncStats {
	out := make(map[string]FuncStats)
	for _, m := range all {
		for k, v := range m {
			s := out[k]
			s.Calls += v.Calls
			s.TimeMicros += v.TimeMicros
			out[k] = s
		}
	}
	return out
}
