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
	"cmp"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
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
	stats   map[string]FuncStats
	entries map[string]int64 // entry CPU times (µs) for inclusive timing
}

// NewMetrics returns an empty metric store.
func NewMetrics() *Metrics {
	return &Metrics{
		stats:   make(map[string]FuncStats),
		entries: make(map[string]int64),
	}
}

// OnEntry records a function entry at the given CPU time (µs).
func (m *Metrics) OnEntry(fn string, now int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats[fn]
	s.Calls++
	m.stats[fn] = s
	m.entries[fn] = now
}

// OnExit records a function exit at the given CPU time (µs),
// accumulating inclusive time.
func (m *Metrics) OnExit(fn string, now int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t0, ok := m.entries[fn]; ok {
		delete(m.entries, fn)
		if s, ok := m.stats[fn]; ok {
			s.TimeMicros += now - t0
			m.stats[fn] = s
		}
	}
}

// Snapshot copies the current statistics.
func (m *Metrics) Snapshot() map[string]FuncStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.stats)
}

// Bottleneck finds the function with the largest share of inclusive
// time, excluding the given roots (normally "main", whose inclusive
// time covers everything). It returns the function, its share of the
// non-root total, and false when no data exists. This is the flat core
// of the Performance Consultant's search.
func Bottleneck(stats map[string]FuncStats, exclude ...string) (fn string, share float64, ok bool) {
	var total, best int64
	var bestFn string
	for name, s := range stats {
		if slices.Contains(exclude, name) {
			continue
		}
		t := s.TimeMicros
		total += t
		if t > best || t == best && t > 0 && name < bestFn { // a tie goes to the first name
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
	return string(AppendTable(make([]byte, 0, tableSize(stats)), stats))
}

// tableHeader is the table's first line: the column names laid out as
// each row's "%-24s %10d %12d %6.1f%%" lays out its values.
const tableHeader = "FUNCTION                      CALLS     TIME(us)   SHARE\n"

// tableSize is a capacity that holds the table of stats when names are
// shorter than 32 bytes.
func tableSize(stats map[string]FuncStats) int { return 64 * (len(stats) + 1) }

// AppendTable appends FormatTable's text to b, without fmt: one row per
// function, name left-aligned in 24 columns (counted in runes, as fmt
// counts them), calls, time and share right-aligned in 10, 12 and 6.
func AppendTable(b []byte, stats map[string]FuncStats) []byte {
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
	slices.SortFunc(rows, func(x, y row) int {
		if c := cmp.Compare(y.s.TimeMicros, x.s.TimeMicros); c != 0 {
			return c
		}
		return strings.Compare(x.name, y.name)
	})
	b = append(b, tableHeader...)
	var num [32]byte
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = float64(r.s.TimeMicros) / float64(total)
		}
		b = append(b, r.name...)
		b = appendSpaces(b, 24-utf8.RuneCountInString(r.name))
		b = append(b, ' ')
		b = appendRight(b, strconv.AppendInt(num[:0], r.s.Calls, 10), 10)
		b = append(b, ' ')
		b = appendRight(b, strconv.AppendInt(num[:0], r.s.TimeMicros, 10), 12)
		b = append(b, ' ')
		b = appendRight(b, strconv.AppendFloat(num[:0], share*100, 'f', 1, 64), 6)
		b = append(b, "%\n"...)
	}
	return b
}

// appendRight appends the ASCII field s right-aligned in width columns.
func appendRight(b, s []byte, width int) []byte {
	return append(appendSpaces(b, width-len(s)), s...)
}

// appendSpaces appends n spaces; none when n is not positive.
func appendSpaces(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
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
