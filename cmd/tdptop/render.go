package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tdp/internal/telemetry"
)

// render writes one frame of the pool view: the headline (hosts, tree
// depth, sample rate, late replies) followed by counter, gauge, and
// histogram tables. prev is the previous poll's snapshot
// (zero on the first frame), elapsed the time between the two — rates
// are per-second deltas. Pure function of its inputs, so the display
// logic is testable without a server.
func render(w io.Writer, daemon string, prev, cur telemetry.Snapshot, elapsed time.Duration) {
	rate := func(name string) float64 {
		if elapsed <= 0 {
			return 0
		}
		return float64(cur.Counters[name]-prev.Counters[name]) / elapsed.Seconds()
	}

	fmt.Fprintf(w, "tdptop — %s\n", daemon)
	fmt.Fprintf(w, "hosts %d (%d down)   tree depth %d   samples %.0f/s   stale replies %d\n\n",
		cur.Counters["mrnet.tree.daemons"], cur.Counters["mrnet.hosts.down"],
		cur.Gauges["mrnet.tree.depth"], rate("paradyn.samples.sent"),
		cur.Counters["mrnet.poll.stale"])

	if len(cur.Counters) > 0 {
		fmt.Fprintf(w, "%-44s %14s %10s\n", "COUNTER", "VALUE", "RATE/S")
		for _, name := range sortedKeys(cur.Counters) {
			fmt.Fprintf(w, "%-44s %14d %10.0f\n", clip(name, 44), cur.Counters[name], rate(name))
		}
		fmt.Fprintln(w)
	}
	if len(cur.Gauges) > 0 {
		fmt.Fprintf(w, "%-44s %14s\n", "GAUGE", "VALUE")
		for _, name := range sortedKeys(cur.Gauges) {
			fmt.Fprintf(w, "%-44s %14d\n", clip(name, 44), cur.Gauges[name])
		}
		fmt.Fprintln(w)
	}
	if len(cur.Histograms) > 0 {
		fmt.Fprintf(w, "%-44s %10s %10s %10s\n", "HISTOGRAM", "COUNT", "P50", "P99")
		names := make([]string, 0, len(cur.Histograms))
		for name := range cur.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := cur.Histograms[name]
			fmt.Fprintf(w, "%-44s %10d %10.3g %10.3g\n",
				clip(name, 44), h.Count, h.Quantile(0.5), h.Quantile(0.99))
		}
	}
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// clip shortens a metric name from the left (the suffix is the
// discriminating part) so table columns stay aligned.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n+1:]
}
