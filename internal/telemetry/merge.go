package telemetry

import (
	"math"
	"sort"
)

// This file implements snapshot merging — the arithmetic behind the
// pool observability plane. An mrnet reduction node, the paradyn
// front-end and any daemon answering `STATS scope=tree` fold their
// children's registry snapshots into one picture of the whole subtree;
// the filters are the classic reduction-network set:
//
//   - counters sum: each child's count is a disjoint share of the
//     pool total (per-daemon registries, not the shared process one);
//   - gauges take the maximum: a gauge is a level, and the pool-wide
//     high-water mark (deepest queue, tallest backlog) is the value a
//     monitor acts on — summing levels with per-host meaning would
//     manufacture a number no host ever saw;
//   - histograms merge bucket-wise, so pool-wide quantiles come from
//     real per-host observations rather than averaged averages.

// EqualBounds reports whether two bucket layouts are identical.
func EqualBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge folds a snapshot's observations into the live histogram.
// Aligned bucket bounds add element-wise; a snapshot with different
// bounds is re-bucketed conservatively — each foreign bucket's count
// lands in the first bucket of h whose upper bound is >= the foreign
// upper bound (values can only move to a coarser bucket, never a
// finer one, so quantile estimates err high rather than inventing
// precision). Count and Sum always add exactly.
func (h *Histogram) Merge(s HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	aligned := EqualBounds(h.bounds, s.Bounds)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		idx := i
		if !aligned {
			if i < len(s.Bounds) {
				idx = sort.SearchFloat64s(h.bounds, s.Bounds[i])
			} else {
				idx = len(h.bounds)
			}
		}
		if idx >= len(h.counts) {
			idx = len(h.counts) - 1
		}
		h.counts[idx].Add(c)
	}
	h.count.Add(s.Count)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + s.Sum)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Merge combines two histogram snapshots into a new one; neither
// input is mutated. An empty side (no bounds, no counts) yields a
// copy of the other, so the zero HistogramSnapshot is a valid merge
// identity. Aligned bounds add element-wise; otherwise o is
// re-bucketed into s's layout the same conservative way
// Histogram.Merge does.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Bounds) == 0 && s.Count == 0 {
		return o.clone()
	}
	if len(o.Bounds) == 0 && o.Count == 0 {
		return s.clone()
	}
	out := s.clone()
	if EqualBounds(out.Bounds, o.Bounds) {
		for i, c := range o.Counts {
			if i < len(out.Counts) {
				out.Counts[i] += c
			}
		}
	} else {
		for i, c := range o.Counts {
			if c == 0 {
				continue
			}
			idx := len(out.Bounds) // +Inf by default
			if i < len(o.Bounds) {
				idx = sort.SearchFloat64s(out.Bounds, o.Bounds[i])
			}
			if idx >= len(out.Counts) {
				idx = len(out.Counts) - 1
			}
			out.Counts[idx] += c
		}
	}
	out.Count += o.Count
	out.Sum += o.Sum
	return out
}

func (s HistogramSnapshot) clone() HistogramSnapshot {
	out := s
	out.Counts = make([]int64, len(s.Counts))
	copy(out.Counts, s.Counts)
	// Bounds are immutable by convention (Histogram shares them too).
	return out
}

// MergeSnapshots folds any number of registry snapshots into one:
// counters sum, gauges take the maximum, histograms merge bucket-wise
// (see the file comment for why). It is the aggregation function of
// the `STATS scope=tree` rollup; parts must come from disjoint
// registries (one per daemon) or counters will double-count.
func MergeSnapshots(parts ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, p := range parts {
		for k, v := range p.Counters {
			out.Counters[k] += v
		}
		for k, v := range p.Gauges {
			if cur, ok := out.Gauges[k]; !ok || v > cur {
				out.Gauges[k] = v
			}
		}
		for k, h := range p.Histograms {
			out.Histograms[k] = out.Histograms[k].Merge(h)
		}
	}
	return out
}
