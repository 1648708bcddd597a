package telemetry

import (
	"math"
	"testing"
)

func TestHistogramSnapshotMergeAligned(t *testing.T) {
	a := NewHistogram([]float64{1, 2, 4})
	b := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 10} {
		a.Observe(v)
	}
	for _, v := range []float64{0.25, 5} {
		b.Observe(v)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 6 {
		t.Errorf("Count = %d, want 6", m.Count)
	}
	if want := 0.5 + 1.5 + 3 + 10 + 0.25 + 5; math.Abs(m.Sum-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", m.Sum, want)
	}
	// Buckets: <=1: 0.5, 0.25 -> 2; <=2: 1.5 -> 1; <=4: 3 -> 1; +Inf: 10, 5 -> 2.
	want := []int64{2, 1, 1, 2}
	for i, c := range want {
		if m.Counts[i] != c {
			t.Errorf("Counts[%d] = %d, want %d (%v)", i, m.Counts[i], c, m.Counts)
		}
	}
	// Inputs unmutated.
	if a.Count() != 4 || b.Count() != 2 {
		t.Errorf("inputs mutated: %d, %d", a.Count(), b.Count())
	}
}

func TestHistogramSnapshotMergeMisalignedRebuckets(t *testing.T) {
	a := NewHistogram([]float64{1, 10})
	b := NewHistogram([]float64{0.5, 2, 10})
	b.Observe(0.4) // b bucket le=0.5 -> a bucket le=1
	b.Observe(1.5) // b bucket le=2   -> a bucket le=10 (coarser, conservative)
	b.Observe(7)   // b bucket le=10  -> a bucket le=10
	b.Observe(99)  // b +Inf          -> a +Inf
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 4 {
		t.Errorf("Count = %d, want 4", m.Count)
	}
	if got := []int64{m.Counts[0], m.Counts[1], m.Counts[2]}; got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("Counts = %v, want [1 2 1]", got)
	}
	if !EqualBounds(m.Bounds, a.Bounds()) {
		t.Errorf("merge changed bounds: %v", m.Bounds)
	}
}

func TestHistogramSnapshotMergeZeroIdentity(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	var zero HistogramSnapshot
	left := zero.Merge(h.Snapshot())
	right := h.Snapshot().Merge(zero)
	for _, m := range []HistogramSnapshot{left, right} {
		if m.Count != 1 || len(m.Counts) != 2 || m.Counts[0] != 1 {
			t.Errorf("identity merge = %+v", m)
		}
	}
}

func TestLiveHistogramMerge(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	src := NewHistogram([]float64{1, 10})
	src.Observe(5)
	src.Observe(100)
	h.Merge(src.Snapshot())
	s := h.Snapshot()
	if s.Count != 3 {
		t.Errorf("Count = %d, want 3", s.Count)
	}
	if math.Abs(s.Sum-105.5) > 1e-9 {
		t.Errorf("Sum = %v, want 105.5", s.Sum)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Errorf("Counts = %v", s.Counts)
	}

	// Misaligned source re-buckets conservatively.
	odd := NewHistogram([]float64{0.2, 3})
	odd.Observe(2) // le=3 -> h's le=10
	h.Merge(odd.Snapshot())
	if s := h.Snapshot(); s.Counts[1] != 2 || s.Count != 4 {
		t.Errorf("after misaligned merge: %+v", s)
	}
}

func TestMergeSnapshots(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("ops").Add(10)
	r2.Counter("ops").Add(32)
	r2.Counter("only2").Add(5)
	r1.Gauge("depth").Set(3)
	r2.Gauge("depth").Set(9)
	r1.Histogram("lat", []float64{1}).Observe(0.5)
	r2.Histogram("lat", []float64{1}).Observe(2)

	m := MergeSnapshots(r1.Snapshot(), r2.Snapshot())
	if m.Counters["ops"] != 42 {
		t.Errorf("ops = %d, want 42 (sum)", m.Counters["ops"])
	}
	if m.Counters["only2"] != 5 {
		t.Errorf("only2 = %d", m.Counters["only2"])
	}
	if m.Gauges["depth"] != 9 {
		t.Errorf("depth = %d, want 9 (max)", m.Gauges["depth"])
	}
	if h := m.Histograms["lat"]; h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("lat = %+v", m.Histograms["lat"])
	}
}
