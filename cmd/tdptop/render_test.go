package main

import (
	"strings"
	"testing"
	"time"

	"tdp/internal/telemetry"
)

func TestRenderPoolView(t *testing.T) {
	prev := telemetry.Snapshot{
		Counters: map[string]int64{
			"paradyn.samples.sent": 1000,
		},
	}
	h := telemetry.NewHistogram([]float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	cur := telemetry.Snapshot{
		Counters: map[string]int64{
			"paradyn.samples.sent": 1500,
			"mrnet.poll.stale":     3,
			"mrnet.tree.daemons":   256,
			"mrnet.hosts.down":     2,
		},
		Gauges: map[string]int64{
			"mrnet.tree.depth": 3,
		},
		Histograms: map[string]telemetry.HistogramSnapshot{
			"paradyn.sample.batch_us": h.Snapshot(),
		},
	}

	var b strings.Builder
	render(&b, "mrnet-root", prev, cur, 2*time.Second)
	out := b.String()

	for _, want := range []string{
		"tdptop — mrnet-root",
		"hosts 256 (2 down)",
		"tree depth 3",
		"samples 250/s", // (1500-1000)/2s
		"stale replies 3",
		"paradyn.sample.batch_us",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// The histogram row carries count and quantiles.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "batch_us") {
			if !strings.Contains(line, "100") {
				t.Errorf("hist row missing count: %q", line)
			}
		}
	}
}

func TestRenderFirstFrameNoRates(t *testing.T) {
	cur := telemetry.Snapshot{Counters: map[string]int64{"paradyn.samples.sent": 500}}
	var b strings.Builder
	// elapsed 0 = first frame: rates must render as 0, not NaN/Inf.
	render(&b, "lassd", telemetry.Snapshot{}, cur, 0)
	out := b.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("first frame rendered NaN/Inf:\n%s", out)
	}
	if !strings.Contains(out, "samples 0/s") {
		t.Errorf("first frame rate not zeroed:\n%s", out)
	}
	if !strings.Contains(out, "paradyn.samples.sent") || !strings.Contains(out, "500") {
		t.Errorf("counter table missing:\n%s", out)
	}
}

func TestClip(t *testing.T) {
	if got := clip("short", 10); got != "short" {
		t.Errorf("clip(short) = %q", got)
	}
	long := "very.long.metric.name.with.many.segments"
	got := clip(long, 12)
	if !strings.HasPrefix(got, "…") || !strings.HasSuffix(got, "segments") {
		t.Errorf("clip(long) = %q", got)
	}
}

// TestRenderEmptySnapshot: a frame before any telemetry has arrived
// (fresh daemon, or STATS against a just-started tree) must still
// produce the headline with zeros — no panics on nil maps, no table
// headers for tables with no rows.
func TestRenderEmptySnapshot(t *testing.T) {
	var b strings.Builder
	render(&b, "cassd", telemetry.Snapshot{}, telemetry.Snapshot{}, time.Second)
	out := b.String()
	for _, want := range []string{"tdptop — cassd", "hosts 0 (0 down)", "tree depth 0", "samples 0/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("empty frame missing %q:\n%s", want, out)
		}
	}
	for _, header := range []string{"COUNTER", "GAUGE", "HISTOGRAM"} {
		if strings.Contains(out, header) {
			t.Errorf("empty frame rendered a %s table with no rows:\n%s", header, out)
		}
	}
}

// TestRenderPartialSnapshot: a pool mid-rampup reports some metric
// families and not others (counters but no gauges or histograms, a
// headline metric absent entirely). Only the populated tables render,
// and absent headline metrics read as zero.
func TestRenderPartialSnapshot(t *testing.T) {
	cur := telemetry.Snapshot{
		Counters: map[string]int64{"attr.puts": 12},
		Histograms: map[string]telemetry.HistogramSnapshot{
			"attr.put.lat": {}, // registered but never observed
		},
	}
	var b strings.Builder
	render(&b, "lassd", telemetry.Snapshot{}, cur, time.Second)
	out := b.String()
	if !strings.Contains(out, "COUNTER") || !strings.Contains(out, "attr.puts") {
		t.Errorf("counter table missing:\n%s", out)
	}
	if strings.Contains(out, "GAUGE") {
		t.Errorf("gauge table rendered with no gauges:\n%s", out)
	}
	if !strings.Contains(out, "attr.put.lat") {
		t.Errorf("empty histogram row missing:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("zero-count histogram rendered NaN/Inf:\n%s", out)
	}
	if !strings.Contains(out, "hosts 0 (0 down)") {
		t.Errorf("absent headline metrics not zeroed:\n%s", out)
	}
}

// TestRenderStaleSnapshot: after a daemon restart the cumulative
// counters reset, so cur can be below prev; and prev can hold streams
// cur no longer reports. Deltas go negative for one frame — that is
// honest and must render as a plain negative rate, never NaN/Inf or a
// panic, and vanished streams simply drop from the tables.
func TestRenderStaleSnapshot(t *testing.T) {
	prev := telemetry.Snapshot{
		Counters: map[string]int64{
			"paradyn.samples.sent": 100000,
			"vanished.counter":     77,
		},
	}
	cur := telemetry.Snapshot{
		Counters: map[string]int64{"paradyn.samples.sent": 40},
	}
	var b strings.Builder
	render(&b, "paradynd", prev, cur, 2*time.Second)
	out := b.String()
	if !strings.Contains(out, "samples -49980/s") {
		t.Errorf("reset counter must show its negative delta:\n%s", out)
	}
	if strings.Contains(out, "vanished.counter") {
		t.Errorf("stream gone from cur still rendered:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("stale frame rendered NaN/Inf:\n%s", out)
	}
}
