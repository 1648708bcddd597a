package wire

import (
	"encoding/json"
	"fmt"
	"strconv"

	"tdp/internal/telemetry"
)

// This file defines the TSAMPLE message: one telemetry-metric update
// on a monitoring stream. Daemons publish their (daemon-local)
// registry as TSAMPLE streams toward the tool front-end; mrnet
// reduction nodes apply a per-kind aggregation filter in the tree —
// counters sum, gauges take last or max, histograms merge — so the
// front-end's socket loop sees one message per stream per flush
// instead of one per daemon. The codec lives in package wire (not
// mrnet) because both ends of the paradyn protocol speak it and
// paradyn cannot import mrnet without a cycle.
//
// Shape on the wire:
//
//	TSAMPLE kind=counter|gauge|gaugemax|hist name=<metric>
//	        value=<int64>            (counter/gauge/gaugemax)
//	        json=<HistogramSnapshot> (hist)
//
// Values are cumulative latest-value semantics, like SAMPLE: a
// publisher re-sends the current value, never a delta, so repeated or
// replayed samples cannot double-count and a reconnect resynchronizes
// by re-publishing everything.

// Telemetry stream kinds: the aggregation filter a reduction node
// applies across children for this stream.
const (
	KindCounter  = "counter"  // sum of children's latest values
	KindGauge    = "gauge"    // most recently updated child's value
	KindGaugeMax = "gaugemax" // maximum across children's latest values
	KindHist     = "hist"     // bucket-wise histogram merge
)

// TelemetrySample is the decoded form of one TSAMPLE message.
type TelemetrySample struct {
	Kind  string
	Name  string
	Value int64                       // counter/gauge/gaugemax kinds
	Hist  telemetry.HistogramSnapshot // hist kind
}

// Message encodes the sample as a TSAMPLE wire message.
func (ts TelemetrySample) Message() (*Message, error) {
	m := NewMessage("TSAMPLE").Set("kind", ts.Kind).Set("name", ts.Name)
	if ts.Kind == KindHist {
		data, err := json.Marshal(ts.Hist)
		if err != nil {
			return nil, fmt.Errorf("wire: encode tsample %q: %w", ts.Name, err)
		}
		m.Set("json", string(data))
		return m, nil
	}
	m.Set("value", strconv.FormatInt(ts.Value, 10))
	return m, nil
}

// ParseTSample decodes a TSAMPLE message.
func ParseTSample(m *Message) (TelemetrySample, error) {
	ts := TelemetrySample{Kind: m.Get("kind"), Name: m.Get("name")}
	if ts.Name == "" {
		return ts, fmt.Errorf("wire: tsample without name")
	}
	switch ts.Kind {
	case KindCounter, KindGauge, KindGaugeMax:
		v, err := strconv.ParseInt(m.Get("value"), 10, 64)
		if err != nil {
			return ts, fmt.Errorf("wire: tsample %q: bad value %q", ts.Name, m.Get("value"))
		}
		ts.Value = v
	case KindHist:
		if err := json.Unmarshal([]byte(m.Get("json")), &ts.Hist); err != nil {
			return ts, fmt.Errorf("wire: tsample %q: bad histogram: %w", ts.Name, err)
		}
	default:
		return ts, fmt.Errorf("wire: tsample %q: unknown kind %q", ts.Name, ts.Kind)
	}
	return ts, nil
}

// BatchProfileSample is one profile-function entry (the SAMPLE verb's
// payload) inside a TBATCH frame.
type BatchProfileSample struct {
	Fn     string
	Calls  int64
	TimeUS int64
}

// EncodeTBatch packs one uplink drain cycle — every dirty profile
// function plus every dirty telemetry stream — into a single TBATCH
// frame (mrnet's tbatch capability). Without it a reduction node sends
// one frame per dirty stream per cycle, and with self-published
// registry diffs keeping several streams perpetually dirty that means
// ~6 small frames per child per millisecond at the tree's upper
// levels; batching collapses the cycle to one frame and one syscall.
//
// Layout: n=<count>, then per item i an o<i> kind code ("f" profile,
// "c" counter, "g" gauge, "m" gaugemax, "h" hist), k<i> the fn/metric
// name, v<i> the calls/value (hist: the HistogramSnapshot JSON), and
// for profile items s<i> the cumulative time_us.
func EncodeTBatch(profs []BatchProfileSample, tels []TelemetrySample) (*Message, error) {
	m := NewMessage("TBATCH").SetInt("n", len(profs)+len(tels))
	i := 0
	for _, p := range profs {
		idx := strconv.Itoa(i)
		m.Set("o"+idx, "f")
		m.Set("k"+idx, p.Fn)
		m.Set("v"+idx, strconv.FormatInt(p.Calls, 10))
		m.Set("s"+idx, strconv.FormatInt(p.TimeUS, 10))
		i++
	}
	for _, ts := range tels {
		idx := strconv.Itoa(i)
		switch ts.Kind {
		case KindCounter:
			m.Set("o"+idx, "c")
		case KindGauge:
			m.Set("o"+idx, "g")
		case KindGaugeMax:
			m.Set("o"+idx, "m")
		case KindHist:
			m.Set("o"+idx, "h")
		default:
			return nil, fmt.Errorf("wire: tbatch: unknown kind %q", ts.Kind)
		}
		m.Set("k"+idx, ts.Name)
		if ts.Kind == KindHist {
			data, err := json.Marshal(ts.Hist)
			if err != nil {
				return nil, fmt.Errorf("wire: tbatch %q: %w", ts.Name, err)
			}
			m.Set("v"+idx, string(data))
		} else {
			m.Set("v"+idx, strconv.FormatInt(ts.Value, 10))
		}
		i++
	}
	return m, nil
}

// ParseTBatch decodes a TBATCH frame back into its profile and
// telemetry samples.
func ParseTBatch(m *Message) ([]BatchProfileSample, []TelemetrySample, error) {
	n, err := strconv.Atoi(m.Get("n"))
	if err != nil || n < 0 || n > len(m.Fields) {
		return nil, nil, fmt.Errorf("wire: tbatch: bad n %q", m.Get("n"))
	}
	var profs []BatchProfileSample
	var tels []TelemetrySample
	for i := 0; i < n; i++ {
		idx := strconv.Itoa(i)
		name := m.Get("k" + idx)
		switch code := m.Get("o" + idx); code {
		case "f":
			calls, _ := strconv.ParseInt(m.Get("v"+idx), 10, 64)
			us, _ := strconv.ParseInt(m.Get("s"+idx), 10, 64)
			profs = append(profs, BatchProfileSample{Fn: name, Calls: calls, TimeUS: us})
		case "c", "g", "m":
			v, perr := strconv.ParseInt(m.Get("v"+idx), 10, 64)
			if perr != nil {
				return nil, nil, fmt.Errorf("wire: tbatch %q: bad value %q", name, m.Get("v"+idx))
			}
			kind := KindCounter
			if code == "g" {
				kind = KindGauge
			} else if code == "m" {
				kind = KindGaugeMax
			}
			tels = append(tels, TelemetrySample{Kind: kind, Name: name, Value: v})
		case "h":
			ts := TelemetrySample{Kind: KindHist, Name: name}
			if jerr := json.Unmarshal([]byte(m.Get("v"+idx)), &ts.Hist); jerr != nil {
				return nil, nil, fmt.Errorf("wire: tbatch %q: bad histogram: %w", name, jerr)
			}
			tels = append(tels, ts)
		default:
			return nil, nil, fmt.Errorf("wire: tbatch item %d: unknown code %q", i, code)
		}
	}
	return profs, tels, nil
}

// AppendSnapshotSamples converts a registry snapshot (typically a
// SnapshotDiff since the last publication) into TSAMPLE samples,
// appended to dst. Counters become counter streams, gauges gaugemax
// streams (the pool rollup keeps the high-water mark), histograms
// hist streams. This is the publisher half every daemon shares;
// reduction nodes and the front-end hold the consumer half.
func AppendSnapshotSamples(dst []TelemetrySample, snap telemetry.Snapshot) []TelemetrySample {
	for name, v := range snap.Counters {
		dst = append(dst, TelemetrySample{Kind: KindCounter, Name: name, Value: v})
	}
	for name, v := range snap.Gauges {
		dst = append(dst, TelemetrySample{Kind: KindGaugeMax, Name: name, Value: v})
	}
	for name, h := range snap.Histograms {
		dst = append(dst, TelemetrySample{Kind: KindHist, Name: name, Hist: h})
	}
	return dst
}
