package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one generated op share Op across rungs; Parent is
// the ID of the span the call was made under, -1 for a rung's own call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// keepPerSeries bounds the spans written out per name; every duration
// is kept for the statistics regardless.
const keepPerSeries = 2000

// recorder is the traced run's in-memory span log. It is used from the
// driving goroutine only.
type recorder struct {
	t0     time.Time
	spans  []span
	series map[string]*series
	nextID int32
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), series: map[string]*series{}}
}

// series is every duration recorded under one span name, indexed by the
// order of recording, so two rungs that replay the same ops can be
// differenced op by op.
type series struct {
	rec  *recorder
	name string
	ns   []int32
	kept int
}

func (r *recorder) get(name string) *series {
	s := r.series[name]
	if s == nil {
		s = &series{rec: r, name: name}
		r.series[name] = s
	}
	return s
}

// newID reserves a span ID, for a call whose children are recorded
// before it is.
func (r *recorder) newID() int32 {
	r.nextID++
	return r.nextID - 1
}

// add records one call and returns its span ID for children to name as
// parent.
func (s *series) add(op int64, parent int32, start time.Time, d time.Duration) int32 {
	return s.addAs(s.rec.newID(), op, parent, start, d)
}

// addAs is add under an ID reserved earlier with newID.
func (s *series) addAs(id int32, op int64, parent int32, start time.Time, d time.Duration) int32 {
	s.ns = append(s.ns, int32(min(d, 1<<31-1)))
	r := s.rec
	if s.kept < keepPerSeries {
		s.kept++
		from := start.Sub(r.t0).Nanoseconds()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: s.name, Start: from, End: from + d.Nanoseconds()})
	}
	return id
}

// p50us is the median duration in µs.
func (s *series) p50us() float64 { return medianNS(s.ns) / 1e3 }

// p50ns is the median duration in ns.
func (s *series) p50ns() float64 { return medianNS(s.ns) }

func (r *recorder) write(dir string, run runRecord) error {
	data, err := json.Marshal(struct {
		Run   runRecord `json:"run"`
		Note  string    `json:"note"`
		Spans []span    `json:"spans"`
	}{run, "first spans of each name; the per-layer metrics use every recorded duration", r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+run.Workload+".json"), append(data, '\n'), 0o644)
}

// pairedMedianUS is the median over ops of upper[i] minus the sum of
// the lower rungs' [i], in µs: what the upper rung costs beyond the
// rungs beneath it, on the same ops. Series must be equally long.
func pairedMedianUS(upper *series, lower ...*series) float64 {
	n := len(upper.ns)
	for _, l := range lower {
		n = min(n, len(l.ns))
	}
	diff := make([]int32, n)
	for i := range diff {
		d := upper.ns[i]
		for _, l := range lower {
			d -= l.ns[i]
		}
		diff[i] = d
	}
	return medianNS(diff) / 1e3
}
