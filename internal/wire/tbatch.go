package wire

import (
	"fmt"
	"strconv"
)

// This file defines the TBATCH message: one mrnet uplink drain cycle —
// every profile function whose reduced value changed — in a single
// frame. The codec lives in package wire (not mrnet) beside the rest
// of the tool-stream vocabulary (REGISTER, SAMPLE, DONE).

// BatchProfileSample is one profile-function entry (the SAMPLE verb's
// payload) inside a TBATCH frame.
type BatchProfileSample struct {
	Fn     string
	Calls  int64
	TimeUS int64
}

// EncodeTBatch packs one uplink drain cycle into a single TBATCH frame
// (mrnet's tbatch uplink). Without it a reduction node sends one SAMPLE
// frame per changed function per cycle; batching collapses the cycle to
// one frame and one syscall.
//
// Layout: n=<count>, then per item i an o<i> kind code ("f", a profile
// function), k<i> the function name, v<i> its cumulative calls and s<i>
// its cumulative time_us.
func EncodeTBatch(profs []BatchProfileSample) *Message {
	m := NewMessage("TBATCH").SetInt("n", len(profs))
	for i, p := range profs {
		idx := strconv.Itoa(i)
		m.Set("o"+idx, "f")
		m.Set("k"+idx, p.Fn)
		m.Set("v"+idx, strconv.FormatInt(p.Calls, 10))
		m.Set("s"+idx, strconv.FormatInt(p.TimeUS, 10))
	}
	return m
}

// ParseTBatch decodes a TBATCH frame back into its profile samples.
func ParseTBatch(m *Message) ([]BatchProfileSample, error) {
	n, err := strconv.Atoi(m.Get("n"))
	if err != nil || n < 0 || n > len(m.Fields) {
		return nil, fmt.Errorf("wire: tbatch: bad n %q", m.Get("n"))
	}
	profs := make([]BatchProfileSample, 0, n)
	for i := 0; i < n; i++ {
		idx := strconv.Itoa(i)
		if code := m.Get("o" + idx); code != "f" {
			return nil, fmt.Errorf("wire: tbatch item %d: unknown code %q", i, code)
		}
		calls, _ := strconv.ParseInt(m.Get("v"+idx), 10, 64)
		us, _ := strconv.ParseInt(m.Get("s"+idx), 10, 64)
		profs = append(profs, BatchProfileSample{Fn: m.Get("k" + idx), Calls: calls, TimeUS: us})
	}
	return profs, nil
}
