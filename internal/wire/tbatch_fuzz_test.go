package wire

import (
	"reflect"
	"testing"
)

// FuzzTBatch hammers the TBATCH codec from the field side: a frame
// with an arbitrary count and arbitrary fields for its first item must
// never panic ParseTBatch, and a batch it accepts must round-trip
// stably through EncodeTBatch — what a parent node relies on when it
// folds a child's batch into its own next one.
func FuzzTBatch(f *testing.F) {
	f.Add("1", "f", "compute_forces", "20", "70000")
	f.Add("0", "", "", "", "")
	f.Add("1", "f", "", "", "")
	f.Add("1", "f", "io", "not-a-number", "-1")
	f.Add("1", "c", "app.ops", "3", "")
	f.Add("1", "h", "lat", `{"count":1}`, "")
	f.Add("2", "f", "io", "1", "1")
	f.Add("-1", "f", "io", "1", "1")
	f.Add("x", "f", "io", "1", "1")
	f.Add("1", "f", "io", "9223372036854775807", "-9223372036854775808")
	f.Fuzz(func(t *testing.T, n, code, fn, calls, us string) {
		m := NewMessage("TBATCH").Set("n", n).Set("o0", code).Set("k0", fn).Set("v0", calls).Set("s0", us)
		profs, err := ParseTBatch(m)
		if err != nil {
			return
		}
		again, err := ParseTBatch(EncodeTBatch(profs))
		if err != nil {
			t.Fatalf("re-encoded batch does not re-parse: %v", err)
		}
		if len(profs) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(again, profs) {
			t.Fatalf("unstable round trip:\n  first  %+v\n  second %+v", profs, again)
		}
	})
}
