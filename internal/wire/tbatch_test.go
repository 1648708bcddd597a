package wire

import (
	"reflect"
	"testing"
)

func TestTBatchRoundTrip(t *testing.T) {
	profs := []BatchProfileSample{
		{Fn: "compute_forces", Calls: 20, TimeUS: 70000},
		{Fn: "host_down", Calls: 1},
	}
	m := EncodeTBatch(profs)
	if m.Verb != "TBATCH" {
		t.Fatalf("verb = %q", m.Verb)
	}
	decoded, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseTBatch(decoded)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got, profs) {
		t.Errorf("round trip = %+v, want %+v", got, profs)
	}
	if empty, err := ParseTBatch(EncodeTBatch(nil)); err != nil || len(empty) != 0 {
		t.Errorf("empty batch = %v, %v", empty, err)
	}
}

func TestTBatchParseErrors(t *testing.T) {
	cases := []*Message{
		NewMessage("TBATCH"),                // no n
		NewMessage("TBATCH").Set("n", "-1"), // negative n
		NewMessage("TBATCH").Set("n", "5"),  // n beyond the fields present
		NewMessage("TBATCH").Set("n", "1").Set("o0", "c").Set("k0", "ops").Set("v0", "3"), // a telemetry code
	}
	for i, m := range cases {
		if _, err := ParseTBatch(m); err == nil {
			t.Errorf("case %d: no error for %s", i, m)
		}
	}
}
