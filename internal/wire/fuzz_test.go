package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

// FuzzDecode is the native fuzz target wired into the CI smoke run
// (`make fuzz`): Decode must never panic, and anything it accepts must
// round-trip stably through Encode, AppendEncode (the unsorted
// hot-path encoder), and DecodeInto (the reusing decoder).
func FuzzDecode(f *testing.F) {
	f.Add([]byte(""))
	f.Add(NewMessage("PUT").Set("attr", "pid").Set("value", "1234").Encode())
	f.Add(NewMessage("STATS").SetTrace("aaaabbbbccccdddd", "0123456789abcdef").Encode())
	f.Add([]byte("3:PUT2;4:attr3:pid"))
	// Hot-path seeds: batched puts, hot-path encoder output, hostile counts.
	f.Add(NewMessage("MPUT").SetInt("n", 2).
		Set("k0", "pid").Set("v0", "1234").
		Set("k1", "executable_name").Set("v1", "science").Encode())
	f.Add(NewMessage("MPUT").SetInt("n", -3).Set("k0", "a").Encode())
	f.Add(NewMessage("EVENT").Set("attr", "a").Set("op", "put").Set("seq", "7").AppendEncode(nil))
	f.Add([]byte("3:PUT999999999;4:attr3:pid")) // count far past payload
	f.Add([]byte("3:PUT0;"))
	// Snapshot seeds: a versioned request, a versioned snapshot, and a
	// chunked snapshot part.
	f.Add(NewMessage("SNAP").Set("id", "7").Set("seqs", "1").Encode())
	f.Add(NewMessage("SNAPV").SetInt("n", 2).SetInt("seq", 44).
		Set("k0", "pid").Set("v0", "1").Set("s0", "43").
		Set("k1", "host").Set("v1", "n1").Set("s1", "44").Encode())
	f.Add(NewMessage("SNAPV").SetInt("part", 3).SetInt("more", 1).
		Set("k0", "a").Set("v0", "b").Set("s0", "9").Encode())
	f.Add(NewMessage("HELLO").Set("context", "g").Set("rev", "1").Set("shm", "1").Encode())
	// Messages between the requests and replies: a loss marker, a drain
	// announcement, a failed promotion, a liveness probe.
	f.Add(NewMessage("EVENT").Set("op", "lost").Set("lost", "3").Encode())
	f.Add(NewMessage("CLOSE").Set("reason", "drain").Encode())
	f.Add(NewMessage("SHMRDY").Set("id", "9").Set("error", "open: no such file").Encode())
	f.Add(NewMessage("PING").Set("id", "1").AppendEncode(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Decode(payload)
		if err != nil {
			return
		}
		again, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("accepted payload does not re-decode: %v", err)
		}
		if again.Verb != m.Verb || !reflect.DeepEqual(again.Fields, m.Fields) {
			t.Fatalf("unstable round trip: %v vs %v", m, again)
		}
		// The hot-path pair must agree with the deterministic pair.
		reused := new(Message)
		if err := DecodeInto(reused, m.AppendEncode(nil)); err != nil {
			t.Fatalf("AppendEncode output does not DecodeInto: %v", err)
		}
		if reused.Verb != m.Verb || !reflect.DeepEqual(reused.Fields, m.Fields) {
			t.Fatalf("hot-path round trip disagrees: %v vs %v", m, reused)
		}
		if m.EncodedSize() != len(m.Encode()) {
			t.Fatalf("EncodedSize %d != len(Encode) %d", m.EncodedSize(), len(m.Encode()))
		}
	})
}

// FuzzRecvView holds the view receive to the copying one: every
// input, framed, is received by RecvView and decoded by DecodeInto, and
// both must accept or refuse it together and agree on what they
// accepted — the view as received, and kept once a second frame has
// overwritten the read buffer it pointed into.
func FuzzRecvView(f *testing.F) {
	for _, m := range viewCases() {
		f.Add(m.AppendEncode(nil))
	}
	f.Add([]byte("3:PUT999999999;4:attr3:pid"))
	f.Add([]byte("2:OK2;2:id1:72:seq"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		want := new(Message)
		wantErr := DecodeInto(want, payload)
		var stream bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		stream.Write(hdr[:])
		stream.Write(payload)
		stream.Write(hdr[:])
		stream.Write(bytes.Repeat([]byte{'#'}, len(payload))) // overwrites the first frame's bytes
		c := NewConn(&stream)
		got := new(Message)
		gotErr := c.RecvView(got, always)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("RecvView error %v, DecodeInto error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.Verb != want.Verb || !reflect.DeepEqual(got.Fields, want.Fields) {
			t.Fatalf("view %v, copy %v", got, want)
		}
		c.Keep(got)
		c.RecvView(new(Message), always)
		if got.Verb != want.Verb || !reflect.DeepEqual(got.Fields, want.Fields) {
			t.Fatalf("kept view after the next frame %v, copy %v", got, want)
		}
	})
}

// TestDecodeNeverPanics feeds arbitrary bytes to the decoder: it must
// return a message or an error, never panic — the server's first line
// of defense against corrupt or hostile peers.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(payload []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Decode(payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeOfMutatedEncodings flips bytes in valid encodings; the
// decoder must never panic and never mis-accept trailing garbage as
// extra fields.
func TestDecodeOfMutatedEncodings(t *testing.T) {
	base := NewMessage("PUT").Set("attr", "pid").Set("value", "1234").Encode()
	for i := 0; i < len(base); i++ {
		for _, b := range []byte{0x00, 0xFF, ':', ';', '9'} {
			mutated := append([]byte(nil), base...)
			mutated[i] = b
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on mutation at %d -> %q: %v", i, b, r)
					}
				}()
				if m, err := Decode(mutated); err == nil {
					// Accepted mutations must still be self-consistent:
					// re-encoding and re-decoding agrees.
					again, err2 := Decode(m.Encode())
					if err2 != nil || again.Verb != m.Verb {
						t.Fatalf("accepted mutation at %d is not stable", i)
					}
				}
			}()
		}
	}
}

// TestEncodeDecodeIdentityQuick is the round-trip property over fully
// random field maps, including empty and binary-ish strings.
func TestEncodeDecodeIdentityQuick(t *testing.T) {
	f := func(verb string, fields map[string]string) bool {
		m := &Message{Verb: verb, Fields: fields}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		if got.Verb != verb {
			return false
		}
		if len(got.Fields) != len(fields) {
			return false
		}
		for k, v := range fields {
			if got.Fields[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
