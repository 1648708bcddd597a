package wire

import (
	"bytes"
	"net"
	"reflect"
	"strconv"
	"testing"

	"tdp/internal/telemetry"
)

// countingWriter records every Write call for syscall-count assertions.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func (w *countingWriter) Read(p []byte) (int, error) { return w.buf.Read(p) }

func TestAppendEncodeMatchesEncode(t *testing.T) {
	cases := []*Message{
		NewMessage("PING"),
		NewMessage("PUT").Set("attr", "pid").Set("value", "1234"),
		NewMessage("MPUT").SetInt("n", 2).Set("k0", "a").Set("v0", "1").Set("k1", "b").Set("v1", "2"),
		NewMessage("BIN").Set("blob", "a\x00b:c;d\nnewline"),
	}
	for _, m := range cases {
		// AppendEncode is order-free, so compare decoded forms, not bytes.
		got, err := Decode(m.AppendEncode(nil))
		if err != nil {
			t.Fatalf("Decode(AppendEncode(%v)): %v", m, err)
		}
		if got.Verb != m.Verb || !reflect.DeepEqual(got.Fields, m.Fields) {
			t.Errorf("AppendEncode round trip mismatch: %v vs %v", m, got)
		}
		if want, have := m.EncodedSize(), len(m.AppendEncode(nil)); want != have {
			t.Errorf("EncodedSize = %d, AppendEncode produced %d bytes", want, have)
		}
		if want, have := m.EncodedSize(), len(m.Encode()); want != have {
			t.Errorf("EncodedSize = %d, Encode produced %d bytes", want, have)
		}
	}
}

func TestAppendEncodeAppends(t *testing.T) {
	prefix := []byte("HDR!")
	out := NewMessage("PING").AppendEncode(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("AppendEncode did not preserve the prefix: %q", out)
	}
	if _, err := Decode(out[len(prefix):]); err != nil {
		t.Fatalf("appended payload does not decode: %v", err)
	}
}

func TestDecodeIntoReusesMessage(t *testing.T) {
	m := new(Message)
	first := NewMessage("PUT").Set("attr", "pid").Set("value", "1").Set("stale", "yes")
	if err := DecodeInto(m, first.Encode()); err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	second := NewMessage("GET").Set("attr", "status")
	if err := DecodeInto(m, second.Encode()); err != nil {
		t.Fatalf("DecodeInto reuse: %v", err)
	}
	if m.Verb != "GET" || !reflect.DeepEqual(m.Fields, second.Fields) {
		t.Errorf("reused message holds stale state: %v", m)
	}
	if _, ok := m.Fields["stale"]; ok {
		t.Error("field from previous decode survived reuse")
	}
}

// TestDecodeIntoDropsABigMessagesMap: a map is cleared in time
// proportional to its capacity and never shrinks, so a reused Message
// must not keep the table of one big batch or snapshot under every small
// message that follows — and must keep, and never reallocate, the map of
// a stream of small ones.
func TestDecodeIntoDropsABigMessagesMap(t *testing.T) {
	mapOf := func(m *Message) uintptr { return reflect.ValueOf(m.Fields).Pointer() }
	big := NewMessage("MPUT").SetInt("n", 300)
	for i := 0; i < 300; i++ {
		big.Set(IndexedKey('k', i), "attr").Set(IndexedKey('v', i), "value")
	}
	small := NewMessage("PUT").Set("attr", "pid").Set("value", "1234").Set("id", "7").Encode()

	m := new(Message)
	if err := DecodeInto(m, big.Encode()); err != nil || len(m.Fields) != 601 {
		t.Fatalf("big decode: %d fields, %v", len(m.Fields), err)
	}
	bigMap := mapOf(m)
	if err := DecodeInto(m, small); err != nil || len(m.Fields) != 3 || m.Get("value") != "1234" {
		t.Fatalf("small decode after big: %v, %v", m, err)
	}
	smallMap := mapOf(m)
	if smallMap == bigMap {
		t.Fatal("a 3-field message was decoded into the 601-field message's map")
	}
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if e := DecodeInto(m, small); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mapOf(m) != smallMap || allocs != 1 {
		t.Errorf("a stream of small decodes: map reused = %v, %.0f allocs per decode; want the same map and 1 (the payload copy)",
			mapOf(m) == smallMap, allocs)
	}

	// Reset, which a reply slot going idle calls, follows the same rule.
	if err := DecodeInto(m, big.Encode()); err != nil {
		t.Fatal(err)
	}
	if m.Reset(); m.Fields != nil || m.Verb != "" {
		t.Errorf("Reset after a big message kept %d-capacity state: %v", len(m.Fields), m)
	}
	if err := DecodeInto(m, small); err != nil {
		t.Fatal(err)
	}
	kept := mapOf(m)
	if m.Reset(); m.Fields == nil || len(m.Fields) != 0 || mapOf(m) != kept {
		t.Errorf("Reset after a small message did not keep its emptied map")
	}
}

func TestDecodeIntoDoesNotAliasPayload(t *testing.T) {
	payload := NewMessage("PUT").Set("attr", "pid").Set("value", "1234").Encode()
	m := new(Message)
	if err := DecodeInto(m, payload); err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	for i := range payload {
		payload[i] = 'X' // caller reuses the buffer
	}
	if m.Get("attr") != "pid" || m.Get("value") != "1234" {
		t.Errorf("decoded message aliased the payload buffer: %v", m)
	}
}

func TestDecodeInternsProtocolVocabulary(t *testing.T) {
	payload := NewMessage("PUT").Set("attr", "pid").Set("value", "1234").Encode()
	m, err := Decode(payload)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if m.Verb != "PUT" {
		t.Fatalf("verb = %q", m.Verb)
	}
	// Interned strings are the canonical instances from the table.
	if got := interned["PUT"]; got != m.Verb {
		t.Errorf("verb not interned")
	}
}

func TestDecodeHostileFieldCount(t *testing.T) {
	// A count far beyond the actual payload must fail cheaply, not
	// allocate a giant map first.
	payload := []byte("3:PUT999999999;4:attr3:pid")
	if _, err := Decode(payload); err == nil {
		t.Fatal("hostile field count accepted")
	}
}

func TestSendSingleWrite(t *testing.T) {
	w := &countingWriter{}
	c := NewConn(w)
	if err := c.Send(NewMessage("PUT").Set("attr", "pid").Set("value", "1")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if w.writes != 1 {
		t.Errorf("Send used %d Writes, want 1 (header+payload must leave together)", w.writes)
	}
	m, err := NewConn(w).Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.Verb != "PUT" || m.Get("attr") != "pid" {
		t.Errorf("frame corrupted by single-write path: %v", m)
	}
}

func TestCorkBatchesIntoOneWrite(t *testing.T) {
	w := &countingWriter{}
	c := NewConn(w)
	c.Cork()
	const n = 5
	for i := 0; i < n; i++ {
		if err := c.Send(NewMessage("EVENT").SetInt("seq", i)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if w.writes != 0 {
		t.Fatalf("corked Send wrote %d times, want 0", w.writes)
	}
	if err := c.Uncork(); err != nil {
		t.Fatalf("Uncork: %v", err)
	}
	if w.writes != 1 {
		t.Errorf("Uncork used %d Writes, want 1", w.writes)
	}
	r := NewConn(w)
	for i := 0; i < n; i++ {
		m, err := r.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if m.Int("seq", -1) != i {
			t.Errorf("message %d out of order: %v", i, m)
		}
	}
}

func TestCorkNests(t *testing.T) {
	w := &countingWriter{}
	c := NewConn(w)
	c.Cork()
	c.Cork()
	c.Send(NewMessage("A"))
	if err := c.Uncork(); err != nil {
		t.Fatalf("inner Uncork: %v", err)
	}
	if w.writes != 0 {
		t.Fatal("inner Uncork flushed before the outer section ended")
	}
	c.Send(NewMessage("B"))
	if err := c.Uncork(); err != nil {
		t.Fatalf("outer Uncork: %v", err)
	}
	if w.writes != 1 {
		t.Errorf("outer Uncork used %d Writes, want 1", w.writes)
	}
	if err := c.Uncork(); err != nil {
		t.Errorf("surplus Uncork errored: %v", err)
	}
}

func TestRecvIntoReusesAcrossFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)
	go func() {
		ca.Send(NewMessage("PUT").Set("attr", "pid").Set("value", "1").Set("extra", "x"))
		ca.Send(NewMessage("GET").Set("attr", "status"))
	}()
	m := new(Message)
	if err := cb.RecvInto(m); err != nil {
		t.Fatalf("RecvInto 1: %v", err)
	}
	if m.Verb != "PUT" || m.Get("extra") != "x" {
		t.Fatalf("first frame wrong: %v", m)
	}
	if err := cb.RecvInto(m); err != nil {
		t.Fatalf("RecvInto 2: %v", err)
	}
	if m.Verb != "GET" || m.Get("attr") != "status" {
		t.Errorf("second frame wrong: %v", m)
	}
	if _, ok := m.Lookup("extra"); ok {
		t.Error("stale field survived RecvInto reuse")
	}
}

func TestSendCorkedMetricsCountOnFlush(t *testing.T) {
	// Corked frames count bytes/messages when they actually hit the
	// wire, so a connection that dies mid-cork never overreports.
	w := &countingWriter{}
	c := NewConn(w)
	reg := telemetry.NewRegistry()
	c.InstrumentRegistry(reg)
	c.Cork()
	c.Send(NewMessage("A"))
	c.Send(NewMessage("B"))
	if got := reg.Counter("wire.tx.msgs").Value(); got != 0 {
		t.Fatalf("tx.msgs = %d before flush, want 0", got)
	}
	if err := c.Uncork(); err != nil {
		t.Fatalf("Uncork: %v", err)
	}
	if got := reg.Counter("wire.tx.msgs").Value(); got != 2 {
		t.Errorf("tx.msgs = %d after flush, want 2", got)
	}
	if got := reg.Counter("wire.tx.bytes").Value(); got != int64(w.buf.Len()) {
		t.Errorf("tx.bytes = %d, want %d", got, w.buf.Len())
	}
}

// TestSendRecvIntoCycleAllocatesThePayloadCopy: what the package comment
// promises of a steady-state cycle — the frame header, the read and write
// scratch and the reused Message cost nothing; the one object is the
// payload copy the decoded strings are views of.
func TestSendRecvIntoCycleAllocatesThePayloadCopy(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	out := NewMessage("PUT").Set("attr", "pid").Set("value", "0123456789abcdef0123456789abcdef").Set("id", "7")
	in := new(Message)
	var err error
	cycle := func() {
		if e := c.Send(out); e != nil {
			err = e
		}
		if e := c.RecvInto(in); e != nil {
			err = e
		}
	}
	cycle()
	got := testing.AllocsPerRun(100, cycle)
	if err != nil || in.Get("attr") != "pid" {
		t.Fatalf("cycle: %v, %v", in, err)
	}
	if got != 1 {
		t.Errorf("a Send/RecvInto cycle allocates %.0f objects, want 1 (the payload copy)", got)
	}
}

func TestIndexedKey(t *testing.T) {
	for _, c := range []struct {
		prefix byte
		i      int
		want   string
	}{{'k', 0, "k0"}, {'v', 7, "v7"}, {'s', 31, "s31"}, {'o', 12, "o12"}, {'k', 32, "k32"}, {'v', 1000, "v1000"}} {
		if got := IndexedKey(c.prefix, c.i); got != c.want {
			t.Errorf("IndexedKey(%q, %d) = %q, want %q", c.prefix, c.i, got, c.want)
		}
	}
	// The indexes the vocabulary holds come out of it, not off the heap.
	var key string
	if n := testing.AllocsPerRun(100, func() { key = IndexedKey('k', 31) }); n != 0 || key != "k31" {
		t.Errorf("IndexedKey of an interned index allocates %.0f objects", n)
	}
}

// viewCases are frames of every shape the read loops see: a SetUint ack,
// a value, an event, a chunk, an error, a long batch with keys beyond
// the vocabulary, and an empty message.
func viewCases() []*Message {
	batch := NewMessage("MPUT").SetInt("n", 40)
	for i := 0; i < 40; i++ {
		batch.Set(IndexedKey('k', i), "key").Set(IndexedKey('v', i), string(rune('a'+i%26)))
	}
	return []*Message{
		NewMessage("OK").Set("id", "12").SetUint("seq", 18446744073709551615),
		NewMessage("VALUE").Set("id", "3").Set("attr", "pid").Set("value", "4242").SetUint("seq", 7),
		NewMessage("EVENT").Set("attr", "status").Set("value", "running").Set("op", "put").SetUint("seq", 9),
		NewMessage("SNAPV").Set("id", "4").SetInt("more", 1).Set("k0", "a").Set("v0", "b\x00c").Set("s0", "1"),
		NewMessage("ERROR").Set("id", "5").Set("error", "attrspace: no such context"),
		batch,
		NewMessage(""),
	}
}

// TestRecvViewKeepMatchesRecvInto: a frame received by view and kept
// decodes to exactly what RecvInto decodes, and stays so after later
// frames have overwritten the read buffer its views pointed into.
func TestRecvViewKeepMatchesRecvInto(t *testing.T) {
	cases := viewCases()
	var stream bytes.Buffer
	send := NewConn(&stream)
	for _, m := range cases {
		if err := send.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	frames := stream.Bytes()
	copied, viewed := NewConn(bytes.NewBuffer(bytes.Clone(frames))), NewConn(bytes.NewBuffer(frames))
	kept := make([]*Message, len(cases))
	for i := range cases {
		want, got := new(Message), new(Message)
		if err := copied.RecvInto(want); err != nil {
			t.Fatalf("RecvInto %d: %v", i, err)
		}
		if err := viewed.RecvView(got, always); err != nil {
			t.Fatalf("RecvView %d: %v", i, err)
		}
		if got.Verb != want.Verb || !reflect.DeepEqual(got.Fields, want.Fields) {
			t.Fatalf("frame %d: view %v, copy %v", i, got, want)
		}
		viewed.Keep(got)
		if got.Verb != want.Verb || !reflect.DeepEqual(got.Fields, want.Fields) {
			t.Fatalf("frame %d kept: %v, copy %v", i, got, want)
		}
		kept[i] = got
	}
	for i, m := range kept {
		want, err := Decode(cases[i].Encode())
		if err != nil {
			t.Fatal(err)
		}
		if m.Verb != want.Verb || !reflect.DeepEqual(m.Fields, want.Fields) {
			t.Errorf("frame %d after the later frames: %v, want %v", i, m, want)
		}
	}
	if got := kept[0].Get("seq"); got != "18446744073709551615" {
		t.Errorf("SetUint seq read back %q", got)
	}
}

// always decodes every frame in place.
func always(string) bool { return true }

// TestRecvViewIsInPlace: a view is the read buffer itself — the next
// frame overwrites it — and a Send/RecvView cycle allocates nothing.
func TestRecvViewIsInPlace(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	in := new(Message)
	c.Send(NewMessage("OK").Set("id", "1").SetUint("seq", 1111))
	if err := c.RecvView(in, always); err != nil {
		t.Fatal(err)
	}
	seq := in.Get("seq")
	c.Send(NewMessage("OK").Set("id", "2").SetUint("seq", 2222))
	if err := c.RecvView(in, always); err != nil {
		t.Fatal(err)
	}
	if seq != "2222" {
		t.Errorf("a view taken before the next receive reads %q, want the next frame's 2222", seq)
	}
	// A frame whose verb inPlace refuses is copied, as RecvInto copies.
	onlyOK := func(verb string) bool { return verb == "OK" }
	c.Send(NewMessage("VALUE").Set("id", "3").Set("value", "3333"))
	if err := c.RecvView(in, onlyOK); err != nil {
		t.Fatal(err)
	}
	value := in.Get("value")
	c.Send(NewMessage("VALUE").Set("id", "4").Set("value", "4444"))
	if err := c.RecvView(new(Message), onlyOK); err != nil {
		t.Fatal(err)
	}
	if value != "3333" {
		t.Errorf("a refused verb's value reads %q after the next receive, want its own 3333", value)
	}
	out := NewMessage("OK").Set("id", "7").SetUint("seq", 123456789)
	var err error
	got := testing.AllocsPerRun(100, func() {
		if e := c.Send(out); e != nil {
			err = e
		}
		if e := c.RecvView(in, always); e != nil {
			err = e
		}
	})
	if err != nil || in.Get("id") != "7" {
		t.Fatalf("cycle: %v, %v", in, err)
	}
	if got != 0 {
		t.Errorf("a Send/RecvView cycle allocates %.0f objects, want 0", got)
	}
}

// TestSetUintEncodesAsItsDigits: a SetUint field is on the wire the
// string field Set would have made, in both encoders, and Set or
// another SetUint of the same key replaces it.
func TestSetUintEncodesAsItsDigits(t *testing.T) {
	for _, n := range []uint64{0, 9, 10, 4242, 18446744073709551615} {
		num := NewMessage("OK").Set("id", "3").SetUint("seq", n)
		str := NewMessage("OK").Set("id", "3").Set("seq", strconv.FormatUint(n, 10))
		if !bytes.Equal(num.Encode(), str.Encode()) {
			t.Errorf("Encode of seq %d: %q, want %q", n, num.Encode(), str.Encode())
		}
		if num.EncodedSize() != len(str.Encode()) || len(num.AppendEncode(nil)) != num.EncodedSize() {
			t.Errorf("seq %d: EncodedSize %d, AppendEncode %d bytes, want %d", n, num.EncodedSize(), len(num.AppendEncode(nil)), len(str.Encode()))
		}
		if back, err := Decode(num.AppendEncode(nil)); err != nil || !reflect.DeepEqual(back.Fields, str.Fields) {
			t.Errorf("seq %d: AppendEncode decodes to %v, %v", n, back, err)
		}
		if num.String() != str.String() {
			t.Errorf("String %s, want %s", num, str)
		}
	}
	m := NewMessage("OK").SetUint("seq", 1).SetUint("seq", 2)
	if m.Get("seq") != "2" || m.fieldCount() != 1 {
		t.Errorf("SetUint twice: %v", m)
	}
	if m.Set("seq", "x"); m.Get("seq") != "x" || m.fieldCount() != 1 {
		t.Errorf("Set over SetUint: %v", m)
	}
	m = NewMessage("EVENT").SetUint("seq", 5).SetUint("lost", 3)
	if m.Get("seq") != "5" || m.Get("lost") != "3" || m.Int("lost", 0) != 3 {
		t.Errorf("two SetUint keys: %v", m)
	}
	if m.Reset(); m.fieldCount() != 0 || m.Get("seq") != "" {
		t.Errorf("Reset kept %v", m)
	}
}
