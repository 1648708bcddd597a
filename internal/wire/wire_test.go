package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tdp/internal/telemetry"
)

func TestMessageRoundTrip(t *testing.T) {
	cases := []*Message{
		NewMessage("PING"),
		NewMessage("PUT").Set("attr", "pid").Set("value", "1234"),
		NewMessage("GET").Set("attr", ""),
		NewMessage("X").Set("", "empty key allowed"),
		NewMessage("ARGS").Set("args", "-p1500 -P2000"),
		NewMessage("BIN").Set("blob", "a\x00b:c;d\nnewline"),
		NewMessage("UTF").Set("dæmon", "tøøl"),
	}
	for _, m := range cases {
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("Decode(%v): %v", m, err)
		}
		if got.Verb != m.Verb || !reflect.DeepEqual(got.Fields, m.Fields) {
			t.Errorf("round trip mismatch: sent %v got %v", m, got)
		}
	}
}

func TestMessageRoundTripQuick(t *testing.T) {
	f := func(verb string, keys, vals []string) bool {
		m := NewMessage(verb)
		for i, k := range keys {
			v := ""
			if i < len(vals) {
				v = vals[i]
			}
			m.Set(k, v)
		}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		return got.Verb == m.Verb && reflect.DeepEqual(got.Fields, m.Fields)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("xyz"),
		[]byte("4:PING"),           // missing count
		[]byte("4:PING2;"),         // count 2 with no fields
		[]byte("-1:X0;"),           // negative length
		[]byte("4:PINGnope;"),      // non-numeric count
		[]byte("4:PING0;trailing"), // trailing bytes
		[]byte("99:short0;"),       // length past end
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", c)
		}
	}
}

func TestDecodeErrorsWrapMalformed(t *testing.T) {
	_, err := Decode([]byte("4:PING0;junk"))
	if !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestMessageAccessors(t *testing.T) {
	m := NewMessage("V").Set("a", "1").SetInt("n", 42)
	if m.Get("a") != "1" {
		t.Errorf("Get(a) = %q", m.Get("a"))
	}
	if m.Get("missing") != "" {
		t.Errorf("Get(missing) = %q", m.Get("missing"))
	}
	if v, ok := m.Lookup("n"); !ok || v != "42" {
		t.Errorf("Lookup(n) = %q, %v", v, ok)
	}
	if _, ok := m.Lookup("nope"); ok {
		t.Error("Lookup(nope) reported present")
	}
	if m.Int("n", -1) != 42 {
		t.Errorf("Int(n) = %d", m.Int("n", -1))
	}
	if m.Int("a", -1) != 1 {
		t.Errorf("Int(a) = %d", m.Int("a", -1))
	}
	if m.Int("missing", 7) != 7 {
		t.Errorf("Int(missing) default = %d", m.Int("missing", 7))
	}
	m2 := &Message{Verb: "W"} // nil Fields
	m2.Set("k", "v")
	if m2.Get("k") != "v" {
		t.Error("Set on nil Fields map failed")
	}
}

func TestMessageString(t *testing.T) {
	m := NewMessage("PUT").Set("b", "2").Set("a", "1")
	s := m.String()
	if !strings.HasPrefix(s, "PUT ") {
		t.Errorf("String() = %q, want PUT prefix", s)
	}
	// Keys must be sorted for deterministic logs.
	if strings.Index(s, `a="1"`) > strings.Index(s, `b="2"`) {
		t.Errorf("String() keys not sorted: %q", s)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	m := NewMessage("PUT").Set("z", "1").Set("a", "2").Set("m", "3")
	first := m.Encode()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(first, m.Encode()) {
			t.Fatal("Encode is not deterministic")
		}
	}
}

func TestConnSendRecvPipe(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)

	go func() {
		ca.Send(NewMessage("HELLO").Set("who", "lass"))
	}()
	got, err := cb.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.Verb != "HELLO" || got.Get("who") != "lass" {
		t.Errorf("got %v", got)
	}
}

func TestConnManyMessagesInOrder(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			ca.Send(NewMessage("SEQ").SetInt("i", i))
		}
	}()
	for i := 0; i < n; i++ {
		m, err := cb.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if m.Int("i", -1) != i {
			t.Fatalf("message %d arrived out of order: %v", i, m)
		}
	}
}

func TestConnConcurrentSenders(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)
	const senders, per = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ca.Send(NewMessage("M").SetInt("s", s).SetInt("i", i)); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(s)
	}
	seen := make(map[int]int)
	for i := 0; i < senders*per; i++ {
		m, err := cb.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		seen[m.Int("s", -1)]++
	}
	wg.Wait()
	for s := 0; s < senders; s++ {
		if seen[s] != per {
			t.Errorf("sender %d delivered %d messages, want %d", s, seen[s], per)
		}
	}
}

// lockedBuffer is a bytes.Buffer two goroutines may touch.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Len()
}

// TestConnSendSwapIsOneStep is the transport cutover's invariant: with a
// cork open (an event burst in progress) and another goroutine sending
// all the while, SendSwap puts every frame sent before the marked one,
// and the marked one, on the old writer — at once, whatever the cork
// depth — and every frame sent after it on the new writer. No frame is
// split, lost, repeated or reordered across the swap.
func TestConnSendSwapIsOneStep(t *testing.T) {
	var old, ring lockedBuffer
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), &old})
	c.Cork()
	stop := make(chan struct{})
	sent := make(chan int, 1)
	go func() {
		i := 0
		defer func() { sent <- i }()
		for ; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Send(NewMessage("N").SetInt("i", i)); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
			if i%64 == 63 {
				c.Flush() // an early flush inside the cork
			}
		}
	}()
	for old.Len() == 0 { // let the sender get going before the swap
		runtime.Gosched()
	}
	if err := c.SendSwap(NewMessage("MARK"), &ring); err != nil {
		t.Fatalf("SendSwap: %v", err)
	}
	atSwap := old.Len()
	for ring.Len() == 0 { // and carry on after it
		runtime.Gosched()
	}
	close(stop)
	total := <-sent
	if err := c.Uncork(); err != nil {
		t.Fatalf("Uncork: %v", err)
	}
	if old.Len() != atSwap {
		t.Fatalf("old writer grew from %d to %d bytes after the swap", atSwap, old.Len())
	}

	next := 0
	drain := func(name string, buf *lockedBuffer, wantMark bool) {
		rc := NewConn(&buf.b)
		for {
			m, err := rc.Recv()
			if err == io.EOF {
				if wantMark {
					t.Fatalf("%s writer: no MARK frame", name)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s writer: frame %d: %v", name, next, err)
			}
			if m.Verb == "MARK" {
				if _, err := rc.Recv(); !wantMark || err != io.EOF {
					t.Fatalf("%s writer: MARK (expected there: %v) followed by %v, want EOF", name, wantMark, err)
				}
				return
			}
			if got := m.Int("i", -1); got != next {
				t.Fatalf("%s writer: frame %d where %d was due", name, got, next)
			}
			next++
		}
	}
	drain("old", &old, true)
	if next == 0 {
		t.Fatal("no frame preceded the swap")
	}
	before := next
	drain("new", &ring, false)
	if next == before || next != total {
		t.Fatalf("%d frames before the swap, %d after, %d sent", before, next-before, total)
	}
}

func TestConnRecvEOF(t *testing.T) {
	a, b := net.Pipe()
	cb := NewConn(b)
	a.Close()
	if _, err := cb.Recv(); err == nil {
		t.Error("Recv on closed pipe succeeded")
	}
	b.Close()
}

func TestConnRejectsOversizeHeader(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// A header announcing more than MaxFrameSize.
		a.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	}()
	if _, err := NewConn(b).Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestConnSendRejectsOversizeMessage(t *testing.T) {
	var sink bytes.Buffer
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{&sink, &sink})
	huge := NewMessage("HUGE").Set("v", strings.Repeat("x", MaxFrameSize))
	if err := c.Send(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestConnCloseClosesUnderlying(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a)
	if c.Underlying() != a {
		t.Error("Underlying did not return the wrapped stream")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("write after Close succeeded")
	}
}

func TestConnCloseNonCloser(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{&buf, &buf})
	if err := c.Close(); err != nil {
		t.Errorf("Close on non-closer: %v", err)
	}
}

func TestReservedFieldForwardCompat(t *testing.T) {
	// A newer peer may stamp reserved "_"-prefixed fields this version
	// has never heard of. Decode must accept them, carry them through
	// re-encoding untouched, and named-field access must be unaffected
	// — an older daemon keeps working against a newer client.
	m := NewMessage("PUT").
		Set("attr", "pid").Set("value", "1234").
		Set("_tid", "aaaabbbbccccdddd").
		Set("_sid", "0123456789abcdef").
		Set("_future_ext", "opaque\x00blob") // unknown reserved field
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatalf("Decode with reserved fields: %v", err)
	}
	if got.Get("attr") != "pid" || got.Get("value") != "1234" {
		t.Errorf("named fields disturbed by reserved keys: %v", got)
	}
	if got.Get("_future_ext") != "opaque\x00blob" {
		t.Error("unknown reserved field not carried through")
	}
	if !reflect.DeepEqual(got.Fields, m.Fields) {
		t.Errorf("round trip mismatch: %v vs %v", got.Fields, m.Fields)
	}
	if !IsReserved("_future_ext") || IsReserved("attr") {
		t.Error("IsReserved misclassifies")
	}
}

func TestSetTraceAndTrace(t *testing.T) {
	m := NewMessage("PUT").SetTrace("tid1", "sid1")
	tid, sid := m.Trace()
	if tid != "tid1" || sid != "sid1" {
		t.Errorf("Trace() = %q, %q", tid, sid)
	}
	// Empty IDs stamp nothing: untraced messages carry no extra bytes.
	clean := NewMessage("PUT").SetTrace("", "")
	if len(clean.Fields) != 0 {
		t.Errorf("empty SetTrace added fields: %v", clean.Fields)
	}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	tid, sid = got.Trace()
	if tid != "tid1" || sid != "sid1" {
		t.Errorf("trace fields lost on the wire: %q, %q", tid, sid)
	}
}

func TestConnInstrumentCountsBytes(t *testing.T) {
	reg := telemetry.NewRegistry()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	cc, sc := NewConn(client), NewConn(server)
	cc.InstrumentRegistry(reg)

	msg := NewMessage("PUT").Set("attr", "pid").Set("value", "1")
	done := make(chan *Message, 1)
	go func() {
		m, _ := sc.Recv()
		done <- m
	}()
	if err := cc.Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := <-done; got == nil || got.Verb != "PUT" {
		t.Fatalf("Recv = %v", got)
	}
	wantBytes := int64(len(msg.Encode()) + 4)
	if got := reg.Counter("wire.tx.bytes").Value(); got != wantBytes {
		t.Errorf("tx.bytes = %d, want %d", got, wantBytes)
	}
	if got := reg.Counter("wire.tx.msgs").Value(); got != 1 {
		t.Errorf("tx.msgs = %d, want 1", got)
	}

	// And the receive side, instrumented separately.
	sc.InstrumentRegistry(reg)
	go func() {
		m, _ := sc.Recv()
		done <- m
	}()
	if err := cc.Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	<-done
	if got := reg.Counter("wire.rx.bytes").Value(); got != wantBytes {
		t.Errorf("rx.bytes = %d, want %d", got, wantBytes)
	}
	if got := reg.Counter("wire.rx.msgs").Value(); got != 1 {
		t.Errorf("rx.msgs = %d, want 1", got)
	}
}

// TestCorkUncorkConcurrentSendRace hammers one Conn with concurrent
// Sends, nested Cork/Uncork sections, and early Flushes inside a cork
// section, then verifies
// every frame decodes cleanly and nothing was torn. Run under -race
// this is the regression test for the wmu/cork accounting.
func TestCorkUncorkConcurrentSendRace(t *testing.T) {
	ca, cb := net.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	conn := NewConn(ca)
	peer := NewConn(cb)

	const (
		senders = 8
		perSend = 50
	)
	want := senders * perSend

	recvDone := make(chan int, 1)
	go func() {
		n := 0
		m := new(Message)
		for n < want {
			if err := peer.RecvInto(m); err != nil {
				recvDone <- n
				return
			}
			if m.Verb != "PUT" && m.Verb != "EVENT" {
				t.Errorf("unexpected verb %q", m.Verb)
			}
			n++
		}
		recvDone <- n
	}()

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				switch (g + i) % 4 {
				case 0: // plain send
					conn.Send(NewMessage("PUT").SetInt("n", i))
				case 1: // corked burst
					conn.Cork()
					conn.Send(NewMessage("PUT").SetInt("n", i))
					conn.Uncork()
				case 2: // nested cork
					conn.Cork()
					conn.Cork()
					conn.Send(NewMessage("PUT").SetInt("n", i))
					conn.Uncork()
					conn.Uncork()
				case 3: // send then flush inside a cork section
					conn.Cork()
					conn.Send(NewMessage("EVENT").SetInt("n", i))
					conn.Flush()
					conn.Uncork()
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case n := <-recvDone:
		if n != want {
			t.Fatalf("received %d frames, want %d", n, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("receiver did not finish")
	}
}
