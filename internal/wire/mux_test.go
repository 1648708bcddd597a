package wire

import (
	"net"
	"sync"
	"testing"
	"time"

	"tdp/internal/telemetry"
)

// muxPair returns two muxed connections over an in-memory pipe, plus a
// cleanup closing both ends; window sets a uniform byte window, 0 keeps
// the per-stream defaults.
func muxPair(t *testing.T, window int) (a, b *Conn, am, bm *Mux) {
	t.Helper()
	ca, cb := net.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	a, b = NewConn(ca), NewConn(cb)
	am = NewMux(a, MuxConfig{Window: window})
	bm = NewMux(b, MuxConfig{Window: window})
	return a, b, am, bm
}

func TestMuxStampsAndStripsStream(t *testing.T) {
	_, b, am, bm := muxPair(t, 0)
	go func() {
		if err := am.SendOn(StreamEvents, NewMessage("EVENT").Set("attr", "a")); err != nil {
			t.Error(err)
		}
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sid, handled := bm.Accept(m)
	if handled {
		t.Fatal("data message reported as transport-only")
	}
	if sid != StreamEvents {
		t.Fatalf("stream = %d, want %d", sid, StreamEvents)
	}
	if _, ok := m.Fields[FieldStream]; ok {
		t.Fatal("_stream not stripped by Accept")
	}
}

func TestMuxControlStreamNotStamped(t *testing.T) {
	_, b, am, _ := muxPair(t, 0)
	go am.SendOn(StreamControl, NewMessage("PUT").Set("attr", "a"))
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Fields[FieldStream]; ok {
		t.Fatal("control-stream message carries _stream")
	}
}

// pump drains x's conn in a goroutine, passing every message through
// Accept — the read-loop role the mux owner plays in production. It
// stops when the conn errors (the t.Cleanup pipe close).
func pump(x *Mux) {
	go func() {
		for {
			m, err := x.c.Recv()
			if err != nil {
				x.Fail(err)
				return
			}
			x.Accept(m)
		}
	}()
}

// TestMuxIndependentStreams verifies a stalled stream does not block
// another stream on the same conn — the head-of-line property the mux
// exists for.
func TestMuxIndependentStreams(t *testing.T) {
	// A window of exactly two messages: the third bulk send finds it dry.
	const fills = 2
	_, b, am, _ := muxPair(t, fills*NewMessage("SNAPV").EncodedSize())

	// Exhaust StreamBulk's window.
	for i := 0; i < fills; i++ {
		done := make(chan error, 1)
		go func() { done <- am.SendOn(StreamBulk, NewMessage("SNAPV")) }()
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// A further bulk send blocks…
	blocked := make(chan struct{})
	go func() {
		am.SendOn(StreamBulk, NewMessage("SNAPV"))
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("send past window did not block")
	case <-time.After(20 * time.Millisecond):
	}
	// …but an events-stream send goes straight through.
	evDone := make(chan error, 1)
	go func() { evDone <- am.SendOn(StreamEvents, NewMessage("EVENT")) }()
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-evDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("independent stream blocked behind stalled one")
	}
	am.Fail(nil) // release the blocked sender
	<-blocked
}

func TestMuxFailWakesBlockedSenders(t *testing.T) {
	_, b, am, _ := muxPair(t, 1)
	done := make(chan error, 1)
	go func() { done <- am.SendOn(StreamEvents, NewMessage("EVENT")) }()
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() { errs <- am.SendOn(StreamEvents, NewMessage("EVENT")) }()
	time.Sleep(10 * time.Millisecond)
	am.Fail(ErrMuxClosed)
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("blocked send returned nil after Fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fail did not wake blocked sender")
	}
	<-done
}

func TestMuxPiggybackGrants(t *testing.T) {
	// A window far above one message, so the grant waits for a ride
	// instead of leaving as a WINUP of its own.
	_, b, am, bm := muxPair(t, 1024)
	// a → b: one events message; b accounts it.
	go am.SendOn(StreamEvents, NewMessage("EVENT"))
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	bm.Accept(m)
	// b → a on control: the pending grant must piggyback.
	go bm.SendOn(StreamControl, NewMessage("OK"))
	reply, err := am.c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Get(FieldWindow) == "" {
		t.Fatal("no piggybacked _win grant on control reply")
	}
	am.Accept(reply)
	if _, ok := reply.Fields[FieldWindow]; ok {
		t.Fatal("_win not stripped by Accept")
	}
}

func TestMuxTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	ca, cb := net.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	a, b := NewConn(ca), NewConn(cb)
	am := NewMux(a, MuxConfig{Window: 1, Registry: reg})
	bm := NewMux(b, MuxConfig{Window: 1})

	pump(am) // applies the WINUP bm sends back

	go func() {
		am.SendOn(StreamEvents, NewMessage("EVENT"))
		am.SendOn(StreamEvents, NewMessage("EVENT")) // must stall
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	// Hold the grant back until the second send has provably stalled, so
	// the stall counter increments deterministically.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("wire.mux.stalls").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wire.mux.stalls never incremented")
		}
		time.Sleep(time.Millisecond)
	}
	bm.Accept(m) // grants the window back via WINUP (threshold = 1)
	m, err = b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	bm.Accept(m)
	if reg.Gauge("wire.mux.streams").Value() == 0 {
		t.Fatal("wire.mux.streams gauge not set")
	}
}

// TestCorkUncorkConcurrentSendRace hammers one Conn with concurrent
// Sends, nested Cork/Uncork sections, and mux sends, then verifies
// every frame decodes cleanly and nothing was torn. Run under -race
// this is the regression test for the wmu/cork accounting.
func TestCorkUncorkConcurrentSendRace(t *testing.T) {
	ca, cb := net.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	conn := NewConn(ca)
	mux := NewMux(conn, MuxConfig{Window: 1 << 20}) // effectively unbounded
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
				case 3: // muxed send inside a cork section
					conn.Cork()
					mux.SendOn(StreamEvents, NewMessage("EVENT").SetInt("n", i))
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

func TestMuxByteWindowDefaults(t *testing.T) {
	ca, cb := net.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	x := NewMux(NewConn(ca), MuxConfig{})
	for _, tc := range []struct {
		stream uint32
		want   int
	}{
		{StreamEvents, ByteWindowEvents},
		{StreamBulk, ByteWindowBulk},
		{StreamSamples, ByteWindowSamples},
		{7, ByteWindowDefault},
	} {
		if got := x.winFor(tc.stream); got != tc.want {
			t.Errorf("winFor(%d) = %d, want %d", tc.stream, got, tc.want)
		}
	}
}

// TestMuxByteWindowBlocksAndRefills: the total payload pushed through
// the stream is many times the byte window, so the sender only finishes
// if the receiver's WINUP grants flow back and reopen the window.
func TestMuxByteWindowBlocksAndRefills(t *testing.T) {
	const window = 256
	const total = 40 // ~40 messages of ~45 encoded bytes through a 256-byte window
	_, b, am, bm := muxPair(t, window)
	pump(am)

	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := am.SendOn(StreamBulk, NewMessage("SNAPV").Set("blob", "0123456789abcdef").SetInt("part", i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	got := 0
	for got < total {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, handled := bm.Accept(m); handled {
			continue
		}
		got++
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender never finished despite byte grants")
	}
}

// TestMuxByteWindowOversizedMessage: a message costing more than the
// whole window must still move (stop-and-wait), not deadlock — the
// window goes negative and the receiver's grant restores it.
func TestMuxByteWindowOversizedMessage(t *testing.T) {
	const window = 64
	_, b, am, bm := muxPair(t, window)
	pump(am)

	big := NewMessage("SNAPV").Set("blob", "this payload alone encodes far larger than the whole sixty-four byte window")
	if big.EncodedSize() <= window {
		t.Fatalf("test message EncodedSize %d not oversized", big.EncodedSize())
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 5; i++ {
			m := NewMessage("SNAPV").Set("blob", "this payload alone encodes far larger than the whole sixty-four byte window")
			if err := am.SendOn(StreamBulk, m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	got := 0
	for got < 5 {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, handled := bm.Accept(m); handled {
			continue
		}
		got++
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oversized messages deadlocked")
	}
}

// TestMuxByteGrantCappedAtWindow: a hostile or confused peer granting
// more than was ever consumed must not inflate the send window past its
// initial size.
func TestMuxByteGrantCappedAtWindow(t *testing.T) {
	ca, cb := net.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	x := NewMux(NewConn(ca), MuxConfig{})
	go func() { // drain any WINUP the accept side emits
		buf := make([]byte, 4096)
		for {
			if _, err := cb.Read(buf); err != nil {
				return
			}
		}
	}()
	x.applyGrants("2:999999999")
	x.mu.Lock()
	got := x.send[StreamBulk]
	x.mu.Unlock()
	if got != ByteWindowBulk {
		t.Fatalf("send window after absurd grant = %d, want cap %d", got, ByteWindowBulk)
	}
	// Over maxByteGrant is rejected before it touches the accounting:
	// the stream's window entry is never even created.
	x.applyGrants("3:1073741825")
	x.mu.Lock()
	_, touched := x.send[StreamSamples]
	x.mu.Unlock()
	if touched {
		t.Fatal("out-of-range grant touched the stream's window accounting")
	}
}

// TestMuxBlockedSendRacesFailOnClose: a SendOn parked on a dry window
// while the connection dies must return the mux error, not hang. The
// owner read loop (pump) turns the conn error into Fail, exactly as in
// production.
func TestMuxBlockedSendRacesFailOnClose(t *testing.T) {
	ca, cb := net.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	a, b := NewConn(ca), NewConn(cb)
	am := NewMux(a, MuxConfig{Window: 1})
	pump(am)

	// Drain the window.
	go am.SendOn(StreamBulk, NewMessage("SNAPV"))
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	// Park a second send on the dry window…
	errs := make(chan error, 1)
	go func() { errs <- am.SendOn(StreamBulk, NewMessage("SNAPV")) }()
	time.Sleep(20 * time.Millisecond)
	// …then kill the connection out from under it.
	cb.Close()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("blocked SendOn returned nil after conn death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked SendOn hung across conn death")
	}
}

// TestMuxCorkedBatchExceedsWindow: a corked batch larger than the send
// window must not deadlock — SendOn flushes the cork before parking, so
// the receiver can fund the grants the tail of the batch waits for.
func TestMuxCorkedBatchExceedsWindow(t *testing.T) {
	const window = 64 // about four of the messages below
	const total = 12
	a, b, am, bm := muxPair(t, window)
	pump(am)

	done := make(chan error, 1)
	go func() {
		a.Cork()
		defer a.Uncork()
		for i := 0; i < total; i++ {
			if err := am.SendOn(StreamBulk, NewMessage("SNAPV").SetInt("part", i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	got := 0
	for got < total {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, handled := bm.Accept(m); handled {
			continue
		}
		got++
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("corked batch past the window deadlocked")
	}
}
