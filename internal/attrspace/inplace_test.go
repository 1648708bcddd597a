package attrspace

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tdp/internal/wire"
)

// A read is decoded in place at both ends: the server's request and the
// client's VALUE or NOTFOUND are views of a read buffer that the next
// frame of the same length overwrites byte for byte. These tests follow
// a read with such frames and then look at everything of it that is
// kept: the blocking GET's attribute and id, the cache entry a fill
// makes, a span, the value a caller holds.

// helloConn is a raw connection to the server at addr that has said
// HELLO for contextName, for a test that writes its own requests and ids.
func helloConn(t *testing.T, addr, contextName string) *wire.Conn {
	t.Helper()
	wc := rawConn(t, addr)
	if err := wc.Send(wire.NewMessage("HELLO").Set("id", "0").Set("context", contextName).Set("rev", ProtocolRevision)); err != nil {
		t.Fatalf("HELLO: %v", err)
	}
	if reply, err := wc.Recv(); err != nil || reply.Verb != "OK" {
		t.Fatalf("HELLO = %v, %v", reply, err)
	}
	return wc
}

// recvT receives the next reply on a raw connection, bounded.
func recvT(t *testing.T, wc *wire.Conn) *wire.Message {
	t.Helper()
	got := make(chan *wire.Message, 1)
	go func() {
		m, err := wc.Recv()
		if err != nil {
			m = nil
		}
		got <- m
	}()
	select {
	case m := <-got:
		if m == nil {
			t.Fatal("connection ended before the reply")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no reply in 5 s")
	}
	return nil
}

// wantReply fails unless m is a VALUE of attribute = value under id.
func wantReply(t *testing.T, m *wire.Message, id, attribute, value string) {
	t.Helper()
	if m.Verb != "VALUE" || m.Get("id") != id || m.Get("attr") != attribute || m.Get("value") != value {
		t.Fatalf("reply %v; want VALUE id=%s attr=%s value=%s", m, id, attribute, value)
	}
}

// TestInPlaceBlockingGetOutlivesLaterFrames: a GET (GGET) of an absent
// attribute waits on its own goroutine while the read loop takes further
// GETs of the same length. When the attribute appears, the waiting GET
// must answer with its own attribute under its own id.
func TestInPlaceBlockingGetOutlivesLaterFrames(t *testing.T) {
	for _, verb := range []string{"GET", "GGET"} {
		verb := verb
		t.Run(verb, func(t *testing.T) {
			scope, addr := Local, ""
			if verb == "GGET" {
				_, _, _, addr = startCachingLASS(t)
				scope = Global
			} else {
				_, addr = startServer(t)
			}
			writer := dialT(t, addr, "inplace")
			bg := context.Background()
			for i := 0; i < 5; i++ {
				if _, err := writer.PutAt(bg, scope, fmt.Sprintf("here%02d", i), fmt.Sprintf("v%d", i)); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			wc := helloConn(t, addr, "inplace")
			wc.Send(wire.NewMessage(verb).Set("id", "wait01").Set("attr", "absent"))
			for i := 0; i < 5; i++ {
				id, attribute := fmt.Sprintf("next%02d", i), fmt.Sprintf("here%02d", i)
				wc.Send(wire.NewMessage(verb).Set("id", id).Set("attr", attribute))
				wantReply(t, recvT(t, wc), id, attribute, fmt.Sprintf("v%d", i))
			}
			if _, err := writer.PutAt(bg, scope, "absent", "late"); err != nil {
				t.Fatalf("Put: %v", err)
			}
			wantReply(t, recvT(t, wc), "wait01", "absent", "late")
		})
	}
}

// TestInPlaceCacheFillKeepsItsKey: a GTRYGET that misses fills the LASS
// cache under the attribute it asked for, although the request it came
// in is overwritten by the next ones; the next read of that attribute is
// a hit.
func TestInPlaceCacheFillKeepsItsKey(t *testing.T) {
	_, lass, cassAddr, lassAddr := startCachingLASS(t)
	// Written on the CASS before the LASS mirrors the context: only a
	// fill can bring it into the cache.
	direct := dialT(t, cassAddr, "inplace")
	if _, err := direct.PutAt(context.Background(), Local, "filled", "fromcass"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	reg := lass.Telemetry()
	hits, misses := reg.Counter("attrspace.cache.hits"), reg.Counter("attrspace.cache.misses")

	wc := helloConn(t, lassAddr, "inplace")
	wc.Send(wire.NewMessage("GTRYGET").Set("id", "fill01").Set("attr", "filled"))
	wantReply(t, recvT(t, wc), "fill01", "filled", "fromcass")
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("miss%02d", i)
		wc.Send(wire.NewMessage("GTRYGET").Set("id", id).Set("attr", fmt.Sprintf("nope%02d", i)))
		if m := recvT(t, wc); m.Verb != "NOTFOUND" || m.Get("id") != id {
			t.Fatalf("reply %v; want NOTFOUND id=%s", m, id)
		}
	}
	// On another connection: a frame read into the same buffer could
	// spell the attribute where the fill's request had it.
	h, ms := hits.Value(), misses.Value()
	if v, _, err := dialT(t, lassAddr, "inplace").TryGetAt(context.Background(), Global, "filled"); err != nil || v != "fromcass" {
		t.Fatalf("TryGetAt(Global, filled) = %q, %v; want fromcass", v, err)
	}
	if hits.Value() != h+1 || misses.Value() != ms {
		t.Errorf("the read after the fill: %d hits, %d misses; want 1 hit", hits.Value()-h, misses.Value()-ms)
	}
}

// TestInPlaceTracedReadKeepsItsSpan: a traced TRYGET's span, recorded
// when its reply is out, keeps the trace, parent and attribute the
// request carried after later frames have reused the buffer.
func TestInPlaceTracedReadKeepsItsSpan(t *testing.T) {
	srv, addr := startServer(t)
	wc := helloConn(t, addr, "inplace")
	send := func(id, attribute, tid, sid string) {
		m := wire.NewMessage("TRYGET").Set("id", id).Set("attr", attribute).SetTrace(tid, sid)
		wc.Send(m)
		if reply := recvT(t, wc); reply.Verb != "NOTFOUND" || reply.Get("id") != id {
			t.Fatalf("reply %v; want NOTFOUND id=%s", reply, id)
		}
	}
	send("first1", "traced", "trace-aaaa", "span-aaaa")
	for i := 0; i < 5; i++ {
		send(fmt.Sprintf("next%02d", i), fmt.Sprintf("othr%02d", i), fmt.Sprintf("trace-zz%02d", i), fmt.Sprintf("span-zz%02d", i))
	}
	spans := srv.Tracer().SpansForTrace("trace-aaaa")
	if len(spans) != 1 {
		t.Fatalf("%d spans under the first trace, want 1: %v", len(spans), srv.Tracer().Spans())
	}
	if sp := spans[0]; sp.Name != "attrspace.tryget" || sp.ParentID != "span-aaaa" || sp.Fields["attr"] != "traced" {
		t.Errorf("span %v %v; want attrspace.tryget, parent span-aaaa, attr traced", sp, sp.Fields)
	}
}

// TestInPlaceCGETThroughRouter: concurrent global reads that miss go to
// the shard as CGETs, in flight together on the pooled connection; the
// shard decodes each in place and every caller gets its own attribute's value.
func TestInPlaceCGETThroughRouter(t *testing.T) {
	_, _, cassAddr, lassAddr := startCachingLASS(t)
	direct := dialT(t, cassAddr, "inplace")
	bg := context.Background()
	const keys = 64
	for i := 0; i < keys; i++ {
		if _, err := direct.PutAt(bg, Local, fmt.Sprintf("k%03d", i), fmt.Sprintf("value-%03d", i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		c := dialT(t, lassAddr, "inplace")
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < keys; i += readers {
				k := fmt.Sprintf("k%03d", i)
				if v, _, err := c.TryGetAt(bg, Global, k); err != nil || v != fmt.Sprintf("value-%03d", i) {
					t.Errorf("TryGetAt(Global, %s) = %q, %v", k, v, err)
				}
			}
		}(r)
	}
	wg.Wait()
}

// fakeReads serves a client over one end of a pipe: every request gets
// the reply reply returns for it (nil: none), until the pipe closes.
func fakeReads(t *testing.T, reply func(req *wire.Message) []*wire.Message) *Client {
	cliEnd, srvEnd := net.Pipe()
	t.Cleanup(func() { srvEnd.Close() })
	c := newClient(cliEnd)
	t.Cleanup(func() { c.Close() })
	go func() {
		wc := wire.NewConn(srvEnd)
		for {
			req, err := wc.Recv()
			if err != nil {
				return
			}
			for _, m := range reply(req) {
				wc.Send(m)
			}
		}
	}()
	return c
}

// TestValueSlotAnswers: a read's VALUE, NOTFOUND and ERROR each reach
// its caller, and a value the caller holds is its own: the next VALUE,
// of the same length, is read into the same buffer.
func TestValueSlotAnswers(t *testing.T) {
	values := []string{strings.Repeat("x", 40), strings.Repeat("y", 40)}
	n := 0
	c := fakeReads(t, func(req *wire.Message) []*wire.Message {
		id := req.Get("id")
		switch req.Get("attr") {
		case "nf":
			return []*wire.Message{wire.NewMessage("NOTFOUND").Set("id", id).Set("attr", "nf")}
		case "err":
			return []*wire.Message{wire.NewMessage("ERROR").Set("id", id).Set("error", "boom")}
		}
		n++
		return []*wire.Message{wire.NewMessage("VALUE").Set("id", id).Set("attr", "v").Set("value", values[n%2]).SetUint("seq", uint64(10+n))}
	})
	bg := context.Background()
	first, seq, err := c.TryGetAt(bg, Local, "v")
	if err != nil || first != values[1] || seq != 11 {
		t.Fatalf("TryGetAt = %q, %d, %v; want %q, 11", first, seq, err, values[1])
	}
	if _, _, err := c.TryGetAt(bg, Local, "nf"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("NOTFOUND read = %v, want ErrNotFound", err)
	}
	if _, _, err := c.GetAt(bg, Local, "err"); err == nil || errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("ERROR read = %v, want the server's boom", err)
	}
	second, seq, err := c.GetAt(bg, Local, "v")
	if err != nil || second != values[0] || seq != 12 {
		t.Fatalf("GetAt = %q, %d, %v; want %q, 12", second, seq, err, values[0])
	}
	if first != values[1] {
		t.Errorf("the first value reads %q after the next VALUE, want %q", first, values[1])
	}
}

// TestValueSlotAbandonedReadLandsLater: a read whose caller left through
// its ctx is answered later, just before the VALUE of the next read, of
// the same length. The late VALUE reaches nobody; the next read gets
// its own.
func TestValueSlotAbandonedReadLandsLater(t *testing.T) {
	received := make(chan string, 1)
	var late string
	c := fakeReads(t, func(req *wire.Message) []*wire.Message {
		id := req.Get("id")
		if req.Get("attr") == "slow" {
			late = id
			received <- id
			return nil
		}
		return []*wire.Message{
			wire.NewMessage("VALUE").Set("id", late).Set("attr", "slow").Set("value", "stale-value").SetUint("seq", 1),
			wire.NewMessage("VALUE").Set("id", id).Set("attr", "fast").Set("value", "fresh-value").SetUint("seq", 2),
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	gave := make(chan error, 1)
	go func() { _, _, err := c.GetAt(ctx, Local, "slow"); gave <- err }()
	abandoned := <-received
	cancel()
	if err := <-gave; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned read = %v, want context.Canceled", err)
	}
	for i := 0; i < 3; i++ {
		v, seq, err := c.TryGetAt(context.Background(), Local, "fast")
		if err != nil || v != "fresh-value" || seq != 2 {
			t.Fatalf("read %d after the abandoned one = %q, %d, %v; want fresh-value, 2", i, v, seq, err)
		}
		if st := slotState(c); st.freeIDs[abandoned] || st.pending != 0 {
			t.Fatalf("read %d: abandoned id %s free %v, %d pending", i, abandoned, st.freeIDs[abandoned], st.pending)
		}
	}
}
