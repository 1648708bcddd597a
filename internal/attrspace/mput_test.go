package attrspace

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"tdp/internal/wire"
)

// TestMPUTRoundTrip exercises the batched put end to end over a real
// TCP LASS: one PutBatch, every value visible, a single mput op
// counted, and subscribers see one event per pair in order.
func TestMPUTRoundTrip(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr, "job")
	watcher := dialT(t, addr, "job")
	if err := watcher.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	pairs := []KV{
		{Key: "pid", Value: "1234"},
		{Key: "executable_name", Value: "science"},
		{Key: "args", Value: "-p1500 -P2000"},
		{Key: "frontend_addr", Value: "1.2.3.4:2090"},
	}
	if err := c.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for _, p := range pairs {
		v, _, err := c.TryGetAt(context.Background(), Local, p.Key)
		if err != nil || v != p.Value {
			t.Errorf("TryGet(%s) = %q, %v; want %q", p.Key, v, err, p.Value)
		}
	}
	reg := srv.Telemetry()
	if got := reg.Counter("attrspace.ops.mput").Value(); got != 1 {
		t.Errorf("ops.mput = %d, want 1", got)
	}
	if got := reg.Counter("attrspace.ops.put").Value(); got != 0 {
		t.Errorf("ops.put = %d, want 0 (batch must not decompose server-side)", got)
	}
	// Subscribers observe the batch as ordered individual events.
	deadline := time.After(5 * time.Second)
	for i, p := range pairs {
		select {
		case ev := <-watcher.Events():
			if ev.Attr != p.Key || ev.Value != p.Value || ev.Op != "put" {
				t.Errorf("event %d = %+v, want put %s=%s", i, ev, p.Key, p.Value)
			}
		case <-deadline:
			t.Fatalf("timed out waiting for event %d", i)
		}
	}
}

// TestMPUTWakesBlockedGets: a blocked Get on any attribute of the
// batch completes when the batch lands.
func TestMPUTWakesBlockedGets(t *testing.T) {
	_, addr := startServer(t)
	producer := dialT(t, addr, "job")
	consumer := dialT(t, addr, "job")

	got := make(chan string, 1)
	go func() {
		v, _, err := consumer.GetAt(context.Background(), Local, "b")
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		got <- v
	}()
	time.Sleep(20 * time.Millisecond) // let the Get block server-side
	if err := producer.PutBatch([]KV{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}, {Key: "c", Value: "3"}}); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	select {
	case v := <-got:
		if v != "2" {
			t.Errorf("blocked Get woke with %q, want \"2\"", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Get never woke after MPUT")
	}
}

// rawCaller drives the wire protocol directly, bypassing the client,
// to probe the server with malformed frames.
type rawCaller struct {
	t  *testing.T
	wc *wire.Conn
	id int
}

func newRawCaller(t *testing.T, addr string) *rawCaller {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { raw.Close() })
	return &rawCaller{t: t, wc: wire.NewConn(raw)}
}

func (r *rawCaller) call(m *wire.Message) *wire.Message {
	r.t.Helper()
	r.id++
	m.SetInt("id", r.id)
	if err := r.wc.Send(m); err != nil {
		r.t.Fatalf("send %v: %v", m, err)
	}
	reply, err := r.wc.Recv()
	if err != nil {
		r.t.Fatalf("recv after %v: %v", m, err)
	}
	return reply
}

// TestMPUTMalformed: bad counts and missing kN/vN fields must produce
// an ERROR reply, store nothing, and leave the connection usable.
func TestMPUTMalformed(t *testing.T) {
	_, addr := startServer(t)
	rc := newRawCaller(t, addr)
	if got := rc.call(wire.NewMessage("HELLO").Set("context", "job").Set("rev", ProtocolRevision)); got.Verb != "OK" {
		t.Fatalf("HELLO: %v", got)
	}

	cases := []*wire.Message{
		wire.NewMessage("MPUT"),                     // no n at all
		wire.NewMessage("MPUT").Set("n", "-1"),      // negative n
		wire.NewMessage("MPUT").Set("n", "zzz"),     // non-numeric n
		wire.NewMessage("MPUT").Set("n", "9999999"), // n beyond fields present
		wire.NewMessage("MPUT").SetInt("n", 2).
			Set("k0", "a").Set("v0", "1"), // k1/v1 missing
		wire.NewMessage("MPUT").SetInt("n", 1).
			Set("k0", "a"), // v0 missing
	}
	for i, m := range cases {
		if got := rc.call(m); got.Verb != "ERROR" {
			t.Errorf("case %d: reply %v, want ERROR", i, got)
		}
	}
	// Nothing was stored, and the session still works.
	if got := rc.call(wire.NewMessage("TRYGET").Set("attr", "a")); got.Verb != "NOTFOUND" {
		t.Errorf("attribute leaked from malformed MPUT: %v", got)
	}
	if got := rc.call(wire.NewMessage("PUT").Set("attr", "x").Set("value", "1")); got.Verb != "OK" {
		t.Errorf("connection unusable after malformed MPUTs: %v", got)
	}
}

// flakySubServer is a stub that completes the HELLO handshake and then
// fails the first subFailures SUB attempts, to exercise the client's
// Subscribe retry path.
func flakySubServer(t *testing.T, subFailures int) (addr string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	var mu sync.Mutex
	remaining := subFailures
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				wc := wire.NewConn(conn)
				for {
					m, err := wc.Recv()
					if err != nil {
						return
					}
					switch m.Verb {
					case "HELLO":
						wc.Send(wire.NewMessage("OK").Set("id", m.Get("id")).Set("rev", ProtocolRevision))
					case "SUB":
						mu.Lock()
						fail := remaining > 0
						if fail {
							remaining--
						}
						mu.Unlock()
						if fail {
							wc.Send(wire.NewMessage("ERROR").Set("id", m.Get("id")).Set("error", "transient failure"))
						} else {
							wc.Send(wire.NewMessage("OK").Set("id", m.Get("id")))
						}
					default:
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

// TestSubscribeRetriesAfterFailure: a failed SUB must not latch the
// client as subscribed — a retry goes back to the wire and can succeed.
func TestSubscribeRetriesAfterFailure(t *testing.T) {
	addr := flakySubServer(t, 1)
	c, err := Dial(nil, addr, "job")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe(); err == nil {
		t.Fatal("first Subscribe unexpectedly succeeded")
	}
	if err := c.Subscribe(); err != nil {
		t.Fatalf("Subscribe retry after failure: %v", err)
	}
}

// TestPutAsyncCoalesces: with many puts in flight on one connection,
// the client batches the backlog into MPUTs — the server must see far
// fewer round trips than puts while every value still lands.
func TestPutAsyncCoalesces(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr, "job")
	const n = 200
	chans := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		ch, err := c.PutAsync(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatalf("PutAsync: %v", err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Errorf("put %d failed: %v", i, r.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("put %d never completed", i)
		}
	}
	for i := 0; i < n; i++ {
		v, _, err := c.TryGetAt(context.Background(), Local, fmt.Sprintf("k%d", i))
		if err != nil || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("TryGet(k%d) = %q, %v", i, v, err)
		}
	}
	reg := srv.Telemetry()
	rounds := reg.Counter("attrspace.ops.put").Value() + reg.Counter("attrspace.ops.mput").Value()
	if rounds >= n {
		t.Errorf("server handled %d put round trips for %d puts — no coalescing happened", rounds, n)
	}
	t.Logf("%d async puts coalesced into %d server round trips", n, rounds)
}

// TestConcurrentGetCancellationVsPut races blocking GETs, their
// cancellations, and the PUTs that complete them, across several
// goroutines on several connections — the -race regression test for
// the waiter bookkeeping in attr.Space and the server's GET fast path.
func TestConcurrentGetCancellationVsPut(t *testing.T) {
	_, addr := startServer(t)
	producer := dialT(t, addr, "job")
	const workers = 8
	const rounds = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dialT(t, addr, "job")
			for i := 0; i < rounds; i++ {
				attr := fmt.Sprintf("w%d-r%d", w, i)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() {
					defer close(done)
					// The Get may win (value) or lose (cancellation);
					// both are valid — only races and hangs are bugs.
					c.GetAt(ctx, Local, attr)
				}()
				if i%2 == 0 {
					producer.Put(attr, "v")
				}
				cancel()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Errorf("worker %d round %d: Get hung after cancel", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGetFastPathNoGoroutine: a GET for a present attribute answers
// inline. Indirect check: a storm of present-GETs completes with the
// correct values (the fast path) while a GET for an absent attribute
// still blocks (the slow path).
func TestGetFastPathStillBlocksWhenAbsent(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job")
	if err := c.Put("present", "yes"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for i := 0; i < 100; i++ {
		v, _, err := c.GetAt(context.Background(), Local, "present")
		if err != nil || v != "yes" {
			t.Fatalf("fast-path Get = %q, %v", v, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := c.GetAt(ctx, Local, "absent"); err == nil {
		t.Fatal("Get for absent attribute returned without a Put")
	}
}
