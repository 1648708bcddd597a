package attrspace

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"tdp/internal/netsim"
	"tdp/internal/wire"
)

// startServer runs a server on loopback TCP and returns it with its address.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func dialT(t *testing.T, addr, ctx string) *Client {
	t.Helper()
	c, err := Dial(nil, addr, ctx)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDialCtxCancelAfterReturn: the idiom every caller uses — DialCtx
// under a timeout, cancel deferred — cancels the context the moment the
// dial returns. That must not reach the connection: the handshake
// watchdog used to pick between "handshake over" and "context done"
// at random when it first ran after both, and closed one healthy
// connection in a few hundred under load (the Session probe tests and
// the router's health sessions were where it showed).
func TestDialCtxCancelAfterReturn(t *testing.T) {
	_, addr := startServer(t)
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		c, err := DialCtx(ctx, TCPDial, addr, "job1")
		cancel()
		if err != nil {
			t.Fatalf("DialCtx %d: %v", i, err)
		}
		time.Sleep(10 * time.Microsecond) // let a late watchdog run
		if err := c.Put("k", "v"); err != nil {
			t.Fatalf("Put on connection %d after its dial context was cancelled: %v", i, err)
		}
		c.Close()
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job1")
	if err := c.Put("pid", "1234"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, _, err := c.TryGetAt(context.Background(), Local, "pid")
	if err != nil || v != "1234" {
		t.Fatalf("TryGet = %q, %v", v, err)
	}
}

func TestBlockingGetAcrossClients(t *testing.T) {
	// The paper's canonical flow: paradynd blocks on "pid" until the
	// starter puts it (§4.3 step 3).
	_, addr := startServer(t)
	starter := dialT(t, addr, "job1")
	paradynd := dialT(t, addr, "job1")

	got := make(chan string, 1)
	go func() {
		v, _, err := paradynd.GetAt(context.Background(), Local, "pid")
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("Get returned %q before Put", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := starter.Put("pid", "4711"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	select {
	case v := <-got:
		if v != "4711" {
			t.Errorf("Get = %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking Get never completed")
	}
}

func TestTryGetNotFound(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "j")
	if _, _, err := c.TryGetAt(context.Background(), Local, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestDeleteAndSnapshot(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "j")
	c.Put("a", "1")
	c.Put("b", "2")
	c.Put("args", "-p1500 -P2000")
	if _, err := c.DeleteAt(context.Background(), Local, "a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	want := map[string]string{"b": "2", "args": "-p1500 -P2000"}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %v", snap)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snap[%q] = %q, want %q", k, snap[k], v)
		}
	}
}

func TestGetCancellation(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "j")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := c.GetAt(ctx, Local, "never-put")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	// The connection must still be usable afterwards.
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put after cancelled Get: %v", err)
	}
}

func TestContextIsolationBetweenJobs(t *testing.T) {
	_, addr := startServer(t)
	a := dialT(t, addr, "jobA")
	b := dialT(t, addr, "jobB")
	a.Put("pid", "1")
	if _, _, err := b.TryGetAt(context.Background(), Local, "pid"); !errors.Is(err, ErrNotFound) {
		t.Errorf("context leak: err = %v", err)
	}
}

func TestContextRefcountAcrossConnections(t *testing.T) {
	srv, addr := startServer(t)
	a := dialT(t, addr, "job")
	b := dialT(t, addr, "job")
	a.Put("k", "v")
	if n := srv.Space().Refs("job"); n != 2 {
		t.Fatalf("Refs = %d, want 2", n)
	}
	a.Close()
	waitFor(t, func() bool { return srv.Space().Refs("job") == 1 })
	if v, _, err := b.TryGetAt(context.Background(), Local, "k"); err != nil || v != "v" {
		t.Fatalf("attribute lost while a participant remains: %q %v", v, err)
	}
	b.Close()
	waitFor(t, func() bool { return srv.Space().Refs("job") == 0 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) // only a failure takes this long
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestAsyncGetAndPut(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "j")
	// Issue two async gets before the values exist — the §3.3 pattern.
	pidCh, err := c.GetAsync("pid")
	if err != nil {
		t.Fatalf("GetAsync: %v", err)
	}
	exeCh, err := c.GetAsync("executable_name")
	if err != nil {
		t.Fatalf("GetAsync: %v", err)
	}
	ackCh, err := c.PutAsync("pid", "99")
	if err != nil {
		t.Fatalf("PutAsync: %v", err)
	}
	if r := <-ackCh; r.Err != nil {
		t.Fatalf("async put ack: %v", r.Err)
	}
	c.Put("executable_name", "foo")

	r := <-pidCh
	if r.Err != nil || r.Value != "99" {
		t.Errorf("async pid = %+v", r)
	}
	r = <-exeCh
	if r.Err != nil || r.Value != "foo" {
		t.Errorf("async exe = %+v", r)
	}
}

func TestManyOutstandingGetsOneConnection(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "j")
	const n = 32
	chans := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		ch, err := c.GetAsync(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("GetAsync %d: %v", i, err)
		}
		chans[i] = ch
	}
	// Satisfy them in reverse order to prove independence.
	for i := n - 1; i >= 0; i-- {
		if err := c.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil || r.Value != fmt.Sprintf("v%d", i) {
				t.Errorf("get %d = %+v", i, r)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("get %d never completed", i)
		}
	}
}

func TestSubscribeEvents(t *testing.T) {
	_, addr := startServer(t)
	sub := dialT(t, addr, "j")
	pub := dialT(t, addr, "j")
	if err := sub.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub.Put("status", "running")
	pub.Put("status", "stopped")
	pub.DeleteAt(context.Background(), Local, "status")

	wantOps := []string{"put", "put", "delete"}
	for i, op := range wantOps {
		select {
		case ev := <-sub.Events():
			if ev.Op != op || ev.Attr != "status" {
				t.Errorf("event %d = %+v, want op %s", i, ev, op)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}
}

// TestLaggingConsumerDropsDeclared: a subscriber that does not read
// overflows its Events channel, and the events it discards are declared
// in the Lost of the ones it keeps — every write is received or counted.
// The larger input pushes more EVENT bytes than a 32 KiB window would
// have admitted; either way the lagging subscriber's own requests still
// get their replies while its Events channel sits undrained.
func TestLaggingConsumerDropsDeclared(t *testing.T) {
	for _, n := range []int{200, 2000} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			_, addr := startServer(t)
			sub := dialT(t, addr, "j")
			pub := dialT(t, addr, "j")
			if err := sub.Subscribe(); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			for i := 0; i < n; i++ {
				if err := pub.Put(fmt.Sprintf("a%04d", i), "v"); err != nil {
					t.Fatal(err)
				}
			}
			events := sub.Events()
			waitFor(t, func() bool { return len(events) == cap(events) })
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := sub.PutAt(ctx, Local, "own", "v"); err != nil {
				t.Fatalf("subscriber's PutAt with Events undrained: %v", err)
			}
			if v, _, err := sub.TryGetAt(ctx, Local, "own"); err != nil || v != "v" {
				t.Fatalf("subscriber's TryGetAt with Events undrained = %q, %v", v, err)
			}
			published := uint64(n) + 1 // the subscriber's own put is an event too
			var received, lost uint64
			for deadline := time.After(5 * time.Second); received+lost < published; {
				select {
				case ev := <-events:
					if ev.Op != "lost" { // a marker carries a count, not an update
						received++
					}
					lost += ev.Lost
				case <-deadline:
					t.Fatalf("received %d events, %d declared lost; want %d accounted for", received, lost, published)
				}
			}
			if received+lost != published || lost == 0 {
				t.Errorf("received %d events, %d declared lost; want %d in all, some lost", received, lost, published)
			}
		})
	}
}

func TestClientCloseUnblocksPendingGet(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "j")
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.GetAt(context.Background(), Local, "never")
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("pending Get returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending Get never unblocked after Close")
	}
	if err := c.Put("k", "v"); err == nil {
		t.Error("Put after Close succeeded")
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr, "j")
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.GetAt(context.Background(), Local, "never")
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("Get survived server shutdown")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never unblocked after server Close")
	}
}

func TestServerStats(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr, "j")
	c.Put("a", "1")
	c.TryGetAt(context.Background(), Local, "a")
	c.DeleteAt(context.Background(), Local, "a")
	ch, _ := c.GetAsync("b")
	c.Put("b", "2")
	<-ch
	puts, gets, tryGets, deletes := srv.Stats()
	if puts != 2 || gets != 1 || tryGets != 1 || deletes != 1 {
		t.Errorf("stats = %d %d %d %d", puts, gets, tryGets, deletes)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial(nil, "127.0.0.1:1", "ctx"); err == nil {
		t.Error("Dial to dead port succeeded")
	}
}

func TestOverSimulatedNetwork(t *testing.T) {
	// A LASS on a private execution host, reached over netsim conns —
	// the deployment shape of Figure 2.
	nw := netsim.New()
	node := nw.AddHost("node1")
	fe := nw.AddHost("frontend")

	srv := NewServer()
	l, err := node.Listen(4510)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(l)
	defer srv.Close()

	dial := func(addr string) (net.Conn, error) { return fe.Dial(addr) }
	c, err := Dial(dial, "node1:4510", "job")
	if err != nil {
		t.Fatalf("Dial over simnet: %v", err)
	}
	defer c.Close()
	if err := c.Put("pid", "5"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, _, err := c.TryGetAt(context.Background(), Local, "pid")
	if err != nil || v != "5" {
		t.Fatalf("TryGet = %q, %v", v, err)
	}
}

func TestLASSIsolationBetweenHosts(t *testing.T) {
	// Figure 2 invariant: a process can access its local LASS (and the
	// CASS) but not the LASS of another node. Two servers, two spaces.
	_, addr1 := startServer(t)
	_, addr2 := startServer(t)
	c1 := dialT(t, addr1, "job")
	c2 := dialT(t, addr2, "job")
	c1.Put("pid", "1")
	if _, _, err := c2.TryGetAt(context.Background(), Local, "pid"); !errors.Is(err, ErrNotFound) {
		t.Errorf("attribute crossed LASS boundary: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, addr := startServer(t)
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(nil, addr, "shared")
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				key := fmt.Sprintf("c%d-k%d", i, j)
				if err := c.Put(key, "v"); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, err := c.TryGetAt(context.Background(), Local, key); err != nil {
					t.Errorf("TryGet: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	puts, _, _, _ := srv.Stats()
	if puts != clients*20 {
		t.Errorf("puts = %d, want %d", puts, clients*20)
	}
}

// rawCall sends a request no Client method would — an unknown verb,
// missing or extra fields — on c and returns the reply.
func rawCall(t *testing.T, c *Client, m *wire.Message) *wire.Message {
	t.Helper()
	reply, err := c.call(context.Background(), &opSpec{verb: m.Verb}, m)
	if err != nil {
		t.Fatalf("%s: transport error: %v", m.Verb, err)
	}
	return reply
}

func TestHelloTwiceRejected(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "j")
	reply := rawCall(t, c, wire.NewMessage("HELLO").Set("context", "other").Set("rev", ProtocolRevision))
	if reply.Verb != "ERROR" {
		t.Errorf("second HELLO verb = %s, want ERROR", reply.Verb)
	}
}

func TestUnknownVerbRejected(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "j")
	reply := rawCall(t, c, wire.NewMessage("BOGUS"))
	if reply.Verb != "ERROR" {
		t.Errorf("verb = %s, want ERROR", reply.Verb)
	}
}
