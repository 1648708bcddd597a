package attrspace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/netsim"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// Ring promotion: a same-host connection starts on the unix socket and
// is moved onto a shm ring, in mid-stream, once it has taken
// shmPromoteAfter replies. None of these tests asserts on wall-clock
// time; deadlines only bound how long a failure takes to show.

// TestMain fails the package when a test leaves a segment file of this
// process behind: every path out of a promotion — done, refused, failed,
// killed half way — has to unlink it.
func TestMain(m *testing.M) {
	code := m.Run()
	if left := leakedSegments(5 * time.Second); len(left) > 0 {
		fmt.Fprintf(os.Stderr, "shm segment files left behind: %v\n", left)
		code = 1
	}
	os.Exit(code)
}

// leakedSegments lists this process's segment files in the two places
// createShmSegment puts them, waiting up to grace for connections that
// are still being torn down to remove theirs.
func leakedSegments(grace time.Duration) []string {
	name := fmt.Sprintf("tdp-shm-%d-*", os.Getpid())
	for deadline := time.Now().Add(grace); ; time.Sleep(10 * time.Millisecond) {
		var left []string
		for _, dir := range []string{"/dev/shm", os.TempDir()} {
			found, _ := filepath.Glob(filepath.Join(dir, name))
			left = append(left, found...)
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
	}
}

// earnRing drives c past the promotion threshold with pings and waits
// for the cutover to complete.
func earnRing(t testing.TB, c *Client) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !onRing(c); {
		if err := c.ping(context.Background()); err != nil {
			t.Fatalf("Ping on the way to a ring: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("connection was never promoted to a shm ring")
		}
	}
}

// shmOffered reports HELLO's answer: may c be promoted to a ring.
func shmOffered(c *Client) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shmOK
}

// onRing reports whether c has been promoted and carries its frames
// over the shared-memory ring.
func onRing(c *Client) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shmActive
}

// shmCounts reads the promotion counters of one registry.
func shmCounts(reg *telemetry.Registry) (promotions, failed, timed int64) {
	return reg.Counter("attrspace.shm.promotions").Value(),
		reg.Counter("attrspace.shm.promote_failed").Value(),
		reg.Histogram("attrspace.shm.promote_us", nil).Count()
}

// serveUnix starts srv on a unix socket in the test's directory,
// through wrap when given, and returns the dial address.
func serveUnix(t *testing.T, srv *Server, wrap func(net.Listener) net.Listener) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tdp.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if wrap != nil {
		l = wrap(l)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return "unix:" + path
}

// tapListener records, per accepted connection, every byte the server
// reads from and writes to the socket.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn
}

type tapConn struct {
	net.Conn
	mu     sync.Mutex
	rx, tx bytes.Buffer
	ends   []int // tx's length after each Write
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.rx.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.tx.Write(p)
	c.ends = append(c.ends, c.tx.Len())
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// afterFrame walks the framed messages in data — up to the first
// zero-length frame, which is doorbell bytes, not framing — and returns
// the last one accept takes and the bytes behind it; ok is false when no
// frame matches. The last, not the first: request ids repeat.
func afterFrame(t *testing.T, data []byte, accept func(*wire.Message) bool) (last *wire.Message, tail []byte, ok bool) {
	t.Helper()
	for len(data) >= 4 {
		n := int(binary.BigEndian.Uint32(data))
		if n == 0 || len(data) < 4+n {
			break
		}
		m, err := wire.Decode(data[4 : 4+n])
		if err != nil {
			t.Fatalf("socket tap: undecodable frame: %v", err)
		}
		data = data[4+n:]
		if accept(m) {
			last, tail, ok = m, data, true
		}
	}
	return last, tail, ok
}

// checkTaps demands of every tapped connection that was promoted that
// SHMRDY was the last framed byte the client put on the socket and the
// OK answering it the last the server did: whatever follows is doorbell
// traffic, single zero bytes. It returns the number of promoted
// connections.
func (l *tapListener) checkTaps(t *testing.T) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	promoted := 0
	for i, c := range l.conns {
		c.mu.Lock()
		rx, tx := c.rx.Bytes(), c.tx.Bytes()
		rdy, rxTail, ok := afterFrame(t, rx, func(m *wire.Message) bool { return m.Verb == "SHMRDY" })
		if ok {
			promoted++
			if len(bytes.Trim(rxTail, "\x00")) != 0 {
				t.Errorf("conn %d: client wrote framed bytes to the socket after SHMRDY: %q", i, rxTail)
			}
			// SHMRDY's reply slot is never released, so the OK answering it
			// is the last one under its id.
			_, txTail, ok := afterFrame(t, tx, func(m *wire.Message) bool {
				return m.Verb == "OK" && m.Get("id") == rdy.Get("id")
			})
			if !ok {
				t.Errorf("conn %d: no OK for SHMRDY on the socket", i)
			} else if len(bytes.Trim(txTail, "\x00")) != 0 {
				t.Errorf("conn %d: server wrote framed bytes to the socket after the SHMRDY OK: %q", i, txTail)
			}
		}
		c.mu.Unlock()
	}
	return promoted
}

// TestShmShortConnectionsNeverMap is the launch shape: a daemon joins,
// does three ops and leaves, fifty times over. Such a connection lives
// and dies on the socket: no SHMREQ, no segment, no file.
func TestShmShortConnectionsNeverMap(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	sreg, creg := telemetry.NewRegistry(), telemetry.NewRegistry()
	srv := NewServer()
	srv.SetTelemetry(sreg, nil)
	tap := &tapListener{}
	addr := serveUnix(t, srv, func(l net.Listener) net.Listener { tap.Listener = l; return tap })
	for i := 0; i < 50; i++ {
		c, err := Dial(nil, addr, "job"+strconv.Itoa(i))
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		c.SetTelemetry(creg, nil)
		if !shmOffered(c) {
			t.Fatal("HELLO over a unix socket did not answer shm=1")
		}
		if err := c.Put("pid", "4242"); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if v, _, err := c.TryGetAt(context.Background(), Local, "pid"); err != nil || v != "4242" {
			t.Fatalf("TryGet = %q, %v", v, err)
		}
		if _, _, err := c.GetAt(context.Background(), Local, "pid"); err != nil {
			t.Fatalf("Get: %v", err)
		}
		if onRing(c) {
			t.Fatal("a three-op connection was promoted")
		}
		c.Close()
	}
	for side, reg := range map[string]*telemetry.Registry{"server": sreg, "client": creg} {
		if p, f, _ := shmCounts(reg); p != 0 || f != 0 {
			t.Errorf("%s: %d promotions, %d failed over 50 three-op connections, want none attempted", side, p, f)
		}
		if n := reg.Counter("wire.shm.parks").Value() + reg.Counter("wire.shm.doorbells").Value(); n != 0 {
			t.Errorf("%s: ring counters moved (%d) with no ring", side, n)
		}
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for i, c := range tap.conns {
		c.mu.Lock()
		if _, _, seen := afterFrame(t, c.rx.Bytes(), func(m *wire.Message) bool { return strings.HasPrefix(m.Verb, "SHM") }); seen {
			t.Errorf("conn %d: server saw a SHMREQ/SHMRDY", i)
		}
		c.mu.Unlock()
	}
	if left := leakedSegments(0); len(left) != 0 {
		t.Errorf("segment files exist: %v", left)
	}
}

// TestShmPromotionAtThreshold: the reply that reaches shmPromoteAfter
// starts the promotion and not one before it; afterwards the connection
// is on its ring, both ends have counted and timed one promotion, the
// ring-wait counters move on both registries, and the file is gone.
func TestShmPromotionAtThreshold(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	sreg, creg := telemetry.NewRegistry(), telemetry.NewRegistry()
	srv := NewServer()
	srv.SetTelemetry(sreg, nil)
	c := dialT(t, serveUnix(t, srv, nil), "job1")
	c.SetTelemetry(creg, nil)
	for i := 1; i < shmPromoteAfter-1; i++ { // HELLO's OK was the first reply
		if err := c.ping(context.Background()); err != nil {
			t.Fatalf("Ping: %v", err)
		}
	}
	if p, f, _ := shmCounts(sreg); p != 0 || f != 0 || onRing(c) {
		t.Fatalf("promotion began before reply %d: server counts %d/%d, on a ring %v", shmPromoteAfter, p, f, onRing(c))
	}
	earnRing(t, c)
	for _, reg := range []*telemetry.Registry{sreg, creg} {
		waitFor(t, func() bool {
			p, f, timed := shmCounts(reg)
			return p == 1 && f == 0 && timed == 1
		})
	}
	if left := leakedSegments(0); len(left) != 0 {
		t.Errorf("segment file outlived the cutover: %v", left)
	}
	// An idle ring parks its readers and a request has to ring for them.
	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 3*shmPromoteAfter; i++ {
		if err := c.Put("k", strconv.Itoa(i)); err != nil {
			t.Fatalf("Put over the ring: %v", err)
		}
	}
	for side, reg := range map[string]*telemetry.Registry{"server": sreg, "client": creg} {
		if n := reg.Counter("wire.shm.parks").Value() + reg.Counter("wire.shm.spin.rewarded").Value(); n == 0 {
			t.Errorf("%s: no ring wait counted after the promotion", side)
		}
		if p, f, _ := shmCounts(reg); p != 1 || f != 0 {
			t.Errorf("%s: %d promotions, %d failed after %d more replies, want the one", side, p, f, 3*shmPromoteAfter)
		}
	}
}

// TestShmPromotionUnderLoad swaps transports under everything a
// connection can be doing: pipelined async puts and batches, a GET
// parked before the swap and released after it, a subscriber taking
// corked 1,000-event bursts across its own swap while it issues
// requests, and a heartbeating shard connection of a caching LASS.
// Every reply must arrive (once:
// a second would find its one-slot channel gone), the events must
// arrive in seq order, delivered + declared lost must equal published
// exactly, and the sockets must carry no framed byte after the SHMRDY
// exchange.
func TestShmPromotionUnderLoad(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	srv := NewServer()
	srv.SetEventBuffer(1 << 15)
	tap := &tapListener{}
	addr := serveUnix(t, srv, func(l net.Listener) net.Listener { tap.Listener = l; return tap })

	sub, pub := dialT(t, addr, "load"), dialT(t, addr, "load")
	var delivered, lost atomic.Uint64
	var lastSeq uint64                          // the handler's own
	if _, err := sub.subscribe(func(ev Event) { // one goroutine: the read loop
		lost.Add(ev.Lost)
		if ev.Op == "lost" {
			return // a declaration that closes a burst, not an update: it has no seq
		}
		if ev.Seq <= lastSeq {
			t.Errorf("%s: event seq %d after %d", ev.Attr, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		delivered.Add(1)
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sh := oneShard(t, addr, CacheConfig{Dial: AutoDial, ShardHeartbeat: 20 * time.Millisecond})
	// The shard's current connection. Under -race a ping can outlast its
	// 20 ms bound in a burst, and the heartbeat then retires the
	// connection; the shard's next one has to earn its own ring.
	shardConn := func() *Client {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if c, _ := sh.live(); c != nil {
				return c
			}
		}
		t.Errorf("no shard connection for 10 s")
		return nil
	}

	// GETs parked server-side while both connections are on the socket.
	released, err := pub.GetAsync("release")
	if err != nil {
		t.Fatalf("GetAsync: %v", err)
	}
	subGot := make(chan error, 1)
	go func() {
		v, _, err := sub.GetAt(context.Background(), Local, "release")
		if err == nil && v != "go" {
			err = fmt.Errorf("value %q", v)
		}
		subGot <- err
	}()

	// Readers on the subscriber's connection and through the shard's,
	// so that both earn a ring while the bursts are flowing. A tryget
	// the heartbeat cut short answers ErrConnLost, and one made before
	// the shard's next connection is up ErrShardDown.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for name, tryGet := range map[string]func() error{
		"subscriber": func() error { _, _, err := sub.TryGetAt(context.Background(), Local, "absent"); return err },
		"shard": func() error {
			_, _, err := sh.tryGet(context.Background(), "load", "absent")
			if IsRetryable(err) || errors.Is(err, ErrShardDown) {
				return ErrNotFound
			}
			return err
		},
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tryGet(); !errors.Is(err, ErrNotFound) {
					t.Errorf("%s TryGet: %v", name, err)
					return
				}
			}
		}()
	}

	published, tail := 0, 2
	for deadline := time.Now().Add(30 * time.Second); tail > 0; {
		shardRing := shardConn()
		if shardRing == nil {
			t.FailNow()
		}
		if onRing(sub) && onRing(pub) && onRing(shardRing) {
			tail-- // two more rounds with every connection on its ring
		} else if time.Now().After(deadline) {
			t.Fatalf("not every connection was promoted: sub %v pub %v shard %v", onRing(sub), onRing(pub), onRing(shardRing))
		}
		burst := make([]KV, 1000)
		for i := range burst {
			burst[i] = KV{Key: fmt.Sprintf("e%d", i), Value: strconv.Itoa(published)}
		}
		if err := pub.PutBatch(burst); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		var acks []<-chan Result
		for i := 0; i < 50; i++ {
			ch, err := pub.PutAsync(fmt.Sprintf("e-async%d", i), strconv.Itoa(published))
			if err != nil {
				t.Fatalf("PutAsync: %v", err)
			}
			acks = append(acks, ch)
		}
		for _, ch := range acks {
			if res := <-ch; res.Err != nil {
				t.Fatalf("PutAsync %s: %v", res.Attr, res.Err)
			}
		}
		published += len(burst) + len(acks)
	}
	close(stop)
	readers.Wait()

	if err := pub.Put("release", "go"); err != nil {
		t.Fatalf("Put release: %v", err)
	}
	published++
	if res := <-released; res.Err != nil || res.Value != "go" {
		t.Errorf("GET parked across the publisher's swap = %q, %v", res.Value, res.Err)
	}
	if err := <-subGot; err != nil {
		t.Errorf("GET parked across the subscriber's swap: %v", err)
	}
	// Every loss is declared without another publish to ride on (see
	// TestEventsFlowWhileGetBlocks).
	accounted := func() uint64 { return delivered.Load() + lost.Load() }
	for deadline := time.Now().Add(10 * time.Second); accounted() < uint64(published) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if d, l := delivered.Load(), lost.Load(); d+l != uint64(published) || d == 0 {
		t.Errorf("subscriber saw %d events and %d declared lost of %d published", d, l, published)
	}
	if n := tap.checkTaps(t); n < 3 {
		t.Errorf("%d connections were promoted on the server's side of the socket, want all 3", n)
	}
}

// TestEventBurstIsBounded: a publisher that keeps a subscriber's
// channel full must not hold the subscriber's connection in one corked
// write for as long as it publishes — a reply queued behind the cork
// would wait for all of it. Each burst sends what was queued when it
// began: no write carries more than the subscription's buffer plus the
// update that opened the burst, and every update is still delivered or
// declared lost.
func TestEventBurstIsBounded(t *testing.T) {
	const buffer = 8
	srv := NewServer()
	srv.SetShm(false) // every write stays on the tapped socket
	srv.SetEventBuffer(buffer)
	tap := &tapListener{}
	addr := serveUnix(t, srv, func(l net.Listener) net.Listener { tap.Listener = l; return tap })
	sub, pub := dialT(t, addr, "burst"), dialT(t, addr, "burst")
	var delivered, lost atomic.Uint64
	if _, err := sub.subscribe(func(ev Event) {
		lost.Add(ev.Lost)
		if ev.Op != "lost" {
			delivered.Add(1)
		}
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	burst := make([]KV, 1000)
	published := 0
	for round := 0; round < 20; round++ {
		for i := range burst {
			burst[i] = KV{Key: fmt.Sprintf("b%d", i), Value: strconv.Itoa(round)}
		}
		if err := pub.PutBatch(burst); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		published += len(burst)
	}
	for deadline := time.Now().Add(10 * time.Second); delivered.Load()+lost.Load() < uint64(published) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if d, l := delivered.Load(), lost.Load(); d+l != uint64(published) || d == 0 {
		t.Fatalf("subscriber saw %d events and %d declared lost of %d published", d, l, published)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	most, writes := 0, 0
	for _, c := range tap.conns {
		c.mu.Lock()
		tx, start := c.tx.Bytes(), 0
		for _, end := range c.ends {
			updates := 0
			afterFrame(t, tx[start:end], func(m *wire.Message) bool {
				if m.Verb == "EVENT" && m.Get("op") != "lost" {
					updates++
				}
				return false
			})
			most, start = max(most, updates), end
			if updates > 0 {
				writes++
			}
		}
		c.mu.Unlock()
	}
	if most > buffer+1 || writes == 0 {
		t.Errorf("%d writes carried events, the largest %d; want at most %d each", writes, most, buffer+1)
	}
}

// scriptedServer accepts one connection on a unix socket, grants shm at
// HELLO, answers PINGs, and hands every SHM* request to onShm, whose
// reply it sends. It reports the first error on the returned channel
// when the client goes away.
func scriptedServer(t *testing.T, onShm func(m *wire.Message) *wire.Message) (addr string, done <-chan error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	errc := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		wc := wire.NewConn(conn)
		for {
			m, err := wc.Recv()
			if err != nil {
				errc <- nil // client gone: the script ran to its end
				return
			}
			var reply *wire.Message
			switch m.Verb {
			case "HELLO":
				reply = wire.NewMessage("OK").Set("rev", ProtocolRevision).Set("shm", "1")
			case "PING":
				reply = wire.NewMessage("PONG")
			case "SHMREQ", "SHMRDY":
				reply = onShm(m)
			case "EXIT":
				continue
			default:
				errc <- fmt.Errorf("unexpected frame %v", m)
				return
			}
			if err := wc.Send(reply.Set("id", m.Get("id"))); err != nil {
				errc <- err
				return
			}
		}
	}()
	return "unix:" + path, errc
}

// TestShmFallbackWhenSegmentUnmappable: a server that answers SHMREQ
// with a segment path the client cannot map (gone, truncated, wrong fs,
// another user's) must end up with the client on the plain socket path:
// the client says so in a SHMRDY that carries the error — so the server
// can drop the segment — swaps nothing, and never asks again. Driven
// with a scripted server so the failure can be injected.
func TestShmFallbackWhenSegmentUnmappable(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	var reqs, aborts atomic.Int64
	missing := filepath.Join(t.TempDir(), "no-such-segment")
	addr, done := scriptedServer(t, func(m *wire.Message) *wire.Message {
		if m.Verb == "SHMREQ" {
			reqs.Add(1)
			return wire.NewMessage("OK").Set("shmfile", missing)
		}
		if m.Get("error") == "" {
			t.Errorf("client sent a plain SHMRDY for an unmappable segment")
		}
		aborts.Add(1)
		return wire.NewMessage("ERROR").Set("error", m.Get("error"))
	})
	creg := telemetry.NewRegistry()
	c, err := Dial(nil, addr, "job1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c.SetTelemetry(creg, nil)
	for i := 0; i < 3*shmPromoteAfter; i++ {
		if err := c.ping(context.Background()); err != nil {
			t.Fatalf("Ping %d on the socket: %v", i, err)
		}
	}
	waitFor(t, func() bool {
		_, f, _ := shmCounts(creg)
		return f == 1
	})
	if onRing(c) {
		t.Error("on a ring over an unmappable segment")
	}
	if err := c.ping(context.Background()); err != nil {
		t.Fatalf("Ping after the failed promotion: %v", err)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
	if r, a := reqs.Load(), aborts.Load(); r != 1 || a != 1 {
		t.Errorf("server saw %d SHMREQ and %d SHMRDY reports over %d replies, want one of each", r, a, 3*shmPromoteAfter)
	}
}

// TestShmPromotionRefusedAtSHMRDY: by the time a server answers SHMRDY
// with anything but OK the client's write side is on a ring nobody
// reads, so the connection must fail — with the typed, retryable error
// a lost connection yields — rather than hang.
func TestShmPromotionRefusedAtSHMRDY(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	segPath := filepath.Join(t.TempDir(), "seg")
	addr, done := scriptedServer(t, func(m *wire.Message) *wire.Message {
		if m.Verb == "SHMREQ" {
			if _, err := wire.CreateShmSegment(segPath, 0); err != nil {
				t.Errorf("CreateShmSegment: %v", err)
			}
			return wire.NewMessage("OK").Set("shmfile", segPath)
		}
		return wire.NewMessage("ERROR").Set("error", "not today")
	})
	c, err := Dial(nil, addr, "job1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var opErr error
	waitFor(t, func() bool {
		opErr = c.ping(context.Background())
		return opErr != nil
	})
	if !IsRetryable(opErr) {
		t.Errorf("refused cutover surfaced %v, want a retryable connection loss", opErr)
	}
	if onRing(c) {
		t.Error("on a ring after a refused SHMRDY")
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
}

// TestShmPromotionCreateFails: a server that cannot create a segment
// (no tmpfs and an unusable temp directory) answers SHMREQ with an
// error; the connection carries on over the socket and never asks again.
func TestShmPromotionCreateFails(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	sreg, creg := telemetry.NewRegistry(), telemetry.NewRegistry()
	srv := NewServer()
	srv.SetTelemetry(sreg, nil)
	// Before the server's goroutines exist, and restored after they are
	// told to go: they read both.
	nowhere := filepath.Join(t.TempDir(), "absent")
	realDir := shmDir
	shmDir = func() string { return nowhere }
	t.Cleanup(func() { shmDir = realDir })
	addr := serveUnix(t, srv, nil)
	t.Setenv("TMPDIR", nowhere)

	c := dialT(t, addr, "job1")
	c.SetTelemetry(creg, nil)
	for i := 0; i < 3*shmPromoteAfter; i++ {
		if err := c.Put("k", strconv.Itoa(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for side, reg := range map[string]*telemetry.Registry{"server": sreg, "client": creg} {
		waitFor(t, func() bool {
			_, f, _ := shmCounts(reg)
			return f == 1
		})
		if p, f, _ := shmCounts(reg); p != 0 || f != 1 {
			t.Errorf("%s: %d promotions, %d failed, want 0 and 1 (never retried)", side, p, f)
		}
	}
	if onRing(c) {
		t.Error("on a ring with no segment")
	}
	if v, _, err := c.TryGetAt(context.Background(), Local, "k"); err != nil || v != strconv.Itoa(3*shmPromoteAfter-1) {
		t.Errorf("TryGet on the socket after the failed promotion = %q, %v", v, err)
	}
}

// TestShmPromotionAbandoned drives the server's side of the two ways a
// promotion can stop between SHMREQ and SHMRDY, with a raw wire client:
// the client reports that it could not map the segment, and the
// connection is killed (through netsim's chaos injector) before it says
// anything. Either way the segment file goes at once, the failure is
// counted, and a second SHMREQ is refused — the grant was used.
func TestShmPromotionAbandoned(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	sreg := telemetry.NewRegistry()
	srv := NewServer()
	srv.SetTelemetry(sreg, nil)
	sim := netsim.New()
	sim.EnableSameHost(true)
	node := sim.AddHost("node")
	l, err := node.Listen(0)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	chaos := netsim.NewChaos(netsim.ChaosConfig{Seed: chaosSeed(t)})

	// request dials, joins, asks for a ring and returns the conn with
	// the segment file in place.
	request := func() (*wire.Conn, string) {
		raw, err := chaos.Dial(node.Dial)(l.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { raw.Close() })
		wc := wire.NewConn(raw)
		for _, m := range []*wire.Message{
			wire.NewMessage("HELLO").Set("context", "raw").Set("rev", ProtocolRevision).Set("shm", "1"),
			wire.NewMessage("SHMREQ"),
		} {
			if err := wc.Send(m.Set("id", m.Verb)); err != nil {
				t.Fatalf("%s: %v", m.Verb, err)
			}
			reply, err := wc.Recv()
			if err != nil || reply.Verb != "OK" {
				t.Fatalf("%s reply = %v, %v", m.Verb, reply, err)
			}
			if m.Verb == "SHMREQ" {
				if _, err := os.Stat(reply.Get("shmfile")); err != nil {
					t.Fatalf("segment file after SHMREQ: %v", err)
				}
				return wc, reply.Get("shmfile")
			}
		}
		panic("unreachable")
	}
	gone := func(path string) func() bool {
		return func() bool { _, err := os.Stat(path); return os.IsNotExist(err) }
	}

	wc, path := request()
	roundTrip := func(m *wire.Message) *wire.Message {
		t.Helper()
		if err := wc.Send(m.Set("id", "x")); err != nil {
			t.Fatalf("%s: %v", m.Verb, err)
		}
		reply, err := wc.Recv()
		if err != nil {
			t.Fatalf("%s reply: %v", m.Verb, err)
		}
		return reply
	}
	if reply := roundTrip(wire.NewMessage("SHMRDY").Set("error", "cannot map")); reply.Verb != "ERROR" {
		t.Errorf("reply to a SHMRDY reporting failure = %v, want ERROR", reply)
	}
	if !gone(path)() {
		t.Errorf("segment file %s outlived the client's failure report", path)
	}
	for _, verb := range []string{"SHMREQ", "SHMRDY"} {
		if reply := roundTrip(wire.NewMessage(verb)); reply.Verb != "ERROR" || !strings.Contains(reply.Get("error"), "unknown verb") {
			t.Errorf("second %s = %v, want an unknown-verb error", verb, reply)
		}
	}
	if reply := roundTrip(wire.NewMessage("PING")); reply.Verb != "PONG" {
		t.Errorf("PING on the socket after the abandoned promotion = %v", reply)
	}

	_, path = request()
	chaos.CutAll()
	waitFor(t, gone(path))
	waitFor(t, func() bool {
		p, f, _ := shmCounts(sreg)
		return p == 0 && f == 2
	})
}
