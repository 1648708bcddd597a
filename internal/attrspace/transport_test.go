package attrspace

import (
	"context"
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

	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// ---------------------------------------------------------------------------
// The revision handshake.

// TestRevisionHandshake: HELLO is the one place a peer of another (or
// no) protocol revision is told so. A raw peer — revision 1 among them,
// whose SUB named an origin of its own and whose OK carried no
// incarnation, revision 2, which repaired a session from SNAPD deltas,
// and revision 3, whose server would stall its events after 32 KiB
// waiting for window grants a revision-4 client never sends — gets the
// stable ERROR and the server keeps nothing of
// it: no context joined, the connection dropped; a client dialing a
// server whose OK names no revision gets ErrProtocolRevision instead of
// a half-working connection.
func TestRevisionHandshake(t *testing.T) {
	srv, addr := startServer(t)
	conns := srv.Telemetry().Gauge("attrspace.conns")
	for _, hello := range []*wire.Message{
		wire.NewMessage("HELLO").Set("context", "stray"),
		wire.NewMessage("HELLO").Set("context", "stray").Set("rev", "0"),
		wire.NewMessage("HELLO").Set("context", "stray").Set("rev", "1"),
		wire.NewMessage("HELLO").Set("context", "stray").Set("rev", "2"),
		wire.NewMessage("HELLO").Set("context", "stray").Set("rev", "3"),
		wire.NewMessage("HELLO").Set("context", "stray").Set("caps", "mux,snapd,chunk,ping,bytewin"),
	} {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		wc := wire.NewConn(raw)
		if err := wc.Send(hello.Set("id", "1")); err != nil {
			t.Fatalf("HELLO: %v", err)
		}
		reply, err := wc.Recv()
		if err != nil || reply.Verb != "ERROR" || reply.Get("error") != revisionMismatch || reply.Get("id") != "1" {
			t.Fatalf("reply to %v = %v, %v; want ERROR %q", hello, reply, err, revisionMismatch)
		}
		// Nothing else: the server hangs up behind the error.
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if m, err := wc.Recv(); err == nil {
			t.Fatalf("server kept talking after the revision error: %v", m)
		}
		raw.Close()
		waitFor(t, func() bool { return conns.Value() == 0 })
		if refs := srv.Space().Refs("stray"); refs != 0 {
			t.Fatalf("refused HELLO joined its context (refs %d)", refs)
		}
	}

	// The client's half, against stubs: one that says a bare OK to
	// anything, the way a build without the revision would, and one that
	// refuses ours the way a server of another revision does.
	for name, answer := range map[string]*wire.Message{
		"bare OK":        wire.NewMessage("OK"),
		"other revision": wire.NewMessage("OK").Set("rev", "1"),
		"revision ERROR": wire.NewMessage("ERROR").Set("error", revisionMismatch),
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			wc := wire.NewConn(conn)
			for {
				m, err := wc.Recv()
				if err != nil {
					return
				}
				wc.Send(answer.Set("id", m.Get("id")))
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		c, err := DialCtx(ctx, TCPDial, l.Addr().String(), "job1")
		cancel()
		if err == nil {
			c.Close()
			t.Fatalf("%s: Dial succeeded", name)
		}
		if !errors.Is(err, ErrProtocolRevision) {
			t.Fatalf("%s: Dial error = %v, want ErrProtocolRevision", name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: Dial took %v to refuse; it must not wait out its timeout", name, d)
		}
	}
}

// ---------------------------------------------------------------------------
// Chunked snapshot replies.

func TestChunkedSnapshotReassembly(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job1")
	n := SnapChunkEntries*2 + 37 // forces 3 parts
	var pairs []KV
	for i := 0; i < n; i++ {
		pairs = append(pairs, KV{Key: fmt.Sprintf("attr%04d", i), Value: fmt.Sprintf("val%d", i)})
	}
	if err := c.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	snap, ctxSeq, err := c.SnapshotSeq(context.Background())
	if err != nil {
		t.Fatalf("SnapshotSeq: %v", err)
	}
	if len(snap) != n {
		t.Fatalf("reassembled snapshot = %d entries, want %d", len(snap), n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("attr%04d", i)
		v, ok := snap[k]
		if !ok || v.Value != fmt.Sprintf("val%d", i) {
			t.Fatalf("snap[%s] = %+v, %v", k, v, ok)
		}
	}
	if ctxSeq == 0 {
		t.Error("chunked snapshot carried no context seq")
	}
}

// TestSnapshotInterleavesWithPing is the heartbeat-starvation check at
// the protocol level: while a multi-part snapshot streams on the bulk
// stream, a PING issued mid-replay must come back without waiting for
// the replay to finish.
func TestSnapshotInterleavesWithPing(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job1")
	var pairs []KV
	for i := 0; i < SnapChunkEntries*8; i++ {
		pairs = append(pairs, KV{Key: fmt.Sprintf("attr%05d", i), Value: "x"})
	}
	if err := c.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		snap, _, err := c.SnapshotSeq(context.Background())
		if err == nil && len(snap) != len(pairs) {
			err = fmt.Errorf("snapshot = %d entries, want %d", len(snap), len(pairs))
		}
		done <- err
	}()
	// Pings racing the replay: each must complete promptly.
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := c.ping(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Ping during snapshot replay: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Same-host fast path.

func TestUnixSocketRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdp.sock")
	srv := NewServer()
	bound, err := srv.ListenAndServe("unix:" + path)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(srv.Close)
	if bound != "unix:"+path {
		t.Fatalf("bound = %q", bound)
	}
	c := dialT(t, bound, "job1")
	if err := c.Put("pid", "7"); err != nil {
		t.Fatalf("Put over unix socket: %v", err)
	}
	if v, _, err := c.TryGetAt(context.Background(), Local, "pid"); err != nil || v != "7" {
		t.Fatalf("TryGet = %q, %v", v, err)
	}
}

func TestAutoDialPrefersUnixBeside(t *testing.T) {
	srv, addr := startServer(t)
	side, err := srv.ListenUnixBeside(addr)
	if err != nil {
		t.Fatalf("ListenUnixBeside: %v", err)
	}
	if side == "" {
		t.Fatal("ListenUnixBeside derived no socket for a bound TCP address")
	}
	conn, err := AutoDial(addr)
	if err != nil {
		t.Fatalf("AutoDial: %v", err)
	}
	defer conn.Close()
	if got := conn.RemoteAddr().Network(); got != "unix" {
		t.Fatalf("AutoDial used %s for a loopback address with a live side socket", got)
	}
	// And the full protocol stack rides it.
	c := dialT(t, addr, "job1")
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

func TestAutoDialFallsBackToTCP(t *testing.T) {
	_, addr := startServer(t) // no unix side socket
	conn, err := AutoDial(addr)
	if err != nil {
		t.Fatalf("AutoDial: %v", err)
	}
	defer conn.Close()
	if got := conn.RemoteAddr().Network(); got != "tcp" {
		t.Fatalf("AutoDial network = %s, want tcp fallback", got)
	}
}

func TestSocketPathFor(t *testing.T) {
	if p := SocketPathFor("127.0.0.1:4510"); p == "" {
		t.Error("no path for a normal host:port")
	}
	for _, bad := range []string{"", "nohost", "127.0.0.1:0", "host:"} {
		if p := SocketPathFor(bad); p != "" {
			t.Errorf("SocketPathFor(%q) = %q, want empty", bad, p)
		}
	}
	// Server and clients derive the path apart, so it must be the one
	// filepath.Join names whatever the temp directory's spelling.
	for _, dir := range []string{"/tmp", "/tmp/", "/var/tmp/tdp", "/"} {
		t.Setenv("TMPDIR", dir)
		want := filepath.Join(dir, "tdp-attr-4510.sock")
		if got := SocketPathFor("127.0.0.1:4510"); got != want {
			t.Errorf("TMPDIR=%s: SocketPathFor = %q, want %q", dir, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { SocketPathFor("127.0.0.1:4510") }); n > 1 {
		t.Errorf("SocketPathFor allocates %.0f objects, want the path alone", n)
	}
}

// ---------------------------------------------------------------------------
// Event fan-out: a blocked GET must not stall event delivery.

// The rule the count follows: a subscription's server-side ring holds
// 64 updates and drops the oldest when the publisher outruns the drain,
// so of 100 puts each is either delivered or declared lost — in the Lost
// field of the EVENT that opens the next burst, or of the op=lost marker
// that closes the burst the drop happened in. The test therefore demands
// delivered + declared == 100 (never 100 delivered), with nothing
// published after the 100 puts to carry a late declaration.
func TestEventsFlowWhileGetBlocks(t *testing.T) {
	_, addr := startServer(t)
	watcher := dialT(t, addr, "job1")
	writer := dialT(t, addr, "job1")
	var delivered, lost atomic.Int64
	if _, err := watcher.subscribe(func(ev Event) {
		lost.Add(int64(ev.Lost))
		if strings.HasPrefix(ev.Attr, "e") {
			delivered.Add(1)
		}
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	// A GET for an attribute nobody ever writes parks server-side.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		watcher.GetAt(ctx, Local, "never-written")
	}()

	for i := 0; i < 100; i++ {
		if err := writer.Put(fmt.Sprintf("e%02d", i), "v"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); delivered.Load()+lost.Load() < 100 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if d, l := delivered.Load(), lost.Load(); d+l != 100 || d == 0 {
		t.Fatalf("watcher saw %d events and %d declared lost while a GET was parked, want 100 accounted for", d, l)
	}
	cancel()
	wg.Wait()
}

// ---------------------------------------------------------------------------
// The shared-memory ring promotion.

// TestShmCutoverOverUnixSocket is the happy path: a client dialing the
// unix socket negotiates shm, earns its ring, and every kind of
// traffic — puts, batches, chunked snapshots, events, pings — rides
// it.
func TestShmCutoverOverUnixSocket(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	path := filepath.Join(t.TempDir(), "tdp.sock")
	srv := NewServer()
	bound, err := srv.ListenAndServe("unix:" + path)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(srv.Close)
	c := dialT(t, bound, "job1")
	if !shmOffered(c) {
		t.Fatal("HELLO over a unix socket did not answer shm=1")
	}
	if onRing(c) {
		t.Fatal("a connection with one reply behind it is on a ring")
	}
	earnRing(t, c)

	if err := c.Put("pid", "42"); err != nil {
		t.Fatalf("Put over ring: %v", err)
	}
	if v, _, err := c.TryGetAt(context.Background(), Local, "pid"); err != nil || v != "42" {
		t.Fatalf("TryGet over ring = %q, %v", v, err)
	}
	// A chunked snapshot (multi-part bulk reply) across the ring.
	var pairs []KV
	for i := 0; i < SnapChunkEntries+17; i++ {
		pairs = append(pairs, KV{Key: fmt.Sprintf("attr%04d", i), Value: "v"})
	}
	if err := c.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch over ring: %v", err)
	}
	snap, _, err := c.SnapshotSeq(context.Background())
	if err != nil {
		t.Fatalf("SnapshotSeq over ring: %v", err)
	}
	if len(snap) != len(pairs)+1 { // + pid
		t.Fatalf("snapshot = %d entries, want %d", len(snap), len(pairs)+1)
	}
	if err := c.ping(context.Background()); err != nil {
		t.Fatalf("Ping over ring: %v", err)
	}

	// Event fan-out: a second ring connection watches the first's puts.
	watcher := dialT(t, bound, "job1")
	earnRing(t, watcher)
	var events atomic.Int64
	if _, err := watcher.subscribe(func(Event) { events.Add(1) }); err != nil {
		t.Fatalf("Subscribe over ring: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := c.Put(fmt.Sprintf("ev%02d", i), "x"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for events.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := events.Load(); got < 50 {
		t.Fatalf("watcher saw %d ring events, want 50", got)
	}
	// The segment file must be gone: unlinked right after the cutover.
	segs, _ := filepath.Glob(filepath.Join(t.TempDir(), "tdp-shm-*"))
	if len(segs) != 0 {
		t.Errorf("segment files leaked in test dir: %v", segs)
	}
}

// TestShmIdleRingsStopSpinning is the global_write shape in miniature:
// two shm clients of one in-process server take turns, with a
// TCP-dialled client between them, so each ring sees a message only
// now and then. A reader that spins for a message nobody owes it keeps
// the scheduler from ever polling the network, which stalls the other
// ring's doorbell and the TCP client alike — so once a ring's arrivals
// have come late a few times in a row it must park without spinning,
// and the spins wasted over the whole run are bounded by a constant
// (four ring readers, a few spins each before they go cold), not by
// the number of ops. The sleep keeps every arrival gap above the spin
// budget whatever the speed of the box.
func TestShmIdleRingsStopSpinning(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	reg := telemetry.NewRegistry()
	srv := NewServer()
	srv.SetTelemetry(reg, nil)
	path := filepath.Join(t.TempDir(), "tdp.sock")
	unixAddr, err := srv.ListenAndServe("unix:" + path)
	if err != nil {
		t.Fatalf("ListenAndServe unix: %v", err)
	}
	tcpAddr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe tcp: %v", err)
	}
	t.Cleanup(srv.Close)
	a, b := dialT(t, unixAddr, "job1"), dialT(t, unixAddr, "job2")
	for _, c := range []*Client{a, b} {
		c.SetTelemetry(reg, nil)
		earnRing(t, c)
	}
	remote, err := Dial(TCPDial, tcpAddr, "job3")
	if err != nil {
		t.Fatalf("Dial tcp: %v", err)
	}
	t.Cleanup(func() { remote.Close() })

	wasted := reg.Counter("wire.shm.spin.wasted")
	cycles := func(n int) {
		for i := 0; i < n; i++ {
			for _, c := range []*Client{a, remote, b, remote} {
				if err := c.Put("k", strconv.Itoa(i)); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			time.Sleep(300 * time.Microsecond)
		}
	}
	cycles(50)
	settled := wasted.Value()
	cycles(400)
	const maxWasted = 4 * 8
	if got := wasted.Value(); got != settled || got > maxWasted {
		t.Errorf("wire.shm.spin.wasted = %d after 50 cycles and %d after 450, want it settled and <= %d",
			settled, got, maxWasted)
	}
	if parks := reg.Counter("wire.shm.parks").Value(); parks < 4*400 {
		t.Errorf("wire.shm.parks = %d, want every idle wait of the last 400 cycles (>= %d) to be a park", parks, 4*400)
	}
}

// TestShmWithdrawnByServer: a server with SetShm(false) — the daemons'
// -shm=false — leaves a same-host client on its socket however much
// traffic it carries.
func TestShmWithdrawnByServer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdp.sock")
	srv := NewServer()
	srv.SetShm(false)
	bound, err := srv.ListenAndServe("unix:" + path)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(srv.Close)
	c := dialT(t, bound, "job1")
	for i := 0; i < 2*shmPromoteAfter; i++ {
		if err := c.Put("k", "v"); err != nil {
			t.Fatalf("Put on the socket: %v", err)
		}
	}
	if shmOffered(c) || onRing(c) {
		t.Fatal("shm engaged against a server that withholds it")
	}
	if n := srv.Telemetry().Counter("attrspace.shm.promotions").Value(); n != 0 {
		t.Fatalf("attrspace.shm.promotions = %d with shm off", n)
	}
}

// TestShmNotOfferedOverTCP: a TCP connection — even to localhost — is
// not provably same-host at the transport level, so a ring is never
// asked for and never offered.
func TestShmNotOfferedOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(TCPDial, addr, "job1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if shmOffered(c) || onRing(c) {
		t.Fatal("shm engaged over TCP")
	}
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

// TestAutoDialRemovesStaleSocket is the satellite regression test: a
// leftover socket file from a crashed daemon (exists, but connection
// refused) must not wedge AutoDial — it falls through to TCP and
// clears the dead file so later dials go straight there.
func TestAutoDialRemovesStaleSocket(t *testing.T) {
	srv, addr := startServer(t) // TCP only
	_ = srv
	path := SocketPathFor(addr)
	if path == "" {
		t.Fatal("no conventional socket path for test address")
	}
	ul, err := net.Listen("unix", path)
	if err != nil {
		t.Fatalf("staging stale socket: %v", err)
	}
	// Close WITHOUT unlinking: exactly the state a crashed daemon
	// leaves behind.
	ul.(*net.UnixListener).SetUnlinkOnClose(false)
	ul.Close()
	t.Cleanup(func() { os.Remove(path) })

	conn, err := AutoDial(addr)
	if err != nil {
		t.Fatalf("AutoDial with stale socket present: %v", err)
	}
	defer conn.Close()
	if got := conn.RemoteAddr().Network(); got != "tcp" {
		t.Fatalf("AutoDial network = %s, want tcp fallthrough", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("stale socket file not removed (stat err = %v)", err)
	}
	// And the whole client stack works through the fallback.
	c := dialT(t, addr, "job1")
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put after stale-socket fallback: %v", err)
	}
}
