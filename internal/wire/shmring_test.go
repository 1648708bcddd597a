//go:build linux || darwin

package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/telemetry"
)

// shmPair maps one segment from both ends — exactly what a real
// connection does: the server creates the file, the client opens it —
// and wires the two endpoints' doorbells together with an in-memory
// pipe standing in for the unix socket.
func shmPair(t *testing.T, ringSize int) (server, client *ShmEndpoint) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ring.shm")
	seg, err := CreateShmSegment(path, ringSize)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := OpenShmSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(path) // the mappings alone keep the pages alive
	ss, cs := net.Pipe()
	server = seg.Endpoint(true, ss)
	client = peer.Endpoint(false, cs)
	server.Activate()
	client.Activate()
	t.Cleanup(func() { server.Close(); client.Close() })
	return server, client
}

func TestShmSegmentValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateShmSegment(filepath.Join(dir, "odd.shm"), 5000); !errors.Is(err, ErrShmBadSegment) {
		t.Fatalf("non-power-of-two size: err = %v, want ErrShmBadSegment", err)
	}
	if _, err := OpenShmSegment(filepath.Join(dir, "absent.shm")); err == nil {
		t.Fatal("opening a missing segment succeeded")
	}
	// Too small to hold even the header and minimum rings.
	runt := filepath.Join(dir, "runt.shm")
	if err := os.WriteFile(runt, make([]byte, 128), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShmSegment(runt); !errors.Is(err, ErrShmBadSegment) {
		t.Fatalf("runt file: err = %v, want ErrShmBadSegment", err)
	}
	// Right size, wrong magic (an all-zero file of plausible length).
	blank := filepath.Join(dir, "blank.shm")
	if err := os.WriteFile(blank, make([]byte, shmHdrSize+2*4096), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShmSegment(blank); !errors.Is(err, ErrShmBadSegment) {
		t.Fatalf("bad magic: err = %v, want ErrShmBadSegment", err)
	}
	// A valid create/open round trip reports the stamped ring size.
	good := filepath.Join(dir, "good.shm")
	seg, err := CreateShmSegment(good, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if seg.RingSize() != 8192 {
		t.Fatalf("creator RingSize = %d, want 8192", seg.RingSize())
	}
	peer, err := OpenShmSegment(good)
	if err != nil {
		t.Fatal(err)
	}
	if peer.RingSize() != 8192 {
		t.Fatalf("opener RingSize = %d, want 8192", peer.RingSize())
	}
	if _, err := CreateShmSegment(good, 8192); err == nil {
		t.Fatal("creating over an existing file succeeded")
	}
}

// TestShmRingByteStream pushes far more data than the ring holds in
// both directions at once, with pseudorandom write sizes, and verifies
// the streams arrive byte-exact — wraparound, partial writes, and the
// park/wake paths all get exercised on a 4 KiB ring.
func TestShmRingByteStream(t *testing.T) {
	server, client := shmPair(t, 4096)
	const total = 1 << 20

	stream := func(src *rand.Rand, w io.Writer, errs chan<- error) {
		sent := 0
		for sent < total {
			n := 1 + src.Intn(10000)
			if n > total-sent {
				n = total - sent
			}
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(sent + i)
			}
			if _, err := w.Write(buf); err != nil {
				errs <- err
				return
			}
			sent += n
		}
		errs <- nil
	}
	drain := func(r io.Reader, errs chan<- error) {
		got := make([]byte, 0, total)
		buf := make([]byte, 8192)
		for len(got) < total {
			n, err := r.Read(buf)
			if err != nil {
				errs <- err
				return
			}
			got = append(got, buf[:n]...)
		}
		for i, b := range got {
			if b != byte(i) {
				errs <- errors.New("byte stream corrupted")
				return
			}
		}
		errs <- nil
	}

	errs := make(chan error, 4)
	go stream(rand.New(rand.NewSource(1)), client, errs)
	go stream(rand.New(rand.NewSource(2)), server, errs)
	go drain(server, errs)
	go drain(client, errs)
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("ring transfer did not finish")
		}
	}
}

// TestShmRingFramedMessages runs the real framing over the ring,
// including a message several times larger than the ring itself (it
// must stream through in pieces).
func TestShmRingFramedMessages(t *testing.T) {
	server, client := shmPair(t, 4096)
	sc, cc := NewConn(server), NewConn(client)

	big := strings.Repeat("v", 3*4096)
	done := make(chan error, 1)
	go func() {
		if err := cc.Send(NewMessage("PUT").Set("attr", "a").Set("val", "1")); err != nil {
			done <- err
			return
		}
		done <- cc.Send(NewMessage("SNAPV").Set("blob", big))
	}()
	m, err := sc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Verb != "PUT" || m.Get("attr") != "a" {
		t.Fatalf("first frame = %v", m)
	}
	m, err = sc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Verb != "SNAPV" || m.Get("blob") != big {
		t.Fatal("oversized frame did not survive the ring")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// And the reverse direction still works.
	go sc.Send(NewMessage("OK"))
	if m, err = cc.Recv(); err != nil || m.Verb != "OK" {
		t.Fatalf("reverse frame: %v, %v", m, err)
	}
}

// TestShmRingParkAndWake forces the reader all the way into the parked
// state (no data for much longer than the spin budget) and verifies a
// late write still wakes it via the doorbell.
func TestShmRingParkAndWake(t *testing.T) {
	server, client := shmPair(t, 4096)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, err := server.Read(buf)
		if err != nil {
			t.Error(err)
			got <- nil
			return
		}
		got <- buf[:n]
	}()
	time.Sleep(100 * time.Millisecond) // reader is parked by now
	if _, err := client.Write([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if !bytes.Equal(b, []byte("wake")) {
			t.Fatalf("read %q, want %q", b, "wake")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked reader never woke")
	}
}

// TestShmRingDrainsBeforeDeath: data already in the ring must be
// readable after the peer closes — a dæmon's final replies survive its
// exit — and only then does the transport error surface.
func TestShmRingDrainsBeforeDeath(t *testing.T) {
	server, client := shmPair(t, 4096)
	if _, err := client.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	buf := make([]byte, 32)
	n, err := server.Read(buf)
	if err != nil {
		t.Fatalf("read after peer close: %v (data must drain first)", err)
	}
	if string(buf[:n]) != "last words" {
		t.Fatalf("drained %q", buf[:n])
	}
	if _, err := server.Read(buf); err == nil {
		t.Fatal("no error after ring drained and peer dead")
	}
	// A writer against a dead transport fails too (possibly after the
	// doorbell reader notices; give it the full park path).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := server.Write([]byte("x")); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write against dead transport kept succeeding")
		}
	}
}

// BenchmarkShmRingThroughput measures raw ring bandwidth for the
// EXPERIMENTS E22 curve: one producer streaming fixed-size chunks to
// one consumer through the default-size ring. Untracked (not part of
// the bench gate) — the tracked same-host numbers live in attrspace's
// BenchmarkSameHostPut.
func BenchmarkShmRingThroughput(b *testing.B) {
	for _, chunk := range []int{64, 512, 4096, 32768} {
		b.Run(byteSizeName(chunk), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "ring.shm")
			seg, err := CreateShmSegment(path, 0)
			if err != nil {
				b.Fatal(err)
			}
			peer, err := OpenShmSegment(path)
			if err != nil {
				b.Fatal(err)
			}
			os.Remove(path)
			ss, cs := net.Pipe()
			server := seg.Endpoint(true, ss)
			client := peer.Endpoint(false, cs)
			server.Activate()
			client.Activate()
			defer server.Close()
			defer client.Close()

			done := make(chan struct{})
			go func() {
				defer close(done)
				buf := make([]byte, 64<<10)
				total := b.N * chunk
				got := 0
				for got < total {
					n, err := server.Read(buf)
					if err != nil {
						return
					}
					got += n
				}
			}()
			buf := make([]byte, chunk)
			b.SetBytes(int64(chunk))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Write(buf); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}

func byteSizeName(n int) string {
	if n >= 1<<10 && n%(1<<10) == 0 {
		return strconv.Itoa(n>>10) + "KiB"
	}
	return strconv.Itoa(n) + "B"
}

// The policy tests below run the endpoints on a clock the test owns and
// assert only on the ring-wait counters: a spin ends when bytes arrive
// or when the test moves the clock past the budget, never because the
// box was slow.

type fakeClock struct{ ns, reads atomic.Int64 }

func (c *fakeClock) now() time.Duration {
	c.reads.Add(1)
	return time.Duration(c.ns.Load())
}

func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// clockedPair is shmPair with both endpoints on one fake clock and each
// counting into its own registry.
func clockedPair(t *testing.T) (server, client *ShmEndpoint, clk *fakeClock, sreg, creg *telemetry.Registry) {
	t.Helper()
	server, client = shmPair(t, 4096)
	clk = &fakeClock{}
	sreg, creg = telemetry.NewRegistry(), telemetry.NewRegistry()
	for ep, reg := range map[*ShmEndpoint]*telemetry.Registry{server: sreg, client: creg} {
		ep.now = clk.now
		ctr := newRingCounters(reg)
		ep.instrument(&ctr)
	}
	return
}

type ringCounts struct{ rewarded, wasted, parks, doorbells int64 }

func ringCountsOf(reg *telemetry.Registry) ringCounts {
	return ringCounts{
		rewarded:  reg.Counter("wire.shm.spin.rewarded").Value(),
		wasted:    reg.Counter("wire.shm.spin.wasted").Value(),
		parks:     reg.Counter("wire.shm.parks").Value(),
		doorbells: reg.Counter("wire.shm.doorbells").Value(),
	}
}

// eventually polls cond, which must come true through some other
// goroutine's progress; the deadline only turns a hang into a failure.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// readOne starts a one-byte Read on ep and returns the channel its
// result arrives on.
func readOne(t *testing.T, ep *ShmEndpoint) <-chan byte {
	got := make(chan byte, 1)
	go func() {
		var b [1]byte
		if _, err := ep.Read(b[:]); err != nil {
			t.Errorf("Read: %v", err)
		}
		got <- b[0]
	}()
	return got
}

// lateArrivals delivers n single bytes to reader, each a full two
// budgets after the one before and already in the ring when it is read,
// so none of them involves a wait.
func lateArrivals(t *testing.T, clk *fakeClock, writer, reader *ShmEndpoint, n int) {
	t.Helper()
	var b [1]byte
	for i := 0; i < n; i++ {
		clk.advance(2 * shmSpinBudget)
		if _, err := writer.Write([]byte{'l'}); err != nil {
			t.Fatal(err)
		}
		if _, err := reader.Read(b[:]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShmPingPongStaysInUserSpace: a pair trading messages faster than
// the budget never parks and never writes a doorbell byte.
func TestShmPingPongStaysInUserSpace(t *testing.T) {
	server, client, _, sreg, creg := clockedPair(t)
	go func() { // echo
		var b [8]byte
		for {
			n, err := server.Read(b[:])
			if err != nil {
				return
			}
			if _, err := server.Write(b[:n]); err != nil {
				return
			}
		}
	}()
	roundTrips := func(n int) {
		var b [8]byte
		for i := 0; i < n; i++ {
			if _, err := client.Write([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(client, b[:4]); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrips(16) // warm-up
	s0, c0 := ringCountsOf(sreg), ringCountsOf(creg)
	roundTrips(2000)
	s1, c1 := ringCountsOf(sreg), ringCountsOf(creg)
	if s1.parks != s0.parks || c1.parks != c0.parks {
		t.Errorf("parks moved during ping-pong: server %d→%d, client %d→%d", s0.parks, s1.parks, c0.parks, c1.parks)
	}
	if s1.doorbells != s0.doorbells || c1.doorbells != c0.doorbells {
		t.Errorf("doorbells rung during ping-pong: server %d→%d, client %d→%d", s0.doorbells, s1.doorbells, c0.doorbells, c1.doorbells)
	}
	if s1.wasted != s0.wasted || c1.wasted != c0.wasted {
		t.Errorf("spins wasted during ping-pong: server %d→%d, client %d→%d", s0.wasted, s1.wasted, c0.wasted, c1.wasted)
	}
}

// TestShmColdRingParksAtOnce walks one reader through the whole policy:
// a wasted spin, the run of late arrivals that turns the ring cold, a
// park with no spin at all, and the single early arrival that re-arms
// spinning.
func TestShmColdRingParksAtOnce(t *testing.T) {
	server, client, clk, sreg, creg := clockedPair(t)
	// parked reports whether the reader has gone to sleep n times so
	// far; the counter moves after everything else a wait counts.
	parked := func(n int64) func() bool {
		return func() bool { return ringCountsOf(sreg).parks == n }
	}

	// A new ring spins. Nothing arrives and the budget runs out: one
	// wasted spin, one park, and the late write has to ring the bell.
	got := readOne(t, server)
	reads := clk.reads.Load()
	eventually(t, "the reader to spin", func() bool { return clk.reads.Load() >= reads+2 })
	clk.advance(2 * shmSpinBudget)
	eventually(t, "the reader to park", parked(1))
	if c := ringCountsOf(sreg); c != (ringCounts{wasted: 1, parks: 1}) {
		t.Fatalf("after an unpaid spin: %+v, want 1 wasted, 1 park", c)
	}
	if _, err := client.Write([]byte{'a'}); err != nil {
		t.Fatal(err)
	}
	<-got
	if c := ringCountsOf(creg); c.doorbells != 1 {
		t.Fatalf("waking a parked reader rang %d doorbells, want 1", c.doorbells)
	}

	// That was one late arrival; the rest of the run makes the ring cold.
	lateArrivals(t, clk, client, server, shmColdAfter-1)
	before := ringCountsOf(sreg)
	reads = clk.reads.Load()
	got = readOne(t, server)
	eventually(t, "the cold reader to park", parked(before.parks+1))
	after := ringCountsOf(sreg)
	if after.parks != before.parks+1 || after.wasted != before.wasted || after.rewarded != before.rewarded {
		t.Fatalf("cold ring: %+v → %+v, want one park and no spin", before, after)
	}
	if n := clk.reads.Load() - reads; n != 0 {
		t.Fatalf("cold ring read the clock %d times before parking, want 0 (no yield loop)", n)
	}

	// Still late: the ring stays cold however long the run gets.
	clk.advance(2 * shmSpinBudget)
	if _, err := client.Write([]byte{'b'}); err != nil {
		t.Fatal(err)
	}
	<-got
	got = readOne(t, server)
	eventually(t, "the cold reader to park again", parked(before.parks+2))
	if c := ringCountsOf(sreg); c.wasted != before.wasted || c.rewarded != before.rewarded {
		t.Fatalf("ring spun while cold: %+v → %+v", before, c)
	}

	// One arrival sooner than the budget re-arms spinning: the next
	// empty Read yields until its byte comes, and nobody touches the
	// doorbell for it.
	if _, err := client.Write([]byte{'c'}); err != nil {
		t.Fatal(err)
	}
	<-got
	before, bells := ringCountsOf(sreg), ringCountsOf(creg).doorbells
	reads = clk.reads.Load()
	got = readOne(t, server)
	eventually(t, "the re-armed reader to spin", func() bool { return clk.reads.Load() >= reads+2 })
	if _, err := client.Write([]byte{'d'}); err != nil {
		t.Fatal(err)
	}
	<-got
	after = ringCountsOf(sreg)
	if after.rewarded != before.rewarded+1 || after.parks != before.parks || after.wasted != before.wasted {
		t.Fatalf("re-armed ring: %+v → %+v, want one rewarded spin and no park", before, after)
	}
	if n := ringCountsOf(creg).doorbells; n != bells {
		t.Fatalf("writer rang %d doorbells for a spinning reader", n-bells)
	}
}

// TestRingWaitBands: the three-band rule of ringWait.moved, on gaps the
// test dictates. Only a gap under half the budget warms — which the
// round trips of a parked pair, 14–45 µs through both doorbells where
// they were measured, are — only gaps of a budget or more cool, and the
// band between — where a period that jitters around the budget spends
// half its time — changes nothing.
func TestRingWaitBands(t *testing.T) {
	const b = shmSpinBudget
	for _, c := range []struct {
		name string
		from int // late before the gaps
		gaps []time.Duration
		want int
	}{
		{"cold, gaps around the budget never re-arm", shmColdAfter, []time.Duration{b * 9 / 10, b, b * 11 / 10, b * 95 / 100, b - 1}, shmColdAfter},
		{"hot, four late gaps cool", 0, []time.Duration{b, 2 * b, b, 5 * b}, shmColdAfter},
		{"hot, three late gaps do not", 0, []time.Duration{b, b, b}, 3},
		{"late gaps count across in-band ones", 0, []time.Duration{b, b / 2, b, b * 3 / 4, b, b * 9 / 10, b}, shmColdAfter},
		{"cold, one short gap warms", shmColdAfter, []time.Duration{b/2 - 1}, 0},
		{"cold, a round trip through the doorbells warms", shmColdAfter, []time.Duration{2 * b, 45 * time.Microsecond}, 0},
		{"half cooled, in-band gaps leave it", 2, []time.Duration{b / 2, b * 3 / 4, b - 1}, 2},
		{"half cooled, a short gap starts over", 2, []time.Duration{b, 0, b}, 1},
		{"cold stays capped", shmColdAfter, []time.Duration{b, b, b}, shmColdAfter},
	} {
		w := ringWait{late: c.from}
		var now time.Duration
		for _, gap := range c.gaps {
			now += gap
			w.moved(now)
		}
		if w.late != c.want || w.last != now {
			t.Errorf("%s: late %d → %d after gaps %v, want %d (last %v, want %v)", c.name, c.from, w.late, c.gaps, c.want, w.last, now)
		}
	}
}

// TestShmNearBudgetArrivalsStayCold is the band rule at the endpoint: a
// cold reader whose next arrival comes just inside the budget parks at
// once again — it used to spin out a full budget for it.
func TestShmNearBudgetArrivalsStayCold(t *testing.T) {
	server, client, clk, sreg, _ := clockedPair(t)
	clk.advance(2 * shmSpinBudget)
	if _, err := client.Write([]byte{'a'}); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := server.Read(b[:]); err != nil {
		t.Fatal(err)
	}
	lateArrivals(t, clk, client, server, shmColdAfter-1) // cold now
	for i := 0; i < 3; i++ {
		clk.advance(shmSpinBudget * 9 / 10)
		if _, err := client.Write([]byte{'n'}); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Read(b[:]); err != nil {
			t.Fatal(err)
		}
		before, reads := ringCountsOf(sreg), clk.reads.Load()
		got := readOne(t, server)
		eventually(t, "the cold reader to park", func() bool { return ringCountsOf(sreg).parks == before.parks+1 })
		if after := ringCountsOf(sreg); after.wasted != before.wasted || after.rewarded != before.rewarded || clk.reads.Load() != reads {
			t.Fatalf("round %d: an arrival 0.9 budgets after the last re-armed a cold ring: %+v → %+v, %d clock reads", i, before, after, clk.reads.Load()-reads)
		}
		clk.advance(2 * shmSpinBudget) // wake it, late, for the next round
		if _, err := client.Write([]byte{'w'}); err != nil {
			t.Fatal(err)
		}
		<-got
	}
}

// TestShmCountersThroughConn: Conn.InstrumentRegistry reaches the ring
// whichever side of the cutover it runs on, and never again looks a
// counter up by name.
func TestShmCountersThroughConn(t *testing.T) {
	for _, swapFirst := range []bool{false, true} {
		server, client := shmPair(t, 4096)
		reg := telemetry.NewRegistry()
		var sock bytes.Buffer
		sc := NewConn(&sock)
		if !swapFirst {
			sc.InstrumentRegistry(reg)
		}
		if err := sc.SendSwap(NewMessage("SHMRDY"), server); err != nil {
			t.Fatal(err)
		}
		sc.SwapRead(server)
		if swapFirst {
			sc.InstrumentRegistry(reg)
		}
		got := make(chan error, 1)
		go func() {
			_, err := sc.Recv()
			got <- err
		}()
		eventually(t, "the conn's reader to park", func() bool { return ringCountsOf(reg).parks == 1 })
		if err := NewConn(client).Send(NewMessage("PING")); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
		if c := ringCountsOf(reg); c.parks != 1 || c.wasted != 1 {
			t.Errorf("swapFirst=%v: registry saw %+v, want 1 park after 1 wasted spin", swapFirst, c)
		}
	}
}
