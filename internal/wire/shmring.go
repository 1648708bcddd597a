//go:build linux || darwin

// The same-host fast path: a pair of single-producer /
// single-consumer byte rings in a shared mmap'd file, one ring per
// direction, carrying the exact same 4-byte-framed payloads the socket
// carries — AppendEncode and DecodeInto never know the difference.
// The existing connection's socket is kept as the bootstrap and
// doorbell channel: a connection that has earned a ring asks for one
// in mid-stream (SHMREQ, answered with the segment path), the SHMRDY
// exchange serializes the cutover, and afterwards the socket carries
// only single-byte wakeups (and, crucially, liveness — a dead peer's
// socket closing is what unblocks parked ring waiters, which is also
// where netsim/chaos interpose delay and kill).
//
// Ring discipline: free-running uint64 head/tail cursors masked by a
// power-of-two size, each cursor (and each park flag) alone on its own
// cache line so the producer and consumer never false-share. The
// producer copies in, then publishes tail; the consumer copies out,
// then publishes head. Go's sync/atomic operations are sequentially
// consistent, which the park/recheck handshake below relies on
// (store-flag-then-load-cursor on one side, store-cursor-then-load-flag
// on the other — the Dekker pattern).
//
// Wakeups are spin-or-park, and spinning has to earn its keep: a side
// finding no progress yields the scheduler for up to shmSpinBudget only
// while it is hot, and otherwise sets its park flag in the shared header,
// rechecks, and sleeps on the doorbell. Arrival gaps decide which, in
// three bands: a gap under half the budget makes the side hot — a
// ping-ponging pair then never touches the kernel, and a parked pair's
// round trips through the doorbell are short enough to get there;
// shmColdAfter gaps at or beyond the budget, with no such short one
// among them, make it cold; a gap in between changes nothing, so
// traffic whose period sits near the budget cannot flip the side back
// and forth and waste a full budget on every miss. The peer, after
// publishing a cursor, rings the doorbell — one byte on the socket —
// only when it observes the opposite park flag.
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// DefaultShmRingSize is the per-direction ring capacity. 256 KiB holds
// a full chunked snapshot part with room to spare while keeping a
// segment (header + two rings) at ~513 KiB of shared address space
// per connection.
const DefaultShmRingSize = 256 << 10

// shmMagic identifies a TDP ring segment ("TDPSHM3\n").
const shmMagic = 0x54445053484d330a

// Header layout. Every mutable field sits alone on a 64-byte cache
// line; the two directions' control blocks are far apart as well.
const (
	shmHdrSize = 1024

	shmOffMagic = 0 // uint64 magic
	shmOffSize  = 8 // uint64 per-direction ring size

	shmOffA = 128 // control block, ring A (client → server)
	shmOffB = 512 // control block, ring B (server → client)

	// Offsets within a control block.
	ctlTail  = 0   // uint64, producer cursor (free-running)
	ctlHead  = 64  // uint64, consumer cursor (free-running)
	ctlRPark = 128 // uint32, consumer parked on the doorbell
	ctlWPark = 192 // uint32, producer parked on the doorbell
)

// shmSpinBudget is how long a hot side yields the scheduler before
// parking on the doorbell: a pair trading messages faster than this
// stays entirely in user space — the reader is still spinning when the
// reply lands, no park flag is ever set, no doorbell byte written.
// Gosched (not a busy pause) lets the peer goroutine run on a single-CPU
// box, but a yielding spinner is always runnable, so the Go scheduler
// never gets as far as polling the network while one exists: spinning
// for a message that is not coming delays every doorbell and socket
// wake-up in the process by the budget. Hence the bands of
// ringWait.moved. Cooling takes shmColdAfter arrivals a budget or more
// apart with no warming one between them (one is not enough: a hot ring
// that parks on every stray miss pays a stall on each way in and out),
// after which the side parks at once. Warming takes one arrival under
// half the budget, and not merely one under the budget: arrivals a
// little under a budget apart pay for no spin, and when a period jitters
// around the budget re-arming on each short gap wastes a whole budget on
// each long one. Half is where the measurements put it (EXPERIMENTS
// E30): a parked pair trading one request at a time sees gaps of a
// round trip through both doorbells plus the work — 14–30 µs for a local
// op, 23–30 µs for a write through a caching LASS, about 45 µs for a
// cache miss — so a threshold below those strands a cooled ring in the
// cold state for good, and the one traffic known to sit on the budget
// (four handles taking turns at a 24.6 µs op) has no gap under 90 µs in
// 1.6 million. A new ring needs no state of its own: only a connection
// that has already traded a hundred messages over its socket is given
// one.
const (
	shmSpinBudget = 100 * time.Microsecond
	shmColdAfter  = 4
)

// ErrShmBadSegment reports a segment file that is not a valid TDP
// ring segment (wrong magic, impossible size, truncated).
var ErrShmBadSegment = errors.New("wire: bad shm segment")

// ShmSupported reports whether this build can serve the shm transport.
func ShmSupported() bool { return true }

// ShmSegment is one mapped ring segment: the shared header and
// the two directional rings. Both endpoints of a connection hold their
// own mapping of the same file. The mapping is released by the
// garbage collector (a finalizer) rather than an explicit unmap, so a
// late reader can never fault on memory a concurrent close pulled out
// from under it.
type ShmSegment struct {
	mem  []byte
	size int // per-direction ring capacity, power of two
}

// CreateShmSegment creates the segment file at path (which must not
// exist), sizes it for two rings of ringSize bytes (0 means
// DefaultShmRingSize; must be a power of two), maps it, and stamps the
// header. The creator — the server — unlinks the file once the peer
// has mapped it, so a crashed pair leaks at most one temp file.
func CreateShmSegment(path string, ringSize int) (*ShmSegment, error) {
	if ringSize == 0 {
		ringSize = DefaultShmRingSize
	}
	if ringSize < 4096 || ringSize&(ringSize-1) != 0 {
		return nil, fmt.Errorf("%w: ring size %d not a power of two >= 4096", ErrShmBadSegment, ringSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	total := shmHdrSize + 2*ringSize
	if err := f.Truncate(int64(total)); err != nil {
		os.Remove(path)
		return nil, err
	}
	seg, err := mapSegment(f, total)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	seg.size = ringSize
	seg.u64(shmOffSize).Store(uint64(ringSize))
	seg.u64(shmOffMagic).Store(shmMagic) // magic last: stamped means complete
	return seg, nil
}

// OpenShmSegment maps an existing segment file created by the peer and
// validates its header. The file descriptor is not retained — the
// mapping alone keeps the pages alive, so the creator may unlink the
// path immediately after this returns.
func OpenShmSegment(path string) (*ShmSegment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	total := int(st.Size())
	if total < shmHdrSize+2*4096 {
		return nil, fmt.Errorf("%w: %d bytes", ErrShmBadSegment, total)
	}
	seg, err := mapSegment(f, total)
	if err != nil {
		return nil, err
	}
	if seg.u64(shmOffMagic).Load() != shmMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrShmBadSegment)
	}
	size := int(seg.u64(shmOffSize).Load())
	if size < 4096 || size&(size-1) != 0 || shmHdrSize+2*size != total {
		return nil, fmt.Errorf("%w: ring size %d vs file size %d", ErrShmBadSegment, size, total)
	}
	seg.size = size
	return seg, nil
}

func mapSegment(f *os.File, total int) (*ShmSegment, error) {
	mem, err := syscall.Mmap(int(f.Fd()), 0, total,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("wire: mmap shm segment: %w", err)
	}
	seg := &ShmSegment{mem: mem}
	runtime.SetFinalizer(seg, func(s *ShmSegment) { syscall.Munmap(s.mem) })
	return seg, nil
}

// RingSize returns the per-direction ring capacity in bytes.
func (s *ShmSegment) RingSize() int { return s.size }

// u64 returns the atomic cell at a header offset. The mapping is page
// aligned and every offset is a multiple of 8, so alignment holds.
func (s *ShmSegment) u64(off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&s.mem[off]))
}

func (s *ShmSegment) u32(off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&s.mem[off]))
}

// ringHalf is one direction of the segment as seen by one endpoint.
type ringHalf struct {
	tail  *atomic.Uint64 // producer cursor
	head  *atomic.Uint64 // consumer cursor
	rpark *atomic.Uint32 // consumer parked
	wpark *atomic.Uint32 // producer parked
	data  []byte
	mask  uint64
}

func (s *ShmSegment) half(ctl, dataOff int) ringHalf {
	return ringHalf{
		tail:  s.u64(ctl + ctlTail),
		head:  s.u64(ctl + ctlHead),
		rpark: s.u32(ctl + ctlRPark),
		wpark: s.u32(ctl + ctlWPark),
		data:  s.mem[dataOff : dataOff+s.size],
		mask:  uint64(s.size - 1),
	}
}

// Endpoint returns this side's view of the segment: an io.ReadWriter
// carrying the framed byte stream over the rings, with sock as the
// doorbell and liveness channel. The server consumes ring A and
// produces ring B; the client the reverse. Call Activate once the
// socket's read side carries no further framed bytes (the SHMRDY
// cutover point) — before that, writes and wakeup sends already work,
// but doorbell receipt does not.
func (s *ShmSegment) Endpoint(server bool, sock net.Conn) *ShmEndpoint {
	a := s.half(shmOffA, shmHdrSize)
	b := s.half(shmOffB, shmHdrSize+s.size)
	e := &ShmEndpoint{seg: s, bell: newDoorbell(sock), now: shmNow}
	e.ctr.Store(&uncountedRing)
	if server {
		e.rd, e.wr = a, b
	} else {
		e.rd, e.wr = b, a
	}
	return e
}

// ShmEndpoint is one end of an activated ring pair. Read and Write
// carry the same framed stream the socket carried; wire.Conn swaps
// onto it without its bufio identity changing. Single reader and
// single writer (which Conn's rmu/wmu already guarantee).
type ShmEndpoint struct {
	seg  *ShmSegment
	bell *doorbell
	rd   ringHalf // ring this side consumes
	wr   ringHalf // ring this side produces
	rdw  ringWait // owned by the reader
	wrw  ringWait // owned by the writer
	now  func() time.Duration
	ctr  atomic.Pointer[ringCounters]
}

// shmNow is the endpoints' clock: monotonic time since shmEpoch, which
// costs one clock read where time.Now costs two — and the reader pays
// it on every arrival.
func shmNow() time.Duration { return time.Since(shmEpoch) }

var shmEpoch = time.Now()

// ringWait is one direction's spin-or-park state.
type ringWait struct {
	last time.Duration // when this side last moved bytes
	late int           // gaps >= shmSpinBudget since the last one < shmSpinBudget/2, up to shmColdAfter
}

// moved records a transfer, so the next wait knows whether spinning
// has lately been paid: a gap under half the budget warms the side, one
// of a budget or more cools it a step, one in between leaves it as it
// was.
func (w *ringWait) moved(now time.Duration) {
	switch gap := now - w.last; {
	case gap < shmSpinBudget/2:
		w.late = 0
	case gap >= shmSpinBudget && w.late < shmColdAfter:
		w.late++
	}
	w.last = now
}

// instrument points the ring-wait counters at c; Conn.InstrumentRegistry
// and the transport swaps call it.
func (e *ShmEndpoint) instrument(c *ringCounters) { e.ctr.Store(c) }

// Activate starts the doorbell reader on the socket. From here on the
// socket's read side belongs to the ring transport.
func (e *ShmEndpoint) Activate() { e.bell.start() }

// Close fails the doorbell (waking any parked side) and closes the
// socket, which fails the peer the same way. The mapping itself is
// reclaimed by GC once the last reference drops.
func (e *ShmEndpoint) Close() error {
	e.bell.fail(io.ErrClosedPipe)
	return e.bell.sock.Close()
}

// await blocks one side of ring r while it holds exactly stuck bytes —
// 0 for the reader's empty ring, the ring size for the writer's full
// one. A side whose spins have lately been paid (see shmColdAfter)
// spins first; then, or at once, it parks behind the Dekker flag and
// recheck. It returns on progress, on any doorbell, and on death; the
// caller rechecks all three.
func (e *ShmEndpoint) await(r *ringHalf, w *ringWait, park *atomic.Uint32, stuck uint64) {
	ctr := e.ctr.Load()
	if w.late < shmColdAfter {
		for start := e.now(); e.now()-start < shmSpinBudget; {
			runtime.Gosched()
			if r.tail.Load()-r.head.Load() != stuck {
				inc(ctr.rewarded)
				return
			}
			if e.bell.deadErr() != nil {
				return
			}
		}
		inc(ctr.wasted)
	}
	gen := e.bell.gen.Load()
	park.Swap(1) // not Store: see dekkerStore
	// Progress that slipped in before the flag went up may have missed
	// it, so only sleep when the recheck still finds none.
	if r.tail.Load()-r.head.Load() == stuck {
		inc(ctr.parks)
		e.bell.wait(gen)
	}
	park.Store(0)
}

// dekkerStore: each side of a wake-up stores (a cursor, or its park
// flag) and then loads what the other side stored, which is correct only
// if no load is ordered before the store. sync/atomic's Store promises
// that, but under the race detector its Store is a release store, which
// the hardware may let a later load overtake: a parked reader and a
// writer that moved the cursor then each miss the other, and the wake-up
// is lost. Swap is a read-modify-write, a full barrier on every build,
// and on amd64 the same instruction as Store.

// ring wakes the parked peer through the doorbell socket.
func (e *ShmEndpoint) ring() {
	inc(e.ctr.Load().doorbells)
	e.bell.ring()
}

// Read copies available ring bytes into p, blocking (spin or park, see
// await) while the ring is empty. Data already in the ring is always
// drained before a transport error is surfaced, so a peer's final
// replies survive its exit.
func (e *ShmEndpoint) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r := &e.rd
	size := uint64(len(r.data))
	for {
		head := r.head.Load()
		avail := r.tail.Load() - head
		if avail > 0 {
			n := uint64(len(p))
			if n > avail {
				n = avail
			}
			off := head & r.mask
			c := size - off
			if c > n {
				c = n
			}
			copy(p[:c], r.data[off:off+c])
			copy(p[c:n], r.data[:n-c])
			r.head.Swap(head + n) // dekkerStore
			if r.wpark.Load() != 0 {
				e.ring()
			}
			e.rdw.moved(e.now())
			return int(n), nil
		}
		if err := e.bell.deadErr(); err != nil {
			return 0, err
		}
		e.await(r, &e.rdw, r.rpark, 0)
	}
}

// Write copies all of p into the ring, blocking (spin or park) while
// the ring is full. Frames larger than the ring stream through in
// pieces as the consumer frees space.
func (e *ShmEndpoint) Write(p []byte) (int, error) {
	r := &e.wr
	size := uint64(len(r.data))
	total := len(p)
	for len(p) > 0 {
		if err := e.bell.deadErr(); err != nil {
			return total - len(p), err
		}
		tail := r.tail.Load()
		free := size - (tail - r.head.Load())
		if free == 0 {
			// The writer's arrivals are the ends of its waits for room:
			// a ring that is seldom full costs its writes no clock read.
			e.await(r, &e.wrw, r.wpark, size)
			e.wrw.moved(e.now())
			continue
		}
		n := uint64(len(p))
		if n > free {
			n = free
		}
		off := tail & r.mask
		c := size - off
		if c > n {
			c = n
		}
		copy(r.data[off:off+c], p[:c])
		copy(r.data[:n-c], p[c:n])
		r.tail.Swap(tail + n) // dekkerStore
		if r.rpark.Load() != 0 {
			e.ring()
		}
		p = p[n:]
	}
	return total, nil
}

// doorbell is the socket-backed wakeup channel shared by both rings of
// one endpoint. A wakeup is one byte; the receiver does not care which
// ring it is for — waiters recheck their own cursors. The reader
// goroutine also turns socket death into ring death: the ring has
// no liveness of its own beyond the socket that bootstrapped it. gen
// and err are atomics so the ring paths read them without the lock; mu
// only orders a change of either against a waiter going to sleep.
type doorbell struct {
	sock net.Conn
	gen  atomic.Uint64
	err  atomic.Pointer[error]

	mu   sync.Mutex
	cond *sync.Cond
}

func newDoorbell(sock net.Conn) *doorbell {
	d := &doorbell{sock: sock}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// start launches the reader that drains wakeup bytes and detects peer
// death. Must run only once the framed protocol has left the socket.
// It rings the bell once itself: a writer that filled the ring and
// parked before this point may have had its wakeup byte read — behind
// the last framed message — by the framed reader this one replaces.
func (d *doorbell) start() {
	d.mu.Lock()
	d.gen.Add(1)
	d.mu.Unlock()
	d.cond.Broadcast()
	go func() {
		var buf [64]byte
		for {
			_, err := d.sock.Read(buf[:])
			if err != nil {
				d.fail(err)
				return
			}
			d.mu.Lock()
			d.gen.Add(1)
			d.mu.Unlock()
			d.cond.Broadcast()
		}
	}()
}

// ring wakes the peer: one byte on the socket. A failed write means
// the transport is dying; the parked peer learns through its own
// doorbell reader, so the error needs no handling here.
func (d *doorbell) ring() {
	d.sock.Write(bellByte[:])
}

// bellByte is what every doorbell writes and nobody reads the value of;
// package-level because a local would escape through the Write.
var bellByte [1]byte

// wait sleeps until the generation moves past gen or the bell dies.
func (d *doorbell) wait(gen uint64) {
	d.mu.Lock()
	for d.gen.Load() == gen && d.err.Load() == nil {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

func (d *doorbell) deadErr() error {
	if p := d.err.Load(); p != nil {
		return *p
	}
	return nil
}

// fail kills the bell (and so the endpoint) with err.
func (d *doorbell) fail(err error) {
	d.mu.Lock()
	d.err.CompareAndSwap(nil, &err)
	d.mu.Unlock()
	d.cond.Broadcast()
}
