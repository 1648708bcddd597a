package tdp_test

// Transport benchmarks (EXPERIMENTS.md): the same-host transport
// ladder (loopback TCP, unix socket, shared-memory ring), the bytes a
// session's resync moves for a small gap in a large context (the whole
// versioned snapshot), and event latency under a concurrent chunked
// bulk snapshot. The ladder backs an acceptance criterion: shm beats
// unix beats TCP on the put round trip.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

func BenchmarkSameHostPut(b *testing.B) {
	// grantShm is the server's SetShm; wantShm asserts what the
	// client is actually riding when the clock starts, after a warm-up
	// long enough to earn a ring where one is to be had, so the
	// sub-benchmark names stay honest (the unix row must not silently
	// ride the ring, nor the shm row the socket).
	run := func(b *testing.B, dial attrspace.DialFunc, grantShm, wantShm bool) {
		srv := attrspace.NewServer()
		srv.SetShm(grantShm)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatalf("serve: %v", err)
		}
		b.Cleanup(srv.Close)
		if _, err := srv.ListenUnixBeside(addr); err != nil {
			b.Fatalf("ListenUnixBeside: %v", err)
		}
		c, err := attrspace.Dial(dial, addr, "bench")
		if err != nil {
			b.Fatalf("dial: %v", err)
		}
		b.Cleanup(func() { c.Close() })
		for i, deadline := 0, time.Now().Add(10*time.Second); i < 200 || (wantShm && !c.ShmActive()); i++ {
			if err := c.Put("attr", "warm"); err != nil {
				b.Fatal(err)
			}
			if time.Now().After(deadline) {
				break
			}
		}
		if c.ShmActive() != wantShm {
			b.Fatalf("ShmActive = %v, want %v", c.ShmActive(), wantShm)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Put("attr", "value"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("tcp", func(b *testing.B) { run(b, attrspace.TCPDial, false, false) })
	// nil dial = AutoDial, which prefers the side socket for loopback;
	// the server withholds the shm cap so this measures the bare socket.
	b.Run("unix", func(b *testing.B) { run(b, nil, false, false) })
	// Full capability set: the connection starts on the unix socket and
	// is promoted to the mmap ring pair during the warm-up. On platforms
	// without shm support this degenerates to unix.
	b.Run("shm", func(b *testing.B) { run(b, nil, true, wire.ShmSupported()) })
}

// BenchmarkSessionResync prices what a reconnecting session fetches
// after a brief outage in a 10k-attribute context: the whole versioned
// snapshot, chunked. The rx-bytes/op metric is the number EXPERIMENTS
// reports.
func BenchmarkSessionResync(b *testing.B) {
	const size = 10000
	b.Run("full", func(b *testing.B) {
		srv := attrspace.NewServer()
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatalf("serve: %v", err)
		}
		b.Cleanup(srv.Close)
		w := benchClientAt(b, addr, "bench")
		pairs := make([]attrspace.KV, 0, 256)
		for i := 0; i < size; i += 256 {
			pairs = pairs[:0]
			for j := i; j < i+256 && j < size; j++ {
				pairs = append(pairs, attrspace.KV{Key: fmt.Sprintf("attr%06d", j), Value: "value-of-some-typical-length"})
			}
			if err := w.PutBatch(pairs); err != nil {
				b.Fatalf("PutBatch: %v", err)
			}
		}
		c := benchClientAt(b, addr, "bench")
		reg := telemetry.NewRegistry()
		c.SetTelemetry(reg, nil)
		rx := reg.Counter("wire.rx.bytes")
		b.ReportAllocs()
		b.ResetTimer()
		start := rx.Value()
		for i := 0; i < b.N; i++ {
			snap, _, err := c.SnapshotSeq(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if len(snap) != size {
				b.Fatalf("snapshot = %d entries", len(snap))
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(rx.Value()-start)/float64(b.N), "rx-bytes/op")
	})
}

// BenchmarkShmIdleThenBurst is the traffic no workload of the
// repository's benchmark has: one connection on a ring that goes idle
// long enough for both sides to turn cold (eight ops a millisecond
// apart), then a burst of 4,000 ops one at a time. What it prices is how
// soon a parked pair climbs back to trading messages in user space —
// the warming half of the spin-or-park policy (DESIGN §12, E30) — as
// µs per op of the burst, and parks and unpaid spins per op on both ends
// of the ring. "local" is a TryGet at the ring's own server; "global" a
// PutGlobal through a caching LASS to a TCP-dialled shard, whose round
// trip with both sides parked is 23–30 µs.
func BenchmarkShmIdleThenBurst(b *testing.B) {
	if !wire.ShmSupported() {
		b.Skip("no shm transport on this platform")
	}
	const idleOps, burstOps = 8, 4000
	run := func(b *testing.B, srv *attrspace.Server, addr string, op func(c *attrspace.Client) error) {
		sreg, creg := telemetry.NewRegistry(), telemetry.NewRegistry()
		srv.SetTelemetry(sreg, nil)
		if _, err := srv.ListenUnixBeside(addr); err != nil {
			b.Fatalf("ListenUnixBeside: %v", err)
		}
		c := benchClientAt(b, addr, "job-0")
		c.SetTelemetry(creg, nil)
		for deadline := time.Now().Add(10 * time.Second); !c.ShmActive(); {
			if err := op(c); err != nil {
				b.Fatal(err)
			}
			if time.Now().After(deadline) {
				b.Fatal("connection was never promoted to a shm ring")
			}
		}
		waits := func(name string) int64 {
			return sreg.Counter("wire.shm."+name).Value() + creg.Counter("wire.shm."+name).Value()
		}
		var burst time.Duration
		var parks, wasted int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := 0; j < idleOps; j++ {
				time.Sleep(time.Millisecond)
				if err := op(c); err != nil {
					b.Fatal(err)
				}
			}
			p0, w0, start := waits("parks"), waits("spin.wasted"), time.Now()
			b.StartTimer()
			for j := 0; j < burstOps; j++ {
				if err := op(c); err != nil {
					b.Fatal(err)
				}
			}
			burst += time.Since(start)
			parks += waits("parks") - p0
			wasted += waits("spin.wasted") - w0
		}
		ops := float64(b.N * burstOps)
		b.ReportMetric(float64(burst.Microseconds())/ops, "burst-µs/op")
		b.ReportMetric(float64(parks)/ops, "parks/op")
		b.ReportMetric(float64(wasted)/ops, "unpaid-spins/op")
	}
	b.Run("local", func(b *testing.B) {
		srv := attrspace.NewServer()
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatalf("serve: %v", err)
		}
		b.Cleanup(srv.Close)
		run(b, srv, addr, func(c *attrspace.Client) error {
			_, _, err := c.TryGetAt(context.Background(), attrspace.Local, "absent")
			if errors.Is(err, attrspace.ErrNotFound) {
				err = nil
			}
			return err
		})
	})
	b.Run("global", func(b *testing.B) {
		shard := attrspace.NewServer()
		shardAddr, err := shard.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatalf("serve: %v", err)
		}
		b.Cleanup(shard.Close)
		lass := attrspace.NewServer()
		lass.EnableGlobalCache(shardAddr, attrspace.CacheConfig{Dial: attrspace.TCPDial})
		addr, err := lass.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatalf("serve: %v", err)
		}
		b.Cleanup(lass.Close)
		run(b, lass, addr, func(c *attrspace.Client) error {
			_, err := c.PutAt(context.Background(), attrspace.Global, "attr", "value")
			return err
		})
	})
}

func BenchmarkMuxFanout(b *testing.B) {
	// Event latency while a bulk snapshot streams on the same
	// connection: the snapshot goes out in chunks and the event
	// interleaves between its parts. The event-wait metric is the one to
	// watch. (The name is kept so the tracked baseline still matches;
	// the connection carries one byte stream, no mux.)
	const size = 5000
	b.Run("mux", func(b *testing.B) {
		srv := attrspace.NewServer()
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatalf("serve: %v", err)
		}
		b.Cleanup(srv.Close)
		watcher := benchClientAt(b, addr, "bench")
		writer := benchClientAt(b, addr, "bench")
		pairs := make([]attrspace.KV, 0, 256)
		for i := 0; i < size; i += 256 {
			pairs = pairs[:0]
			for j := i; j < i+256 && j < size; j++ {
				pairs = append(pairs, attrspace.KV{Key: fmt.Sprintf("attr%06d", j), Value: "value-of-some-typical-length"})
			}
			if err := writer.PutBatch(pairs); err != nil {
				b.Fatalf("PutBatch: %v", err)
			}
		}
		if err := watcher.Subscribe(); err != nil {
			b.Fatalf("Subscribe: %v", err)
		}
		var gen atomic.Int64
		arrived := make(chan int64, 64)
		watcher.SetEventHandler(func(ev attrspace.Event) {
			if ev.Attr == "signal" {
				arrived <- gen.Load()
			}
		})
		var eventWait int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen.Store(int64(i))
			snapDone := make(chan error, 1)
			go func() {
				_, _, err := watcher.SnapshotSeq(context.Background())
				snapDone <- err
			}()
			t0 := time.Now()
			if err := writer.Put("signal", fmt.Sprint(i)); err != nil {
				b.Fatal(err)
			}
			for {
				if g := <-arrived; g == int64(i) {
					break
				}
			}
			eventWait += time.Since(t0).Nanoseconds()
			if err := <-snapDone; err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(eventWait)/float64(b.N), "event-ns/op")
	})
}
