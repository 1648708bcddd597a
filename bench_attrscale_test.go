package tdp_test

// Attribute-space scaling benchmarks for the sharded/asynchronous
// engine and the LASS global read cache. ManyContexts compares the
// current engine against an in-file replica of the pre-sharding seed
// engine (one global mutex, synchronous drop-oldest fan-out), so the
// speedup the refactor bought stays measurable after the old code is
// gone. GlobalGetCached compares a CASS round trip over a slow link
// against a cached read answered by the local LASS.

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/proxy"
)

// --- seed-engine replica -------------------------------------------------
//
// A faithful miniature of the seed internal/attr engine: one mutex for
// the whole space, subscriber set copied to a slice under that lock on
// every put, and synchronous delivery into each subscriber's channel
// with the drop-oldest juggle. Only the put path is replicated — that
// is the path ManyContexts drives on both sides.

type seedSpace struct {
	mu       sync.Mutex
	contexts map[string]*seedCtx
}

type seedCtx struct {
	name  string
	seq   uint64
	attrs map[string]string
	subs  map[*seedSub]struct{}
}

type seedSub struct {
	mu     sync.Mutex
	ch     chan attr.Update
	closed bool
}

func (s *seedSub) deliver(u attr.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for {
		select {
		case s.ch <- u:
			return
		default:
			select { // full: drop the oldest and retry
			case <-s.ch:
			default:
			}
		}
	}
}

func (s *seedSpace) put(ctxName, attribute, value string) {
	s.mu.Lock()
	c := s.contexts[ctxName]
	c.seq++
	c.attrs[attribute] = value
	u := attr.Update{Context: c.name, Attr: attribute, Value: value, Op: attr.OpPut, Seq: c.seq}
	subs := make([]*seedSub, 0, len(c.subs))
	for sub := range c.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		sub.deliver(u)
	}
}

// BenchmarkAttrSpaceManyContexts drives parallel putters round-robin
// across 64 live contexts, each context watched by 16 subscribers that
// are not draining — the RM-multiplexing-many-tools shape from §3.2
// with slow consumers. Both engines are warmed into that steady state
// first. The seed engine serializes every putter on one space-wide
// mutex and pays the subscriber fan-out synchronously (two channel
// operations per full subscriber) on every put; the sharded engine
// spreads putters across shard locks and sends fan-out without blocking
// on per-subscription channels that drop their oldest update when full. GOMAXPROCS is pinned so the contention shape
// is the same on every host the baseline is recorded on.
func BenchmarkAttrSpaceManyContexts(b *testing.B) {
	const contexts = 64
	const subsPer = 16
	const procs = 16
	names := make([]string, contexts)
	for i := range names {
		names[i] = fmt.Sprintf("job-%d", i)
	}
	parallelWork := func(b *testing.B, put func(ctx int)) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var workers atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			// Start each worker in a different region of the context
			// space so concurrent operations target distinct contexts.
			i := int(workers.Add(1)) * (contexts / procs)
			for pb.Next() {
				put(i % contexts)
				i++
			}
		})
	}

	b.Run("baseline-mutex", func(b *testing.B) {
		s := &seedSpace{contexts: make(map[string]*seedCtx)}
		for _, name := range names {
			c := &seedCtx{name: name, attrs: map[string]string{"hot": "v"}, subs: make(map[*seedSub]struct{})}
			for i := 0; i < subsPer; i++ {
				c.subs[&seedSub{ch: make(chan attr.Update, 64)}] = struct{}{}
			}
			s.contexts[name] = c
		}
		// Reach slow-consumer steady state (every channel full, each
		// further put paying the drop-oldest juggle) before timing.
		for i := 0; i < 2*64*contexts; i++ {
			s.put(names[i%contexts], "hot", "v")
		}
		b.ResetTimer()
		parallelWork(b, func(ctx int) { s.put(names[ctx], "hot", "v") })
	})

	b.Run("sharded", func(b *testing.B) {
		s := attr.NewSpace()
		refs := make([]*attr.Ref, contexts)
		for i, name := range names {
			ref := s.Join(name)
			defer ref.Leave()
			refs[i] = ref
			if err := ref.Put("hot", "v"); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < subsPer; j++ {
				if _, err := ref.Subscribe(64); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Reach slow-consumer steady state (every delivery channel
		// full, every further put a drop-oldest send per subscriber)
		// before timing.
		for i := 0; i < 2*64*contexts; i++ {
			if err := refs[i%contexts].Put("hot", "v"); err != nil {
				b.Fatal(err)
			}
		}
		time.Sleep(50 * time.Millisecond)
		b.ResetTimer()
		parallelWork(b, func(ctx int) {
			if err := refs[ctx].Put("hot", "v"); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// slowConn models a WAN hop to the tool front-end's host: every write
// stalls before hitting the wire. 200µs each way approximates an
// intra-site round trip; the point is only that it dwarfs a local one.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

func slowDial(delay time.Duration) attrspace.DialFunc {
	return func(addr string) (net.Conn, error) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return slowConn{Conn: raw, delay: delay}, nil
	}
}

// BenchmarkGlobalGetCached prices a steady-state global get both ways:
// every read a CASS round trip over the slow link, versus reads
// answered from the LASS cache the CASS subscription keeps coherent.
func BenchmarkGlobalGetCached(b *testing.B) {
	const delay = 200 * time.Microsecond
	startCASS := func(b *testing.B) (*attrspace.Server, string) {
		cass := attrspace.NewServer()
		addr, err := cass.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		seed, err := attrspace.Dial(nil, addr, "job-0")
		if err != nil {
			b.Fatal(err)
		}
		if err := seed.Put("endpoint", "front-end:7777"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { seed.Close(); cass.Close() })
		return cass, addr
	}

	b.Run("cass-roundtrip", func(b *testing.B) {
		_, cassAddr := startCASS(b)
		c, err := attrspace.Dial(slowDial(delay), cassAddr, "job-0")
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.TryGetAt(context.Background(), attrspace.Local, "endpoint"); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("lass-cached", func(b *testing.B) {
		_, cassAddr := startCASS(b)
		lass := attrspace.NewServer()
		lass.EnableGlobalCache(cassAddr, attrspace.CacheConfig{Dial: slowDial(delay)})
		lassAddr, err := lass.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer lass.Close()
		c, err := attrspace.Dial(nil, lassAddr, "job-0")
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		// Prime: the first read misses and fills the cache upstream.
		if _, _, err := c.TryGetAt(ctx, attrspace.Global, "endpoint"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.TryGetAt(ctx, attrspace.Global, "endpoint"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProxyRelayThroughput pushes bulk payload through a forwarder
// tunnel and back (the §2.4 RM proxy path), exercising the pooled
// splice buffers. Reported bytes cover both directions.
func BenchmarkProxyRelayThroughput(b *testing.B) {
	const chunk = 32 * 1024
	// Echo endpoint: everything relayed in is relayed back out.
	echoLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer echoLn.Close()
	go func() {
		for {
			c, err := echoLn.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()

	fwd := proxy.NewForwarder(func(addr string) (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, echoLn.Addr().String())
	fwdLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go fwd.Serve(fwdLn)
	defer fwd.Close()

	conn, err := net.Dial("tcp", fwdLn.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	out := make([]byte, chunk)
	in := make([]byte, chunk)
	b.SetBytes(2 * chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(out); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, in); err != nil {
			b.Fatal(err)
		}
	}
}
