package attrspace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardDownTypedUnderScatterGather pins the degraded-mode error
// contract across the full LASS hop under concurrency: with one CASS
// shard dead, every failure a client sees for that shard's key range —
// routed single-key ops and strict scatter-gather alike — must stay
// errors.Is(ErrShardDown) even though the error crosses the wire as
// ERROR text and is reconstructed client-side, while survivor ranges
// and best-effort listings keep working with no failures at all.
func TestShardDownTypedUnderScatterGather(t *testing.T) {
	const n = 3
	const victim = 1
	shards := make([]*Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		shards[i], addrs[i] = startServer(t)
		if err := shards[i].SetShard(i, n); err != nil {
			t.Fatalf("SetShard: %v", err)
		}
	}
	lass := NewServer()
	lass.EnableGlobalCache(addrs[0]+","+addrs[1]+","+addrs[2], CacheConfig{ShardHeartbeat: 50 * time.Millisecond})
	lassAddr, err := lass.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(lass.Close)

	ctxs := shardedContexts(t, n)
	survivors := make([]string, 0, n-1)
	for i, name := range ctxs {
		if i != victim {
			survivors = append(survivors, name)
		}
	}

	// One client per shard context; seed every range while healthy.
	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(nil, lassAddr, ctxs[i])
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
		opCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		_, err = c.PutAt(opCtx, Global, "seed", ctxs[i])
		cancel()
		if err != nil {
			t.Fatalf("seed shard %d: %v", i, err)
		}
	}

	// A shard that dies before its connection was ever up is not
	// "down", it gets the benefit of the doubt (shardConn.client): see
	// the victim's connection up before killing it.
	waitFor(t, func() bool { c, _ := lass.gcache.Load().conns[victim].live(); return c != nil })
	shards[victim].Close()
	// Wait until the router marks the victim down — from here on
	// its range must fail fast and typed, never hang.
	deadline := time.Now().Add(10 * time.Second)
	for {
		opCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := clients[victim].PutAt(opCtx, Global, "probe", "x")
		cancel()
		if errors.Is(err, ErrShardDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never reported ErrShardDown; last err: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	const workers, rounds = 4, 25
	var (
		mu         sync.Mutex
		victimDown int // victim-range failures, all typed
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(w, i int) {
				defer wg.Done()
				c := clients[i]
				for round := 0; round < rounds; round++ {
					opCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
					_, err := c.PutAt(opCtx, Global, fmt.Sprintf("k%d", w), fmt.Sprintf("v%d", round))
					cancel()
					if i == victim {
						if err == nil {
							fail("worker %d: write to dead shard %d succeeded", w, victim)
						} else if !errors.Is(err, ErrShardDown) {
							fail("worker %d: victim-range error lost its type: %v", w, err)
						} else {
							mu.Lock()
							victimDown++
							mu.Unlock()
						}
					} else if err != nil {
						fail("worker %d: survivor shard %d failed: %v", w, i, err)
					}

					opCtx, cancel = context.WithTimeout(context.Background(), 3*time.Second)
					// Strict scatter-gather spanning the dead shard: must
					// fail, and the failure must stay typed end to end.
					if _, err := c.SnapshotGlobalMany(opCtx, ctxs); err == nil {
						fail("worker %d: SnapshotGlobalMany spanning dead shard succeeded", w)
					} else if !errors.Is(err, ErrShardDown) {
						fail("worker %d: scatter-gather error lost its type: %v", w, err)
					}
					// Survivor-only scatter-gather: degraded, not dead.
					snaps, err := c.SnapshotGlobalMany(opCtx, survivors)
					if err != nil {
						fail("worker %d: survivor scatter-gather failed: %v", w, err)
					} else {
						for _, name := range survivors {
							if snaps[name]["seed"] != name {
								fail("worker %d: survivor %s snapshot lost seed: %v", w, name, snaps[name])
							}
						}
					}
					// Best-effort listing must keep answering.
					if _, err := c.GlobalContexts(opCtx); err != nil {
						fail("worker %d: GlobalContexts during degraded mode: %v", w, err)
					}
					cancel()
				}
			}(w, i)
		}
	}
	wg.Wait()
	if want := workers * rounds; victimDown != want {
		t.Errorf("victim-range typed failures = %d, want %d", victimDown, want)
	}
}

// pooledTrap is a blackholeConn that turns itself half-dead the moment
// it is asked to carry a ctx-scope put while its trap is armed: it
// picks out the one connection a shard's pooled ops ride, whichever dial
// produced it.
type pooledTrap struct {
	blackholeConn
	armed *atomic.Bool
}

func (c *pooledTrap) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("CPUT")) && c.armed.CompareAndSwap(true, false) {
		c.dead.Store(true)
	}
	return c.blackholeConn.Write(p)
}

// TestHalfDeadPooledConn: the connection a shard's group commit rides
// goes half-dead — writes vanish, no read error ever surfaces. The
// heartbeat rides that same connection, so the op in flight is answered
// with a typed loss within a few heartbeats instead of hanging to its
// caller's deadline; the shard reads down and fails later ops fast; the
// shard reconnects by itself and writes flow again. The other shard
// never notices.
func TestHalfDeadPooledConn(t *testing.T) {
	const n = 2
	shards := make([]*Server, n)
	addrs := make([]string, n)
	for i := range shards {
		shards[i], addrs[i] = startServer(t)
		if err := shards[i].SetShard(i, n); err != nil {
			t.Fatalf("SetShard: %v", err)
		}
	}
	var armed, refuse atomic.Bool
	lass := NewServer()
	gc := lass.EnableGlobalCache(strings.Join(addrs, ","), CacheConfig{
		ShardHeartbeat: 50 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			if addr != addrs[0] {
				return net.Dial("tcp", addr)
			}
			if refuse.Load() {
				return nil, errors.New("dial refused by test")
			}
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &pooledTrap{blackholeConn: blackholeConn{Conn: c}, armed: &armed}, nil
		},
	})
	t.Cleanup(lass.Close)
	ctxs := shardedContexts(t, n)
	put := func(i int, v string, within time.Duration) (time.Duration, error) {
		ctx, cancel := context.WithTimeout(context.Background(), within)
		defer cancel()
		start := time.Now()
		_, err := gc.Put(ctx, ctxs[i], "k", v)
		return time.Since(start), err
	}
	for i := range ctxs {
		if _, err := put(i, "prime", 5*time.Second); err != nil {
			t.Fatalf("prime shard %d: %v", i, err)
		}
	}
	// One connection per shard plus one per cached context.
	for i, srv := range shards {
		if got := srv.Telemetry().Gauge("attrspace.conns").Value(); got != 2 {
			t.Errorf("shard %d holds %d connections from the LASS, want 2", i, got)
		}
	}

	// The other shard takes writes throughout and must never fail.
	stop := make(chan struct{})
	otherDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				otherDone <- nil
				return
			default:
			}
			if _, err := put(1, strconv.Itoa(i), 5*time.Second); err != nil {
				otherDone <- err
				return
			}
		}
	}()

	up := lass.Telemetry().Gauge("attrspace.router.shard.0.up")
	waitGauge := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); up.Value() != want; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("shard.0.up never read %d", want)
			}
		}
	}
	waitGauge(1) // the gauge's first refresh: a later 0 is a real transition

	// Cut the pooled connection under an op, and keep the shard
	// unreachable so the down window is long enough to look at.
	refuse.Store(true)
	armed.Store(true)
	took, err := put(0, "in-flight", 5*time.Second)
	if !errors.Is(err, ErrConnLost) && !errors.Is(err, ErrShardDown) {
		t.Fatalf("op on the half-dead connection = %v after %v, want ErrConnLost or ErrShardDown", err, took)
	}
	if took > time.Second {
		t.Errorf("op on the half-dead connection took %v, want a few 50ms heartbeats", took)
	}
	for i := 0; i < 5; i++ {
		took, err := put(0, "while-down", 5*time.Second)
		if !errors.Is(err, ErrShardDown) || took > 500*time.Millisecond {
			t.Fatalf("op while down = %v after %v, want fast ErrShardDown", err, took)
		}
	}
	waitGauge(0)
	refuse.Store(false)
	waitGauge(1)
	if _, err := put(0, "after", 5*time.Second); err != nil {
		t.Fatalf("put after the automatic reconnect: %v", err)
	}
	if got := lass.Telemetry().Gauge("attrspace.router.shard.1.up").Value(); got != 1 {
		t.Errorf("shard.1.up = %d, want 1", got)
	}
	close(stop)
	if err := <-otherDone; err != nil {
		t.Errorf("the other shard failed an op: %v", err)
	}
}
