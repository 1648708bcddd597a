package attrspace

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"tdp/internal/netsim"
	"tdp/internal/wire"
)

// chaosSeed returns the fault-injection seed: fixed by default so runs
// are reproducible, overridable with TDP_CHAOS_SEED (the make chaos
// target pins it explicitly).
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("TDP_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad TDP_CHAOS_SEED %q: %v", v, err)
		}
		return n
	}
	return 1
}

func sameMap(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestChaosMidFrameCut pins the injector's defining behavior: the
// write that exhausts the byte budget emits a strict prefix and kills
// the transport, which a raw Client reports as a retryable ErrConnLost
// — never a silent success or a garbled server error.
func TestChaosMidFrameCut(t *testing.T) {
	_, addr := startServer(t)
	chaos := netsim.NewChaos(netsim.ChaosConfig{Seed: chaosSeed(t), CutAfterBytes: 200})
	c, err := Dial(chaos.Dial(TCPDial), addr, "cut")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var lastErr error
	for i := 0; i < 1000; i++ {
		lastErr = c.Put("k"+strconv.Itoa(i), "some value long enough to burn budget quickly")
		if lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("no failure after 1000 puts through a 200-byte budget")
	}
	if !IsRetryable(lastErr) {
		t.Fatalf("cut surfaced as non-retryable error: %v", lastErr)
	}
	if st := chaos.Stats(); st.Cuts == 0 {
		t.Errorf("stats show no cut: %+v", st)
	}
}

// TestChaosRefuseListener covers the refuse-then-accept daemon: the
// first dials are reset before HELLO completes, and a shard
// connection's backoff rides through until the listener settles — what
// the shard router relies on when a shard restarts.
func TestChaosRefuseListener(t *testing.T) {
	srv := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(netsim.RefuseListener(l, 3))
	t.Cleanup(srv.Close)
	keep := srv.Space().Join("refuse")
	defer keep.Leave()

	sh := oneShard(t, l.Addr().String(), CacheConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := sh.client(ctx); err != nil {
		t.Fatalf("shard connection through a refusing listener: %v", err)
	}
	if _, err := sh.put(ctx, "refuse", "", "k", "v"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if v, _, err := sh.tryGet(ctx, "refuse", "k"); err != nil || v != "v" {
		t.Fatalf("tryGet = %q, %v", v, err)
	}
}

// TestChaosShardKill kills one CASS shard of a routed pool under
// continuous load. The contract being checked is partitioned
// degradation: ops routed to the surviving shards keep succeeding
// throughout, while ops in the dead shard's hash range surface as
// prompt errors (ErrShardDown once the shard's heartbeat notices) — never
// as hangs.
func TestChaosShardKill(t *testing.T) {
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
	type shardScore struct {
		mu        sync.Mutex
		ok        int
		fails     int
		downErrs  int
		postKill  int // successes after the kill
		slowestMs int64
	}
	scores := make([]*shardScore, n)
	for i := range scores {
		scores[i] = &shardScore{}
	}

	stop := make(chan struct{})
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(nil, lassAddr, ctxs[i])
			if err != nil {
				t.Errorf("dial worker %d: %v", i, err)
				return
			}
			defer c.Close()
			sc := scores[i]
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				opCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				start := time.Now()
				_, err := c.PutAt(opCtx, Global, "k", fmt.Sprintf("v%d", round))
				if err == nil {
					_, _, err = c.TryGetAt(opCtx, Global, "k")
				}
				cancel()
				ms := time.Since(start).Milliseconds()
				var wasKilled bool
				select {
				case <-killed:
					wasKilled = true
				default:
				}
				sc.mu.Lock()
				if ms > sc.slowestMs {
					sc.slowestMs = ms
				}
				if err == nil {
					sc.ok++
					if wasKilled {
						sc.postKill++
					}
				} else {
					sc.fails++
					if errors.Is(err, ErrShardDown) {
						sc.downErrs++
					}
				}
				sc.mu.Unlock()
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}

	time.Sleep(300 * time.Millisecond)
	shards[victim].Close()
	close(killed)
	time.Sleep(1200 * time.Millisecond)
	close(stop)
	wg.Wait()

	for i, sc := range scores {
		sc.mu.Lock()
		t.Logf("shard %d: ok=%d fails=%d downErrs=%d postKill=%d slowest=%dms",
			i, sc.ok, sc.fails, sc.downErrs, sc.postKill, sc.slowestMs)
		if sc.slowestMs > 3500 {
			t.Errorf("shard %d: an op took %dms — degraded mode must not hang", i, sc.slowestMs)
		}
		if i == victim {
			if sc.downErrs == 0 {
				t.Errorf("victim shard: no ErrShardDown surfaced after the kill")
			}
		} else {
			if sc.fails != 0 {
				t.Errorf("surviving shard %d: %d ops failed — one shard's death leaked", i, sc.fails)
			}
			if sc.postKill == 0 {
				t.Errorf("surviving shard %d: no successes after the kill", i)
			}
		}
		sc.mu.Unlock()
	}
}

// TestChaosShmRingKill covers fault injection on the ring. The
// injector interposes on the doorbell socket — the only kernel object a
// cut-over connection still owns — so killing or delaying that socket
// is exactly how chaos reaches a ring: CutAll closes it, the doorbell
// reader dies, and every parked ring waiter wakes with the transport
// error. A client on a killed ring must fail with a retryable error,
// never a hang or a success.
func TestChaosShmRingKill(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	seed := chaosSeed(t)
	sim := netsim.New()
	sim.EnableSameHost(true)
	node := sim.AddHost("node")
	l, err := node.Listen(0)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer()
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	addr := l.Addr().String()

	chaos := netsim.NewChaos(netsim.ChaosConfig{
		Seed:         seed,
		LatencyEvery: 3, // delay doorbell rings too, not just handshake frames
		Latency:      time.Millisecond,
	})
	dial := chaos.Dial(node.Dial)

	// A raw client first: the cutover must engage through both the
	// chaos wrapper and the simulated conn (SameHost promotion).
	c, err := Dial(dial, addr, "chaos-shm")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	earnRing(t, c)
	if err := c.Put("pre", "1"); err != nil {
		t.Fatalf("Put over ring: %v", err)
	}
	chaos.CutAll() // ring kill: doorbell socket closed under the transport
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Put("post-kill", "x"); err != nil {
			if !IsRetryable(err) {
				t.Fatalf("ring kill surfaced a non-retryable error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("puts kept succeeding after the ring was killed")
		}
	}
	c.Close()
}
