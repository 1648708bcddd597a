package tdp_test

// Shard-scaling benchmarks for the partitioned CASS (DESIGN §13,
// experiment E20). The point being priced is the router's ability to
// overlap per-shard round trips: on this single-CPU reference box the
// shards cannot add compute, so all scaling must come from keeping
// several cross-host writes in flight at once. The injected 2ms write
// stall models that cross-host hop (same device as the GlobalGetCached
// slow link, just slower). The stall is charged to every write, and
// each op is one write of its own on its shard's one connection, so a
// single shard's throughput is capped at one op per link delay, while
// n shards stall n writes concurrently. The drivers call the
// GlobalCache router directly — the client↔LASS leg is priced
// separately by BenchmarkSameHostPut and would only dilute the
// fan-out signal here.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/attrspace"
)

// shardLinkDelay is the modeled LASS→CASS one-way hop. It must dwarf
// the per-op CPU cost (~10-20µs on the reference box) for the
// overlap, not the compute, to set the curve.
const shardLinkDelay = 2 * time.Millisecond

// benchShardPool starts n shard daemons plus a routing GlobalCache
// whose upstream links all carry shardLinkDelay, and returns the
// router and `contexts` context names spread evenly over the shards
// (contexts must be a multiple of n).
func benchShardPool(b *testing.B, n, contexts int) (*attrspace.GlobalCache, []string) {
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := attrspace.NewServer()
		if err := srv.SetShard(i, n); err != nil {
			b.Fatal(err)
		}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Close)
		addrs[i] = addr
	}
	lass := attrspace.NewServer()
	gc := lass.EnableGlobalCache(strings.Join(addrs, ","), attrspace.CacheConfig{
		Dial: slowDial(shardLinkDelay),
	})
	b.Cleanup(lass.Close)
	// One context per worker, dealt round-robin so every shard owns an
	// equal share: ctxs[w] belongs to shard w%n.
	perShard := contexts / n
	counts := make([]int, n)
	ctxs := make([]string, contexts)
	for i, found := 0, 0; found < contexts; i++ {
		name := fmt.Sprintf("job-%d", i)
		idx := attrspace.ShardIndex(name, n)
		if counts[idx] == perShard {
			continue
		}
		ctxs[idx+n*counts[idx]] = name
		counts[idx]++
		found++
	}
	return gc, ctxs
}

// BenchmarkCASSSharded drives 64 concurrent writers through the
// routing layer at 1, 2, and 4 shards. Near-linear scaling is the
// acceptance bar: shards=4 must clear 3× the shards=1 throughput.
func BenchmarkCASSSharded(b *testing.B) {
	const workers = 32
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			gc, ctxs := benchShardPool(b, n, workers)
			bg := context.Background()
			// Prime every context so per-context cache state and the
			// pooled shard connections exist before the clock starts.
			for _, name := range ctxs {
				if _, err := gc.Put(bg, name, "warm", "1"); err != nil {
					b.Fatal(err)
				}
			}
			var next int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					name := ctxs[w]
					key := fmt.Sprintf("k%d", w)
					for {
						if atomic.AddInt64(&next, 1) > int64(b.N) {
							return
						}
						if _, err := gc.Put(bg, name, key, "v"); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkCASSShardedSnapshotMany prices one mixed-context GSNAPM: 16
// contexts spread over 4 shards, snapshotted in a single scatter-gather
// call. The gather overlaps the four per-shard round trips, so one call
// costs roughly one link delay, not four.
func BenchmarkCASSShardedSnapshotMany(b *testing.B) {
	const n = 4
	gc, names := benchShardPool(b, n, 16)
	bg := context.Background()
	for _, name := range names {
		for a := 0; a < 8; a++ {
			if _, err := gc.Put(bg, name, fmt.Sprintf("a%d", a), "v"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps, err := gc.SnapshotMany(bg, names)
		if err != nil {
			b.Fatal(err)
		}
		if len(snaps) != 16 {
			b.Fatalf("SnapshotMany = %d contexts, want 16", len(snaps))
		}
	}
}
