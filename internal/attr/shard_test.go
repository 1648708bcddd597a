package attr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestShardCounts verifies construction rounds to a power of two and
// that a single-shard space still behaves correctly.
func TestShardCounts(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		s := NewSpaceShards(tc.in)
		if len(s.shards) != tc.want {
			t.Errorf("NewSpaceShards(%d): %d shards, want %d", tc.in, len(s.shards), tc.want)
		}
	}
	s := NewSpaceShards(1)
	r := s.Join("only")
	defer r.Leave()
	if err := r.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.TryGet("k"); v != "v" {
		t.Fatalf("TryGet = %q", v)
	}
}

// TestShardIsolation checks that contexts land on stable shards and
// that operations across many contexts don't interfere.
func TestShardIsolation(t *testing.T) {
	s := NewSpace()
	const n = 256 // several contexts per shard
	refs := make([]*Ref, n)
	for i := range refs {
		refs[i] = s.Join(fmt.Sprintf("ctx%d", i))
		refs[i].Put("id", fmt.Sprintf("%d", i))
	}
	for i, r := range refs {
		if v, err := r.TryGet("id"); err != nil || v != fmt.Sprintf("%d", i) {
			t.Fatalf("ctx%d: TryGet = %q, %v", i, v, err)
		}
	}
	if got := len(s.Contexts()); got != n {
		t.Fatalf("Contexts = %d, want %d", got, n)
	}
	for _, r := range refs {
		r.Leave()
	}
	if got := len(s.Contexts()); got != 0 {
		t.Fatalf("Contexts after leave = %d, want 0", got)
	}
}

// TestSeqOrderPerContextAcrossShards verifies the per-context Seq
// total order survives concurrent traffic in many other contexts.
func TestSeqOrderPerContextAcrossShards(t *testing.T) {
	s := NewSpace()
	r := s.Join("watched")
	defer r.Leave()
	sub, err := r.Subscribe(4096)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Noise: other contexts churning concurrently.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rr := s.Join(fmt.Sprintf("noise%d-%d", g, i%7))
				rr.Put("a", "b")
				rr.Leave()
			}
		}(g)
	}
	const puts = 500
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < puts; i++ {
			r.Put("k", fmt.Sprintf("%d", i))
		}
	}()
	var last uint64
	for i := 0; i < puts; i++ {
		select {
		case u := <-sub.Updates():
			if u.Seq <= last {
				t.Errorf("seq %d after %d", u.Seq, last)
			}
			last = u.Seq
		case <-time.After(5 * time.Second):
			t.Fatalf("update %d never arrived", i)
		}
	}
	wg.Wait()
}

// TestConcurrentLifecycleRace races context create/destroy against
// Subscribe and blocked Get over a small randomized set of context
// names. Run under -race this exercises the shard lock discipline,
// subscription teardown, and waiter cleanup.
func TestConcurrentLifecycleRace(t *testing.T) {
	s := NewSpace()
	names := []string{"a", "b", "c", "dd", "ee", "ff", "long-context-name"}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churners: join, put a little, leave (often destroying).
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := s.Join(names[rng.Intn(len(names))])
				for i := 0; i < rng.Intn(4); i++ {
					r.Put(fmt.Sprintf("k%d", rng.Intn(8)), "v")
				}
				if rng.Intn(3) == 0 {
					r.Delete(fmt.Sprintf("k%d", rng.Intn(8)))
				}
				r.Leave()
			}
		}(int64(g))
	}

	// Subscribers: subscribe, consume briefly, unsubscribe or leave.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed * 77))
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := s.Join(names[rng.Intn(len(names))])
				sub, err := r.Subscribe(4)
				if err != nil {
					r.Leave()
					continue
				}
				deadline := time.After(time.Millisecond)
			drain:
				for {
					select {
					case _, ok := <-sub.Updates():
						if !ok {
							break drain
						}
					case <-deadline:
						break drain
					}
				}
				r.Unsubscribe(sub)
				r.Leave()
			}
		}(int64(g))
	}

	// Blocked getters: wait on attributes that may never arrive.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed * 131))
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := s.Join(names[rng.Intn(len(names))])
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(2000))*time.Microsecond)
				_, err := r.Get(ctx, fmt.Sprintf("k%d", rng.Intn(8)))
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("Get: %v", err)
				}
				r.Leave()
			}
		}(int64(g))
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Everything left should tear down cleanly to zero contexts.
	if left := s.Contexts(); len(left) != 0 {
		t.Errorf("contexts leaked: %v", left)
	}
}

// TestOverflowDropsOldestDeclared overflows a small subscription with
// writes, some to one attribute and some to others, while nobody
// drains it. The channel keeps the newest updates in seq order, the
// last write among them; every other update is counted in Lost, so
// delivered + Lost is exactly what was published.
func TestOverflowDropsOldestDeclared(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	const buffer, n = 4, 200
	sub, err := r.Subscribe(buffer)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		attr := "hot"
		if i%3 == 0 {
			attr = fmt.Sprintf("k%d", i)
		}
		r.Put(attr, strconv.Itoa(i))
	}
	r.Unsubscribe(sub)
	var got []Update
	for u := range sub.Updates() {
		got = append(got, u)
	}
	if uint64(len(got))+sub.Lost() != n || len(got) != buffer {
		t.Fatalf("delivered %d + lost %d, want %d updates in the channel and %d in all", len(got), sub.Lost(), buffer, n)
	}
	for i, u := range got {
		if want := uint64(n - buffer + i + 1); u.Seq != want || u.Value != strconv.Itoa(int(want-1)) {
			t.Errorf("update %d = seq %d value %q, want the newest: seq %d", i, u.Seq, u.Value, want)
		}
	}
	if sub.Coalesced() != 0 {
		t.Errorf("Coalesced = %d; nothing coalesces", sub.Coalesced())
	}
}

// TestSubscribeStartsNoGoroutine: a subscription is its channel; a
// hundred of them start nothing that runs.
func TestSubscribeStartsNoGoroutine(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if _, err := r.Subscribe(1); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("100 subscriptions took the goroutine count from %d to %d", before, after)
	}
}

// TestUnsubscribeAfterLeave: a subscription outlives the Leave of the
// reference that made it while another reference keeps the context
// alive, and Unsubscribe through the left reference still removes it:
// its channel closes and later writes are not queued for it.
func TestUnsubscribeAfterLeave(t *testing.T) {
	s := NewSpace()
	r, other := s.Join("c"), s.Join("c")
	defer other.Leave()
	sub, err := r.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	r.Leave()
	r.Unsubscribe(sub)
	other.Put("a", "1")
	if u, ok := <-sub.Updates(); ok {
		t.Errorf("received %+v after Unsubscribe", u)
	}
	c := other.ctx
	c.sh.mu.RLock()
	defer c.sh.mu.RUnlock()
	if len(c.subs) != 0 {
		t.Errorf("%d subscriptions left in the context after Unsubscribe", len(c.subs))
	}
}

// TestOverflowNeverDropsDestroy stalls delivery, overflows the channel
// with distinct attributes, then destroys the context: OpDestroy must
// still arrive, and the channel must close after it.
func TestOverflowNeverDropsDestroy(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	sub, err := r.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.Put(fmt.Sprintf("k%d", i), "v") // distinct attrs
	}
	r.Leave() // destroys: OpDestroy sent even though the channel is full
	sawDestroy := false
	deadline := time.After(5 * time.Second)
	for !sawDestroy {
		select {
		case u, ok := <-sub.Updates():
			if !ok {
				t.Fatal("channel closed before OpDestroy")
			}
			if u.Op == OpDestroy {
				sawDestroy = true
			}
		case <-deadline:
			t.Fatal("OpDestroy never delivered")
		}
	}
	select {
	case _, ok := <-sub.Updates():
		if ok {
			t.Error("update after OpDestroy")
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed after OpDestroy")
	}
	if sub.Lost() == 0 {
		t.Error("expected Lost > 0 after overflow with distinct attrs")
	}
}

// TestPutSeqVersions checks the seq-returning APIs agree with each
// other and with delivered updates.
func TestPutSeqVersions(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	s1, err := r.PutSeq("a", "1")
	if err != nil || s1 != 1 {
		t.Fatalf("PutSeq = %d, %v", s1, err)
	}
	last, err := r.PutBatchSeq([]KV{{"b", "2"}, {"c", "3"}})
	if err != nil || last != 3 {
		t.Fatalf("PutBatchSeq = %d, %v", last, err)
	}
	v, seq, err := r.TryGetSeq("b")
	if err != nil || v != "2" || seq != 2 {
		t.Fatalf("TryGetSeq(b) = %q, %d, %v", v, seq, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	v, seq, err = r.GetSeq(ctx, "c")
	if err != nil || v != "3" || seq != 3 {
		t.Fatalf("GetSeq(c) = %q, %d, %v", v, seq, err)
	}
	// A blocked GetSeq reports the seq of the write that woke it.
	got := make(chan uint64, 1)
	go func() {
		_, seq, err := r.GetSeq(context.Background(), "later")
		if err != nil {
			t.Errorf("GetSeq: %v", err)
		}
		got <- seq
	}()
	time.Sleep(10 * time.Millisecond)
	want, _ := r.PutSeq("later", "x")
	if seq := <-got; seq != want {
		t.Errorf("woken GetSeq seq = %d, want %d", seq, want)
	}
}
