package attr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPutThenTryGet(t *testing.T) {
	s := NewSpace()
	r := s.Join("job1")
	defer r.Leave()
	if err := r.Put("pid", "1234"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := r.TryGet("pid")
	if err != nil || v != "1234" {
		t.Fatalf("TryGet = %q, %v", v, err)
	}
}

func TestTryGetAbsent(t *testing.T) {
	s := NewSpace()
	r := s.Join("job1")
	defer r.Leave()
	if _, err := r.TryGet("nothing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestGetBlocksUntilPut(t *testing.T) {
	s := NewSpace()
	rm := s.Join("job1")
	rt := s.Join("job1")
	defer rm.Leave()
	defer rt.Leave()

	got := make(chan string)
	go func() {
		v, err := rt.Get(context.Background(), "pid")
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		got <- v
	}()

	select {
	case v := <-got:
		t.Fatalf("Get returned %q before Put", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := rm.Put("pid", "42"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	select {
	case v := <-got:
		if v != "42" {
			t.Errorf("Get = %q, want 42", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Get did not unblock after Put")
	}
}

func TestGetReturnsImmediatelyWhenPresent(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	r.Put("a", "v")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	v, err := r.Get(ctx, "a")
	if err != nil || v != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestGetCancellation(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.Get(ctx, "never")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Get did not return after cancel")
	}
}

func TestGetCancelRemovesWaiter(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		r.Get(ctx, "x")
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	<-done
	// After cancellation the waiter list must be empty; a Put must not
	// try to deliver to the dead waiter (it would be harmless — buffered —
	// but the map should be cleaned).
	sh := s.shardFor("c")
	sh.mu.Lock()
	c := sh.contexts["c"]
	n := len(c.waiters["x"])
	sh.mu.Unlock()
	if n != 0 {
		t.Errorf("waiter list has %d entries after cancel, want 0", n)
	}
	if err := r.Put("x", "late"); err != nil {
		t.Fatalf("Put after cancelled Get: %v", err)
	}
}

func TestMultipleWaitersAllWake(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	const n = 16
	var wg sync.WaitGroup
	results := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := r.Get(context.Background(), "shared")
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			results <- v
		}()
	}
	time.Sleep(10 * time.Millisecond)
	r.Put("shared", "val")
	wg.Wait()
	close(results)
	count := 0
	for v := range results {
		if v != "val" {
			t.Errorf("waiter got %q", v)
		}
		count++
	}
	if count != n {
		t.Errorf("%d waiters woke, want %d", count, n)
	}
}

func TestOverwriteValue(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	r.Put("k", "v1")
	r.Put("k", "v2")
	v, _ := r.TryGet("k")
	if v != "v2" {
		t.Errorf("value = %q, want v2", v)
	}
}

func TestDelete(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	r.Put("k", "v")
	if err := r.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := r.TryGet("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after Delete, err = %v, want ErrNotFound", err)
	}
	// Deleting an absent attribute is a no-op.
	if err := r.Delete("k"); err != nil {
		t.Errorf("Delete absent: %v", err)
	}
}

func TestContextIsolation(t *testing.T) {
	s := NewSpace()
	a := s.Join("jobA")
	b := s.Join("jobB")
	defer a.Leave()
	defer b.Leave()
	a.Put("pid", "1")
	if _, err := b.TryGet("pid"); !errors.Is(err, ErrNotFound) {
		t.Errorf("context B sees context A's attribute: err = %v", err)
	}
}

func TestRefcountDestroysContext(t *testing.T) {
	s := NewSpace()
	a := s.Join("job")
	b := s.Join("job")
	a.Put("k", "v")
	if got := s.Refs("job"); got != 2 {
		t.Fatalf("Refs = %d, want 2", got)
	}
	a.Leave()
	if got := s.Refs("job"); got != 1 {
		t.Fatalf("after one Leave, Refs = %d, want 1", got)
	}
	// Attribute survives while one participant remains.
	if v, err := b.TryGet("k"); err != nil || v != "v" {
		t.Fatalf("attribute lost while context alive: %q, %v", v, err)
	}
	b.Leave()
	if got := s.Refs("job"); got != 0 {
		t.Fatalf("after last Leave, Refs = %d, want 0", got)
	}
	// Rejoin gets a fresh, empty context.
	c := s.Join("job")
	defer c.Leave()
	if _, err := c.TryGet("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("rejoined context retained old attribute")
	}
}

func TestOpsAfterLeaveFail(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	r.Leave()
	if err := r.Put("k", "v"); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Leave: %v", err)
	}
	if _, err := r.TryGet("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("TryGet after Leave: %v", err)
	}
	if _, err := r.Get(context.Background(), "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Leave: %v", err)
	}
	if err := r.Delete("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after Leave: %v", err)
	}
	if _, err := r.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Errorf("Snapshot after Leave: %v", err)
	}
	if err := r.Leave(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Leave: %v", err)
	}
	if r.Context() != "" {
		t.Errorf("Context after Leave = %q", r.Context())
	}
}

func TestSnapshotAndLen(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	r.Put("a", "1")
	r.Put("b", "2")
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(snap) != 2 || snap["a"] != "1" || snap["b"] != "2" {
		t.Errorf("Snapshot = %v", snap)
	}
	// Mutating the snapshot must not affect the space.
	snap["a"] = "hacked"
	if v, _ := r.TryGet("a"); v != "1" {
		t.Error("Snapshot aliases internal state")
	}
	if n, _ := r.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

func TestSubscribeReceivesUpdates(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	sub, err := r.Subscribe(8)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	r.Put("a", "1")
	r.Put("a", "2")
	r.Delete("a")

	want := []Update{
		{Context: "c", Attr: "a", Value: "1", Op: OpPut, Seq: 1},
		{Context: "c", Attr: "a", Value: "2", Op: OpPut, Seq: 2},
		{Context: "c", Attr: "a", Value: "2", Op: OpDelete, Seq: 3},
	}
	for i, w := range want {
		select {
		case u := <-sub.Updates():
			if u != w {
				t.Errorf("update %d = %+v, want %+v", i, u, w)
			}
		case <-time.After(time.Second):
			t.Fatalf("update %d never arrived", i)
		}
	}
}

func TestSubscribeDestroyNotification(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	sub, _ := r.Subscribe(4)
	r.Leave() // last participant: context destroyed
	select {
	case u, ok := <-sub.Updates():
		if !ok {
			t.Fatal("channel closed before OpDestroy delivered")
		}
		if u.Op != OpDestroy {
			t.Errorf("Op = %v, want OpDestroy", u.Op)
		}
	case <-time.After(time.Second):
		t.Fatal("no destroy notification")
	}
	// Channel must then be closed.
	select {
	case _, ok := <-sub.Updates():
		if ok {
			t.Error("unexpected extra update")
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed after destroy")
	}
}

// TestOriginSuppressesOwnEcho: a mutation made through a reference whose
// origin is a subscription's id skips that subscription and nobody
// else's; without an origin everything is delivered as ever, and a
// destroy reaches everyone.
func TestOriginSuppressesOwnEcho(t *testing.T) {
	s := NewSpace()
	holder := s.Join("c")
	mine, _ := holder.Subscribe(16)
	theirs, _ := holder.Subscribe(16)
	plain, _ := holder.Subscribe(16)
	if mine.ID == 0 || mine.ID == theirs.ID || theirs.ID == plain.ID {
		t.Fatalf("subscription ids %d, %d, %d: want distinct and non-zero", mine.ID, theirs.ID, plain.ID)
	}

	writer := new(Ref)
	if !s.JoinExisting("c", writer) {
		t.Fatal("JoinExisting of a held context failed")
	}
	writer.SetOrigin(mine.ID)
	writer.Put("a", "1")                                                  // seq 1
	writer.PutBatch([]KV{{Key: "b", Value: "2"}, {Key: "c", Value: "3"}}) // seqs 2, 3
	writer.Delete("a")                                                    // seq 4
	if n := writer.Suppressed(); n != 4 {
		t.Errorf("writer.Suppressed() = %d, want 4 (one per update withheld from its own origin)", n)
	}
	writer.Leave()
	holder.Put("d", "4") // seq 5, no origin: everyone's
	if n := holder.Suppressed(); n != 0 {
		t.Errorf("an origin-less reference suppressed %d updates", n)
	}
	holder.Leave() // destroy, seq 6

	seqs := func(sub *Subscription) (got []uint64) {
		for u := range sub.Updates() {
			got = append(got, u.Seq)
		}
		return got
	}
	if got := seqs(mine); fmt.Sprint(got) != "[5 6]" {
		t.Errorf("the writer's own origin saw seqs %v, want [5 6]: only the foreign put and the destroy", got)
	}
	for name, sub := range map[string]*Subscription{"theirs": theirs, "plain": plain} {
		if got := seqs(sub); fmt.Sprint(got) != "[1 2 3 4 5 6]" {
			t.Errorf("subscription %s saw seqs %v, want all of 1..6", name, got)
		}
	}
}

// TestJoinExistingRefillsItsRef: a reference JoinExisting filled, once
// left, can be filled again and starts over — no origin, nothing
// suppressed — which is what lets a server join every ctx-scope request
// of a connection through one reference. A context nobody holds leaves
// the reference as it was.
func TestJoinExistingRefillsItsRef(t *testing.T) {
	s := NewSpace()
	holder := s.Join("c")
	sub, _ := holder.Subscribe(16)
	var ref Ref
	if !s.JoinExisting("c", &ref) {
		t.Fatal("JoinExisting of a held context failed")
	}
	ref.SetOrigin(sub.ID)
	ref.Put("a", "1") // seq 1, withheld from sub
	ref.Leave()
	if s.JoinExisting("nobody", &ref) || ref.Context() != "" || s.Refs("nobody") != 0 {
		t.Fatal("JoinExisting of a context nobody holds joined or created it")
	}
	if !s.JoinExisting("c", &ref) {
		t.Fatal("JoinExisting through a left reference failed")
	}
	if n := ref.Suppressed(); n != 0 {
		t.Errorf("a refilled reference starts with %d suppressed, want 0", n)
	}
	ref.Put("b", "2") // seq 2, no origin: sub's
	ref.Leave()
	holder.Leave() // destroy, seq 3
	var got []uint64
	for u := range sub.Updates() {
		got = append(got, u.Seq)
	}
	if fmt.Sprint(got) != "[2 3]" {
		t.Errorf("the subscription saw seqs %v, want [2 3]: the refilled reference kept its origin", got)
	}
}

// TestIncarnationsAreMintedPerCreation: a context's incarnation is fixed
// for its life and new each time the name is created again, in this
// Space or another; a subscription records it with the seq it starts
// after.
func TestIncarnationsAreMintedPerCreation(t *testing.T) {
	s := NewSpace()
	first := s.Join("c")
	first.Put("a", "1")
	second := s.Join("c")
	sub1, _ := first.Subscribe(1)
	again, _ := second.Subscribe(1)
	if sub1.Inc == 0 || again.Inc != sub1.Inc || sub1.Seq != 1 {
		t.Fatalf("one context's subscriptions: inc %d and %d, seq %d; want one non-zero inc, seq 1", sub1.Inc, again.Inc, sub1.Seq)
	}
	first.Leave()
	second.Leave() // the last reference: the context is destroyed
	sub2, _ := s.Join("c").Subscribe(1)
	other, _ := NewSpace().Join("c").Subscribe(1)
	if sub2.Inc == sub1.Inc || other.Inc == sub1.Inc || other.Inc == sub2.Inc || sub2.Seq != 0 {
		t.Errorf("incarnations %d, recreated %d (seq %d), another space's %d: want three distinct, the recreated at seq 0",
			sub1.Inc, sub2.Inc, sub2.Seq, other.Inc)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	sub, _ := r.Subscribe(1)
	r.Unsubscribe(sub)
	// Channel closed; a Put must not panic or block.
	r.Put("a", "1")
	if _, ok := <-sub.Updates(); ok {
		t.Error("received update after Unsubscribe")
	}
}

func TestSubscriberSequenceMonotonic(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	sub, _ := r.Subscribe(128)
	const n = 100
	for i := 0; i < n; i++ {
		r.Put(fmt.Sprintf("k%d", i), "v")
	}
	var last uint64
	for i := 0; i < n; i++ {
		u := <-sub.Updates()
		if u.Seq <= last {
			t.Fatalf("sequence not monotonic: %d after %d", u.Seq, last)
		}
		last = u.Seq
	}
}

func TestConcurrentPutGetRace(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	defer r.Leave()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Put(fmt.Sprintf("k%d", g), fmt.Sprintf("%d", i))
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.TryGet(fmt.Sprintf("k%d", g))
			}
		}(g)
	}
	wg.Wait()
}

func TestContextsListing(t *testing.T) {
	s := NewSpace()
	a := s.Join("zeta")
	b := s.Join("alpha")
	defer a.Leave()
	defer b.Leave()
	got := s.Contexts()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Errorf("Contexts = %v, want [alpha zeta]", got)
	}
}

// Property: for any sequence of puts, the final TryGet of each key
// equals the last value put for that key.
func TestQuickLastWriteWins(t *testing.T) {
	f := func(ops []struct{ K, V string }) bool {
		s := NewSpace()
		r := s.Join("q")
		defer r.Leave()
		want := make(map[string]string)
		for _, op := range ops {
			if err := r.Put(op.K, op.V); err != nil {
				return false
			}
			want[op.K] = op.V
		}
		snap, err := r.Snapshot()
		if err != nil || len(snap) != len(want) {
			return false
		}
		for k, v := range want {
			if snap[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: join/leave pairs in any interleaving always end with the
// context destroyed and a fresh context on rejoin.
func TestQuickRefcountBalance(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%16) + 1
		s := NewSpace()
		refs := make([]*Ref, count)
		for i := range refs {
			refs[i] = s.Join("ctx")
		}
		if s.Refs("ctx") != count {
			return false
		}
		for _, r := range refs {
			if err := r.Leave(); err != nil {
				return false
			}
		}
		return s.Refs("ctx") == 0 && len(s.Contexts()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSubscribeAfterLeaveFails(t *testing.T) {
	s := NewSpace()
	r := s.Join("c")
	r.Leave()
	if _, err := r.Subscribe(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after Leave: %v", err)
	}
}

func TestOpString(t *testing.T) {
	if OpPut.String() != "put" || OpDelete.String() != "delete" || OpDestroy.String() != "destroy" {
		t.Error("Op.String mnemonics wrong")
	}
	if Op(99).String() != "op(99)" {
		t.Errorf("unknown op = %q", Op(99).String())
	}
}

// TestLastLeaveAllocatesNothing: destroying a context empties its
// subscriber and waiter maps in place; the context is unreachable
// after, so making new ones would be garbage at once.
func TestLastLeaveAllocatesNothing(t *testing.T) {
	const runs = 50
	s := NewSpace()
	refs := make([]*Ref, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range refs {
		refs[i] = s.Join(fmt.Sprintf("c%d", i))
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() { refs[i].Leave(); i++ }); n != 0 {
		t.Errorf("last Leave allocates %.1f objects, want 0", n)
	}
	if left := s.Contexts(); len(left) != 0 {
		t.Errorf("contexts left: %v", left)
	}
}
