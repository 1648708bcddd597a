package attrspace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tdp/internal/attr"
)

// TestCtxScopeNeverWritesToALeftContext hammers CPUT at a context whose
// only holder keeps joining and leaving. A ctx-scope write may only land
// in a context somebody holds, so every one the server acknowledged must
// have been seen by a holder — in the snapshot it took on joining or on
// the subscription it kept until the context was destroyed — and every
// other one must have been refused with "no such context". The server
// used to check for a holder and then join in two steps: a write that
// fell between them created the context, was acknowledged with seq 1,
// and was destroyed with it, seen by nobody.
func TestCtxScopeNeverWritesToALeftContext(t *testing.T) {
	srv, addr := startServer(t)
	const name = "flap"
	cput := opFor(opPut, scopeCtx)

	var seen sync.Map // attribute → struct{}: writes a holder saw
	stop := make(chan struct{})
	var holder sync.WaitGroup
	holder.Add(1)
	go func() {
		defer holder.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ref := srv.Space().Join(name)
			sub, err := ref.Subscribe(1 << 14)
			if err != nil {
				t.Errorf("Subscribe: %v", err)
				return
			}
			snap, _ := ref.Snapshot()
			for k := range snap {
				seen.Store(k, struct{}{})
			}
			time.Sleep(20 * time.Microsecond)
			ref.Leave()
			// The channel closes when the context is destroyed: at once,
			// or when the last write that joined beside us has left.
			for u := range sub.Updates() {
				if u.Op == attr.OpPut {
					seen.Store(u.Attr, struct{}{})
				}
			}
			if sub.Lost() > 0 {
				t.Errorf("holder's subscription overflowed (%d lost); the test cannot see every write", sub.Lost())
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	const writers, writes = 4, 1500
	acked := make([][]string, writers)
	refused := make([]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		pool := dialT(t, addr, routerContext)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				m := putReq(cput.req(), key, "v").Set("ctx", name)
				reply, err := pool.call(context.Background(), cput, m)
				switch {
				case err != nil:
					t.Errorf("CPUT %s: %v", key, err)
					return
				case reply.Verb == "OK":
					acked[w] = append(acked[w], key)
				case reply.Verb == "ERROR" && strings.Contains(reply.Get("error"), "no such context"):
					refused[w]++
				default:
					t.Errorf("CPUT %s: reply %v", key, reply)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	holder.Wait()

	var nAcked, nRefused int
	for w := range acked {
		nRefused += refused[w]
		nAcked += len(acked[w])
		for _, key := range acked[w] {
			if _, ok := seen.Load(key); !ok {
				t.Errorf("CPUT %s was acknowledged, but no holder of %q ever saw it", key, name)
			}
		}
	}
	if nAcked == 0 || nRefused == 0 {
		t.Errorf("%d acknowledged, %d refused: the test must exercise both sides of the race", nAcked, nRefused)
	}
}

// TestCtxScopeOriginIsPerRequest: the ctx-scope requests of one pooled
// connection join their contexts through one reference, so nothing one
// request sets on it may outlive that request. A CPUT naming the
// subscription's id is withheld from it, and the next CPUT on the same
// connection, naming none, is delivered; the shard counts one update
// suppressed, not one per request since.
func TestCtxScopeOriginIsPerRequest(t *testing.T) {
	srv, addr := startServer(t)
	watcher := dialT(t, addr, "job1")
	seen := make(chan string, 4)
	origin, err := watcher.subscribe(func(ev Event) { seen <- ev.Value })
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	pool := dialT(t, addr, routerContext)
	bg := context.Background()
	cput := opFor(opPut, scopeCtx)
	for _, origin := range []string{origin, ""} {
		m := putReq(cput.req(), "k", "origin="+origin).Set("ctx", "job1")
		if origin != "" {
			m.Set("origin", origin)
		}
		if _, err := pool.mutate(bg, cput, m); err != nil {
			t.Fatalf("CPUT origin=%q: %v", origin, err)
		}
	}
	select {
	case v := <-seen:
		if v != "origin=" {
			t.Fatalf("the subscription was sent %q, its own origin's write", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a CPUT without an origin was withheld from the subscription the one before it named")
	}
	// A third request on the connection: the second one's dispatch, and
	// with it its suppressed count, is done.
	cget := opFor(opTryGet, scopeCtx)
	if _, err := pool.call(bg, cget, attrReq(cget.req(), "k").Set("ctx", "job1")); err != nil {
		t.Fatalf("CGET: %v", err)
	}
	if n := counter(srv, "attrspace.events.suppressed"); n != 1 {
		t.Errorf("attrspace.events.suppressed = %d after one withheld update, want 1", n)
	}
}
