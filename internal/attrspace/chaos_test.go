package attrspace

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/liveness"
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

// restartable is an attribute server that can be killed and rebound on
// the same address with its attribute space (and therefore context
// seqs) intact — the shape of a daemon crash + supervisor restart. The
// address is a unix socket in the test's own directory, served with
// shm off so connections stay on the socket: a TCP port is the
// machine's to hand to another test process while the daemon is down,
// and a session that reconnects to somebody else's server sees a
// context restart that never happened.
type restartable struct {
	t     *testing.T
	space *attr.Space
	path  string
	addr  string // "unix:" + path; AutoDial takes it

	mu  sync.Mutex
	srv *Server
}

func newRestartable(t *testing.T) *restartable {
	t.Helper()
	r := &restartable{t: t, space: attr.NewSpace(), path: filepath.Join(t.TempDir(), "r.sock")}
	r.addr = "unix:" + r.path
	r.restart()
	t.Cleanup(func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.srv.Close()
	})
	return r
}

// kill closes the server abruptly (crash).
func (r *restartable) kill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.srv.Close()
}

// drain shuts the server down gracefully (CLOSE + in-flight replies).
func (r *restartable) drain(timeout time.Duration) {
	r.mu.Lock()
	srv := r.srv
	r.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	srv.Shutdown(ctx)
}

// restart binds a fresh server on the same address and space.
func (r *restartable) restart() {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, err := net.Listen("unix", r.path)
	if err != nil {
		r.t.Fatalf("bind %s: %v", r.path, err)
	}
	r.srv = NewServerWithSpace(r.space)
	r.srv.SetShm(false)
	go r.srv.Serve(l)
}

// mirror consumes a subscribed session's event stream and maintains
// the consumer-side picture, recording any violation of the
// per-attribute monotonic-seq guarantee.
type mirror struct {
	mu         sync.Mutex
	vals       map[string]string
	seqs       map[string]uint64
	resyncs    int
	violations []string
	journal    []string // every event, in arrival order — dumped on failure
}

func newMirror() *mirror {
	return &mirror{vals: make(map[string]string), seqs: make(map[string]uint64)}
}

// mirrorJournalCap bounds the event journal: long soaks stream far
// more events than a failure dump needs, so only the recent tail is
// kept.
const mirrorJournalCap = 4096

func (m *mirror) handle(ev Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.journal) >= mirrorJournalCap {
		m.journal = append(m.journal[:0], m.journal[mirrorJournalCap/2:]...)
	}
	m.journal = append(m.journal,
		fmt.Sprintf("op=%s attr=%s val=%q seq=%d resync=%v lost=%d", ev.Op, ev.Attr, ev.Value, ev.Seq, ev.Resync, ev.Lost))
	if ev.Op == "resync" {
		m.resyncs++
		return
	}
	if ev.Op == "destroy" {
		m.vals = make(map[string]string)
		m.seqs = make(map[string]uint64)
		return
	}
	if ev.Seq != 0 {
		// The guarantee is non-decreasing: a resync replay may repeat
		// the newest seq it already delivered live, but never go back.
		if last, ok := m.seqs[ev.Attr]; ok && ev.Seq < last {
			m.violations = append(m.violations,
				fmt.Sprintf("%s: seq %d after %d (op %s resync=%v)", ev.Attr, ev.Seq, last, ev.Op, ev.Resync))
		}
		m.seqs[ev.Attr] = ev.Seq
	}
	switch ev.Op {
	case "put":
		m.vals[ev.Attr] = ev.Value
	case "delete":
		delete(m.vals, ev.Attr)
	}
}

func (m *mirror) snapshot() (map[string]string, int, []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]string, len(m.vals))
	for k, v := range m.vals {
		out[k] = v
	}
	viol := append([]string(nil), m.violations...)
	return out, m.resyncs, viol
}

// events returns the full arrival-order journal, for failure dumps.
func (m *mirror) events() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.journal...)
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

// TestChaosSessionConvergence is the acceptance-criteria run: a writer
// and a subscribed watcher, both on reconnecting Sessions dialing
// through the seeded fault injector, survive mid-frame cuts, a
// partition, a crash restart, and a graceful drain restart (≥ 4
// injected failures). At the end the watcher's mirror must equal the
// server's authoritative state (no lost deletes), every delete the
// writer issued must have stuck (zero lost destroys), and the watcher
// must never have observed a per-attribute seq go backward.
func TestChaosSessionConvergence(t *testing.T) {
	seed := chaosSeed(t)
	r := newRestartable(t)
	// Pin the context open independently of client churn so its seq
	// counter survives every disconnect.
	keep := r.space.Join("chaos")
	defer keep.Leave()

	chaos := netsim.NewChaos(netsim.ChaosConfig{
		Seed:          seed,
		CutAfterBytes: 6 * 1024,
		LatencyEvery:  13,
		Latency:       time.Millisecond,
	})
	cfg := SessionConfig{
		Dial:        chaos.Dial(AutoDial),
		Addr:        r.addr,
		Context:     "chaos",
		Backoff:     liveness.Schedule{Initial: 5 * time.Millisecond, Max: 80 * time.Millisecond},
		MaxAttempts: -1, // partitions outlast any finite budget; never give up
		ConnectWait: 5 * time.Second,
	}
	writer := NewSession(cfg)
	defer writer.Close()
	watcher := NewSession(cfg)
	defer watcher.Close()

	m := newMirror()
	watcher.setEventHandler(m.handle)
	if err := watcher.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	rng := rand.New(rand.NewSource(seed))
	expected := make(map[string]string)
	opCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 5*time.Second)
	}
	put := func(a, v string) {
		ctx, cancel := opCtx()
		defer cancel()
		if _, err := writer.PutAt(ctx, Local, a, v); err != nil {
			t.Fatalf("PutCtx(%s): %v", a, err)
		}
		expected[a] = v
	}
	del := func(a string) {
		ctx, cancel := opCtx()
		defer cancel()
		if _, err := writer.DeleteAt(ctx, Local, a); err != nil {
			t.Fatalf("DeleteCtx(%s): %v", a, err)
		}
		delete(expected, a)
	}

	const rounds = 48
	kills := 0
	for round := 0; round < rounds; round++ {
		a := fmt.Sprintf("a%d", rng.Intn(8))
		put(a, fmt.Sprintf("v%d.%d", round, rng.Intn(1000)))
		if rng.Intn(5) == 0 {
			victim := fmt.Sprintf("a%d", rng.Intn(8))
			del(victim)
		}
		// Injected failures at fixed rounds: the acceptance bar is
		// surviving at least 3 kills/partitions in one run.
		switch round {
		case 10:
			chaos.CutAll() // kill every live connection mid-stream
			kills++
		case 20:
			chaos.Partition()
			time.Sleep(60 * time.Millisecond)
			chaos.Heal()
			kills++
		case 30:
			r.kill() // daemon crash + supervisor restart
			time.Sleep(20 * time.Millisecond)
			r.restart()
			kills++
		case 40:
			r.drain(200 * time.Millisecond) // graceful GOAWAY restart
			r.restart()
			kills++
		}
	}
	if kills < 3 {
		t.Fatalf("only %d failures injected; acceptance requires >= 3", kills)
	}

	// The byte-budget cutter must actually have torn frames.
	if st := chaos.Stats(); st.Cuts < 3 {
		t.Errorf("chaos cuts = %d, want >= 3 (stats %+v)", st.Cuts, st)
	}

	// Authoritative state: what the server's space really holds.
	auth, _, err := keep.SnapshotSeq()
	if err != nil {
		t.Fatalf("authoritative snapshot: %v", err)
	}
	authVals := make(map[string]string, len(auth))
	for k, v := range auth {
		authVals[k] = v.Value
	}
	if !sameMap(authVals, expected) {
		t.Fatalf("server state diverged from writer intent:\n server: %v\n expected: %v", authVals, expected)
	}
	// No lost destroys: every deleted attribute must be gone.
	for k := range authVals {
		if _, want := expected[k]; !want {
			t.Errorf("deleted attribute %q still present on server", k)
		}
	}

	// The watcher must converge to the authoritative state once its
	// session resyncs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _, _ := m.snapshot()
		if sameMap(got, authVals) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror never converged:\n mirror: %v\n server: %v", got, authVals)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, resyncs, violations := m.snapshot()
	if len(violations) > 0 {
		t.Fatalf("per-attr seq went backward %d times: %v", len(violations), violations)
	}
	if resyncs == 0 {
		t.Errorf("watcher saw no resync markers despite %d injected failures", kills)
	}
	if writer.gaveUp() || watcher.gaveUp() {
		t.Fatalf("a session gave up (writer %v, watcher %v)", writer.gaveUp(), watcher.gaveUp())
	}
	reconnects, retries, _ := writer.Stats()
	if reconnects == 0 && retries == 0 {
		t.Errorf("writer session reports no reconnects and no retries — faults not exercised?")
	}
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
// first dials are reset before HELLO completes, and a Session's
// backoff rides through until the listener settles.
func TestChaosRefuseListener(t *testing.T) {
	srv := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(netsim.RefuseListener(l, 3))
	t.Cleanup(srv.Close)

	s := NewSession(SessionConfig{
		Addr:        l.Addr().String(),
		Context:     "refuse",
		Backoff:     liveness.Schedule{Initial: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxAttempts: 20,
		ConnectWait: 5 * time.Second,
		DialTimeout: 250 * time.Millisecond,
	})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.PutAt(ctx, Local, "k", "v"); err != nil {
		t.Fatalf("PutCtx through refusing listener: %v", err)
	}
	if v, _, err := s.TryGetAt(context.Background(), Local, "k"); err != nil || v != "v" {
		t.Fatalf("TryGet = %q, %v", v, err)
	}
}

// TestChaosPartitionGivesUp verifies the bounded-attempts path: a
// partition that outlives MaxAttempts turns the session terminal with
// ErrSessionGaveUp, counted in session.gaveup.
func TestChaosPartitionGivesUp(t *testing.T) {
	_, addr := startServer(t)
	chaos := netsim.NewChaos(netsim.ChaosConfig{Seed: chaosSeed(t)})
	s := NewSession(SessionConfig{
		Dial:        chaos.Dial(TCPDial),
		Addr:        addr,
		Context:     "part",
		Backoff:     liveness.Schedule{Initial: time.Millisecond, Max: 5 * time.Millisecond},
		MaxAttempts: 4,
		ConnectWait: 200 * time.Millisecond,
	})
	defer s.Close()
	if _, err := s.PutAt(context.Background(), Local, "k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	chaos.Partition() // cuts the live conn and refuses every redial
	deadline := time.Now().Add(5 * time.Second)
	for !s.gaveUp() {
		if time.Now().After(deadline) {
			t.Fatal("session never gave up under a permanent partition")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.PutAt(context.Background(), Local, "k2", "v2"); !errors.Is(err, ErrSessionGaveUp) {
		t.Fatalf("post-give-up Put error = %v, want ErrSessionGaveUp", err)
	}
}

// TestChaosShardKill kills one CASS shard of a routed pool under
// continuous load. The contract being checked is partitioned
// degradation: ops routed to the surviving shards keep succeeding
// throughout, while ops in the dead shard's hash range surface as
// prompt errors (ErrShardDown once the health session notices) — never
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
	lass.EnableGlobalCache(addrs[0]+","+addrs[1]+","+addrs[2], CacheConfig{
		SweepInterval:  50 * time.Millisecond,
		ShardHeartbeat: 50 * time.Millisecond,
	})
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

// TestChaosShmRingKill covers fault injection on the
// ring. The injector interposes on the doorbell socket — the only
// kernel object a cut-over connection still owns — so killing or
// delaying that socket is exactly how chaos reaches a ring: CutAll
// closes it, the doorbell reader dies, and every parked ring waiter
// wakes with the transport error. A reconnecting Session must ride
// through a mid-stream ring kill, start again on the socket of the
// fresh connection, resync its mirror, keep heartbeating, and earn a
// ring again by its traffic.
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

	// Now a Session: heartbeats, reconnect, and resync all over rings.
	// The session phase gets its own context, pinned open server-side:
	// CutAll severs BOTH sessions' connections at once, and without the
	// pin the context's refcount hits zero, tdp_exit semantics destroy
	// it, and a put acked over a draining ring legitimately evaporates
	// with the old seq epoch — the mirror could then never converge on
	// a state the server no longer holds.
	keep := srv.Space().Join("chaos-shm-sess")
	defer keep.Leave()
	cfg := SessionConfig{
		Dial:        dial,
		Addr:        addr,
		Context:     "chaos-shm-sess",
		Backoff:     liveness.Schedule{Initial: 5 * time.Millisecond, Max: 80 * time.Millisecond},
		MaxAttempts: -1,
		ConnectWait: 5 * time.Second,
		Heartbeat:   20 * time.Millisecond,
	}
	writer := NewSession(cfg)
	defer writer.Close()
	watcher := NewSession(cfg)
	defer watcher.Close()
	m := newMirror()
	watcher.setEventHandler(m.handle)
	if err := watcher.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	expected := make(map[string]string)
	putS := func(a, v string) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := writer.PutAt(ctx, Local, a, v); err != nil {
			t.Fatalf("PutCtx(%s): %v", a, err)
		}
		expected[a] = v
	}
	for i := 0; i < 10; i++ {
		putS(fmt.Sprintf("a%d", i), "before")
	}
	// onRing keeps the writer busy until its live connection is a ring.
	onRing := func(when string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			wc, _, err := writer.client(ctx)
			cancel()
			if err != nil {
				t.Fatalf("writer client %s: %v", when, err)
			}
			if wc.ShmActive() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("writer session %s never earned a ring", when)
			}
			putS("busy", when)
		}
	}
	onRing("before the kill")
	chaos.CutAll() // kill every ring mid-session
	for i := 0; i < 10; i++ {
		putS(fmt.Sprintf("a%d", i), "after")
	}
	// The reconnected transport starts on the socket and earns a fresh
	// ring the way the first one did.
	onRing("after the kill")
	// Watcher converges on the post-kill state via resync.
	convergeBy := time.Now().Add(10 * time.Second)
	for {
		got, _, _ := m.snapshot()
		if sameMap(got, expected) {
			break
		}
		if time.Now().After(convergeBy) {
			got, _, _ := m.snapshot()
			t.Fatalf("mirror never converged over rings:\n mirror: %v\n expected: %v\n journal:\n  %s",
				got, expected, strings.Join(m.events(), "\n  "))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if reconnects, _, _ := writer.Stats(); reconnects == 0 {
		t.Error("writer session reports no reconnects after a ring kill")
	}
}
