package scenario

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/mrnet"
	"tdp/internal/netsim"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// This file holds the world builders: reusable compositions of the
// repo's layers that phases manipulate. A telemetry Plane is a netsim
// network carrying an mrnet reduction tree between a simulated daemon
// fleet and a counting front-end sink; a ShardedCASS is a pool of
// restartable CASS shard daemons behind a routing LASS. Both are pure
// library objects — no testing.T — so scenarios stay declarative.

// Sink is the front-end stand-in at the top of a telemetry plane: it
// accepts the root's connection, counts every message and verb, and
// polls the tree through the root with STATS scope=tree. It
// deliberately never sends RUN — the simulated daemons don't wait for
// it.
type Sink struct {
	l     net.Listener
	msgs  atomic.Int64
	conns atomic.Int64

	mu      sync.Mutex
	verbs   map[string]int
	root    *wire.Conn         // the latest accepted connection: the tree root's
	replies chan *wire.Message // STATSV frames, for Poll
	pollMu  sync.Mutex         // one poll at a time
	polls   int
}

// NewSink starts a sink on the listener.
func NewSink(l net.Listener) *Sink {
	s := &Sink{l: l, verbs: make(map[string]int), replies: make(chan *wire.Message, 1)}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			wc := wire.NewConn(c)
			s.mu.Lock()
			s.root = wc
			s.mu.Unlock()
			go func() {
				defer c.Close()
				for {
					m, err := wc.Recv()
					if err != nil {
						return
					}
					s.msgs.Add(1)
					s.mu.Lock()
					s.verbs[m.Verb]++
					s.mu.Unlock()
					if m.Verb == "STATSV" {
						select {
						case s.replies <- m:
						default: // nobody waits for it: a late reply
						}
					}
				}
			}()
		}
	}()
	return s
}

// Poll asks the root for its subtree rollup — one STATS scope=tree out,
// one STATSV back, whatever the pool's size — and waits up to timeout
// for it.
func (s *Sink) Poll(timeout time.Duration) (telemetry.Snapshot, error) {
	s.pollMu.Lock()
	defer s.pollMu.Unlock()
	s.mu.Lock()
	root := s.root
	s.mu.Unlock()
	if root == nil {
		return telemetry.Snapshot{}, fmt.Errorf("sink: the root has not connected")
	}
	s.polls++
	id := strconv.Itoa(s.polls)
	if err := root.Send(wire.NewMessage("STATS").Set("scope", "tree").Set("id", id)); err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("sink: poll: %w", err)
	}
	deadline := time.After(timeout)
	for {
		select {
		case m := <-s.replies:
			if m.Get("id") != id {
				continue // an earlier poll's reply, after its caller gave up
			}
			return telemetry.ParseSnapshot([]byte(m.Get("json")))
		case <-deadline:
			return telemetry.Snapshot{}, fmt.Errorf("sink: no STATSV within %v", timeout)
		}
	}
}

// Addr returns the sink's listen address.
func (s *Sink) Addr() string { return s.l.Addr().String() }

// Conns returns how many connections the sink has accepted — the
// front-end's fan-in, which a reduction tree must keep at 1.
func (s *Sink) Conns() int64 { return s.conns.Load() }

// Msgs returns the total messages received.
func (s *Sink) Msgs() int64 { return s.msgs.Load() }

// VerbCount returns how many messages of one verb arrived.
func (s *Sink) VerbCount(verb string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verbs[verb]
}

// Close stops accepting.
func (s *Sink) Close() { s.l.Close() }

// PlaneConfig sizes a telemetry plane.
type PlaneConfig struct {
	// Hosts is the daemon count; each gets its own simulated host.
	Hosts int
	// FanOut / Levels shape the reduction tree (see mrnet.TreeConfig).
	FanOut int
	Levels int
	// ChaosSeed, when non-zero, wraps the daemons' dials in a seeded
	// chaos injector cutting connections mid-stream.
	ChaosSeed     int64
	CutAfterBytes int
}

// Plane is a telemetry fan-in world: Hosts simulated daemons, a
// reduction tree on simulated "mrnet" hosts, and the counting Sink on
// a simulated "fe" host. Everything runs over netsim pipes, so a 10k+
// host plane consumes zero file descriptors.
type Plane struct {
	Net   *netsim.Network
	Sink  *Sink
	Tree  *mrnet.Tree
	Fleet *Fleet
	Chaos *netsim.Chaos
	cfg   PlaneConfig
}

// BuildPlane constructs the network, sink, tree, and (unregistered)
// fleet, and registers teardown on the run.
func BuildPlane(r *Run, cfg PlaneConfig) (*Plane, error) {
	nw := netsim.New()
	feHost := nw.AddHost("fe")
	feL, err := feHost.Listen(0)
	if err != nil {
		return nil, err
	}
	sink := NewSink(feL)

	// All tree nodes live on one "mrnet" host: their listeners bind
	// there, and their parent-ward dials originate there.
	mrHost := nw.AddHost("mrnet")
	tree, err := mrnet.BuildReductionTree(mrnet.TreeConfig{
		ParentAddr: sink.Addr(),
		Daemons:    cfg.Hosts,
		FanOut:     cfg.FanOut,
		Levels:     cfg.Levels,
		Dial:       mrHost.Dial,
		Listen:     func() (net.Listener, error) { return mrHost.Listen(0) },
		// The fleet sends no profile SAMPLEs, so the nodes' flush
		// tickers would only idle.
		FlushInterval: time.Hour,
	})
	if err != nil {
		sink.Close()
		return nil, err
	}

	p := &Plane{Net: nw, Sink: sink, Tree: tree, cfg: cfg}
	leafAddrs := tree.LeafAddrs()
	dial := func(i int, addr string) (net.Conn, error) {
		return nw.AddHost(hostName(i)).Dial(addr)
	}
	if cfg.ChaosSeed != 0 {
		cut := cfg.CutAfterBytes
		if cut == 0 {
			cut = 8 << 10
		}
		p.Chaos = netsim.NewChaos(netsim.ChaosConfig{Seed: cfg.ChaosSeed, CutAfterBytes: cut})
		inner := dial
		dial = func(i int, addr string) (net.Conn, error) {
			return p.Chaos.Dial(func(a string) (net.Conn, error) { return inner(i, a) })(addr)
		}
	}
	p.Fleet = NewFleet(cfg.Hosts, leafAddrs, dial)
	r.Defer(func() {
		p.Fleet.CloseAll()
		tree.Close()
		sink.Close()
	})
	return p, nil
}

// RootSnapshot polls the tree from the front-end and returns the
// root's merged subtree rollup, recording the poll's latency on r. A
// failed poll is logged and returns the zero Snapshot, which no
// checkpoint accepts.
func (p *Plane) RootSnapshot(r *Run) telemetry.Snapshot {
	start := time.Now()
	snap, err := p.Sink.Poll(time.Minute)
	if err != nil {
		r.Logf("  %v", err)
	}
	r.Observe("poll", time.Since(start))
	return snap
}

func hostName(i int) string { return fmt.Sprintf("h%04d", i) }

// shardServer is a CASS shard that can be killed (abrupt) or drained
// (graceful) and rebound on the same address with its attribute space
// — and therefore its contexts and seqs — intact: a daemon crash or
// rolling restart under a supervisor.
type shardServer struct {
	space *attr.Space
	addr  string
	idx   int
	total int

	mu  sync.Mutex
	srv *attrspace.Server
}

func newShardServer(idx, total int) (*shardServer, error) {
	s := &shardServer{space: attr.NewSpace(), idx: idx, total: total}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = l.Addr().String()
	s.srv = attrspace.NewServerWithSpace(s.space)
	if err := s.srv.SetShard(idx, total); err != nil {
		l.Close()
		return nil, err
	}
	go s.srv.Serve(l)
	return s, nil
}

// Kill closes the server abruptly.
func (s *shardServer) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv.Close()
}

// Drain shuts down gracefully (CLOSE verb, in-flight replies finish).
func (s *shardServer) Drain(timeout time.Duration) {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	srv.Shutdown(ctx)
}

// Restart rebinds a fresh server on the same address and space.
func (s *shardServer) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var l net.Listener
	var err error
	for i := 0; i < 400; i++ {
		l, err = net.Listen("tcp", s.addr)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("rebind %s: %w", s.addr, err)
	}
	s.srv = attrspace.NewServerWithSpace(s.space)
	if err := s.srv.SetShard(s.idx, s.total); err != nil {
		l.Close()
		return err
	}
	go s.srv.Serve(l)
	return nil
}

// ShardedCASS is a partitioned central attribute space: n restartable
// shard daemons behind a routing LASS (hash routing, pooled group
// commit, scatter-gather, ErrShardDown degraded mode — DESIGN §13).
type ShardedCASS struct {
	Shards   []*shardServer
	Addrs    []string
	LASS     *attrspace.Server
	LASSAddr string
	// Contexts holds one context name per shard: Contexts[i] hashes
	// to shard i, so phases can aim load at a specific shard.
	Contexts []string
}

// BuildShardedCASS stands up n shards and the routing LASS, with a
// fast health heartbeat so kill-detection latency doesn't dominate
// scenario time. Teardown is registered on the run.
func BuildShardedCASS(r *Run, n int, heartbeat time.Duration) (*ShardedCASS, error) {
	sc := &ShardedCASS{}
	for i := 0; i < n; i++ {
		sh, err := newShardServer(i, n)
		if err != nil {
			return nil, err
		}
		sc.Shards = append(sc.Shards, sh)
		sc.Addrs = append(sc.Addrs, sh.addr)
	}
	spec := ""
	for i, a := range sc.Addrs {
		if i > 0 {
			spec += ","
		}
		spec += a
	}
	sc.LASS = attrspace.NewServer()
	sc.LASS.EnableGlobalCache(spec, attrspace.CacheConfig{
		SweepInterval:  50 * time.Millisecond,
		ShardHeartbeat: heartbeat,
	})
	addr, err := sc.LASS.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sc.LASSAddr = addr
	sc.Contexts = shardContexts(n)
	if sc.Contexts == nil {
		return nil, fmt.Errorf("could not find a context per shard")
	}
	r.Defer(func() {
		sc.LASS.Close()
		for _, sh := range sc.Shards {
			sh.Kill()
		}
	})
	return sc, nil
}

// shardContexts picks one job-style context name per shard of n.
func shardContexts(n int) []string {
	out := make([]string, n)
	found := 0
	for i := 0; found < n && i < 100000; i++ {
		name := fmt.Sprintf("job-%d", i)
		if idx := attrspace.ShardIndex(name, n); out[idx] == "" {
			out[idx] = name
			found++
		}
	}
	if found != n {
		return nil
	}
	return out
}
