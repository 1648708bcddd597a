package paradyn

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// FrontEnd is the paradyn process: the user interface that "allows the
// user to display performance data visualizations, use the Performance
// Consultant to automatically find bottlenecks, start or stop the
// application, and monitor the status of the application" (§4.2).
//
// Daemons connect over the network (possibly through the RM's proxy)
// and speak a framed protocol:
//
//	daemon → FE:  REGISTER daemon= host= pid= executable= rank=
//	              SAMPLE   fn= calls= time_us=     (repeated)
//	              STATSV   daemon= json=           (reply to STATS)
//	              DONE     status= json=
//	FE → daemon:  RUN                               (the user's run command)
//	              STATS    scope=tree               (a telemetry poll, poll.go)
//
// PoolSnapshot polls every registrant that has not finished and merges
// the last snapshot of each, so a re-registration after a reconnect
// (resume=1) replaces its entry and nothing is counted twice.
type FrontEnd struct {
	cfg FrontEndConfig

	mu      sync.Mutex
	ln      net.Listener
	daemons map[string]*daemonState
	closed  bool
	regCh   chan string // registration notifications
}

// FrontEndConfig parameterizes NewFrontEnd.
type FrontEndConfig struct {
	// Listener accepts daemon connections. Required (create with
	// net.Listen or a netsim host's Listen).
	Listener net.Listener
	// AutoRun, when true, sends RUN to each daemon immediately after
	// registration — the scripted equivalent of the user pressing RUN
	// in the UI. When false, call Run or RunAll explicitly.
	AutoRun bool
	// Tracer records protocol steps (optional).
	Tracer *telemetry.Tracer
}

type daemonState struct {
	name       string
	host       string
	pid        int
	executable string
	rank       int
	conn       *wire.Conn
	stats      map[string]FuncStats
	history    map[string][]TimedSample // per-function sample series
	peer       *Peer                    // telemetry poll state
	done       bool
	exitStatus string
	ran        bool
}

// TimedSample is one point of a metric time series — the raw material
// of Paradyn's histogram visualizations.
type TimedSample struct {
	At    time.Time
	Stats FuncStats
}

// historyCap bounds the per-function series so long runs stay bounded;
// old points are dropped from the front (Paradyn folds its histograms
// similarly).
const historyCap = 1024

// NewFrontEnd starts the front-end on the given listener.
func NewFrontEnd(cfg FrontEndConfig) (*FrontEnd, error) {
	if cfg.Listener == nil {
		return nil, errors.New("paradyn: FrontEndConfig.Listener is required")
	}
	fe := &FrontEnd{
		cfg:     cfg,
		daemons: make(map[string]*daemonState),
		ln:      cfg.Listener,
		regCh:   make(chan string, 64),
	}
	go fe.serve()
	return fe, nil
}

// Addr returns the address daemons should dial (directly or via proxy).
func (fe *FrontEnd) Addr() string { return fe.ln.Addr().String() }

func (fe *FrontEnd) serve() {
	for {
		c, err := fe.ln.Accept()
		if err != nil {
			return
		}
		go fe.handle(c)
	}
}

func (fe *FrontEnd) handle(c net.Conn) {
	wc := wire.NewConn(c)
	reg, err := wc.Recv()
	if err != nil || reg.Verb != "REGISTER" {
		c.Close()
		return
	}
	name := reg.Get("daemon")
	ds := &daemonState{
		name:       name,
		host:       reg.Get("host"),
		pid:        reg.Int("pid", 0),
		executable: reg.Get("executable"),
		rank:       reg.Int("rank", 0),
		conn:       wc,
		stats:      make(map[string]FuncStats),
		history:    make(map[string][]TimedSample),
	}
	fe.mu.Lock()
	if fe.closed {
		fe.mu.Unlock()
		c.Close()
		return
	}
	var oldPeer *Peer
	if old := fe.daemons[name]; old != nil {
		// Re-registration (a daemon or mrnet node reconnecting with
		// resume=1, or a replacement after a crash): the new connection
		// inherits the accumulated state so cumulative metrics never
		// dip, and the old connection is dropped so its handler exits.
		ds.stats = old.stats
		ds.history = old.history
		oldPeer = old.peer
		ds.done = old.done
		ds.exitStatus = old.exitStatus
		// ran stays false: a reconnected peer that waits for RUN gets
		// one; peers that resumed past that point ignore the extra.
		if old.conn != wc {
			old.conn.Close()
		}
	}
	ds.peer = NewPeer(reg, oldPeer)
	fe.daemons[name] = ds
	autoRun := fe.cfg.AutoRun
	fe.mu.Unlock()
	if fe.cfg.Tracer != nil {
		fe.cfg.Tracer.Step("paradyn-fe", "register", name+" pid="+reg.Get("pid"))
	}
	telemetry.Default().Counter("paradyn.daemons.registered").Inc()
	select {
	case fe.regCh <- name:
	default:
	}
	if autoRun {
		fe.runDaemon(ds)
	}
	for {
		m, err := wc.Recv()
		if err != nil {
			ds.peer.Drop()
			c.Close()
			return
		}
		switch m.Verb {
		case "SAMPLE":
			telemetry.Default().Counter("paradyn.samples.received").Inc()
			fn := m.Get("fn")
			calls, _ := strconv.ParseInt(m.Get("calls"), 10, 64)
			us, _ := strconv.ParseInt(m.Get("time_us"), 10, 64)
			s := FuncStats{Calls: calls, TimeMicros: us}
			fe.mu.Lock()
			ds.stats[fn] = s
			series := append(ds.history[fn], TimedSample{At: time.Now(), Stats: s})
			if len(series) > historyCap {
				series = series[len(series)-historyCap:]
			}
			ds.history[fn] = series
			fe.mu.Unlock()
		case "STATSV":
			ds.peer.Answer(m)
		case "DONE":
			ds.peer.Answer(m)
			fe.mu.Lock()
			ds.done = true
			ds.exitStatus = m.Get("status")
			fe.mu.Unlock()
			if fe.cfg.Tracer != nil {
				fe.cfg.Tracer.Step("paradyn-fe", "daemon_done", name+" "+m.Get("status"))
			}
		}
	}
}

func (fe *FrontEnd) runDaemon(ds *daemonState) {
	fe.mu.Lock()
	already := ds.ran
	ds.ran = true
	fe.mu.Unlock()
	if already {
		return
	}
	fe.cfg.Tracer.Step("paradyn-fe", "run", ds.name)
	ds.conn.Send(wire.NewMessage("RUN"))
}

// Run sends the user's run command to one daemon.
func (fe *FrontEnd) Run(daemon string) error {
	fe.mu.Lock()
	ds := fe.daemons[daemon]
	fe.mu.Unlock()
	if ds == nil {
		return fmt.Errorf("paradyn: no daemon %q", daemon)
	}
	fe.runDaemon(ds)
	return nil
}

// RunAll sends the run command to every registered daemon.
func (fe *FrontEnd) RunAll() {
	fe.mu.Lock()
	list := make([]*daemonState, 0, len(fe.daemons))
	for _, ds := range fe.daemons {
		list = append(list, ds)
	}
	fe.mu.Unlock()
	for _, ds := range list {
		fe.runDaemon(ds)
	}
}

// Daemons returns the registered daemon names, sorted.
func (fe *FrontEnd) Daemons() []string {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	out := make([]string, 0, len(fe.daemons))
	for n := range fe.daemons {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WaitDaemons blocks until at least n daemons have registered.
func (fe *FrontEnd) WaitDaemons(n int, timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		fe.mu.Lock()
		got := len(fe.daemons)
		fe.mu.Unlock()
		if got >= n {
			return nil
		}
		select {
		case <-fe.regCh:
		case <-deadline:
			return fmt.Errorf("paradyn: %d of %d daemons registered before timeout", got, n)
		}
	}
}

// WaitDone blocks until at least n daemons have reported DONE.
func (fe *FrontEnd) WaitDone(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		fe.mu.Lock()
		got := 0
		for _, ds := range fe.daemons {
			if ds.done {
				got++
			}
		}
		fe.mu.Unlock()
		if got >= n {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("paradyn: daemons not done before timeout")
}

// Stats returns one daemon's latest function statistics.
func (fe *FrontEnd) Stats(daemon string) map[string]FuncStats {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	ds := fe.daemons[daemon]
	if ds == nil {
		return nil
	}
	out := make(map[string]FuncStats, len(ds.stats))
	for k, v := range ds.stats {
		out[k] = v
	}
	return out
}

// Series returns one daemon's sample time series for a function — the
// data behind Paradyn's histogram displays. Nil when unknown.
func (fe *FrontEnd) Series(daemon, fn string) []TimedSample {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	ds := fe.daemons[daemon]
	if ds == nil {
		return nil
	}
	out := make([]TimedSample, len(ds.history[fn]))
	copy(out, ds.history[fn])
	return out
}

// AllStats merges statistics across all daemons (e.g. MPI ranks).
func (fe *FrontEnd) AllStats() map[string]FuncStats {
	fe.mu.Lock()
	parts := make([]map[string]FuncStats, 0, len(fe.daemons))
	for _, ds := range fe.daemons {
		m := make(map[string]FuncStats, len(ds.stats))
		for k, v := range ds.stats {
			m[k] = v
		}
		parts = append(parts, m)
	}
	fe.mu.Unlock()
	return Merge(parts...)
}

// DaemonSnapshot polls one registrant (a daemon, or the root of an
// mrnet subtree) and returns its telemetry snapshot: its last reply, or
// the final snapshot its DONE carried. Zero when the daemon is unknown.
func (fe *FrontEnd) DaemonSnapshot(daemon string) telemetry.Snapshot {
	fe.mu.Lock()
	ds := fe.daemons[daemon]
	fe.mu.Unlock()
	if ds == nil {
		return telemetry.Snapshot{}
	}
	return telemetry.MergeSnapshots(fe.poll(ds)...)
}

// PoolSnapshot polls every registrant and merges their snapshots into
// one pool-wide view: counters sum, gauges take the maximum, histograms
// merge bucket-wise. With daemons connected through a reduction tree
// there is a single registrant (the tree root) and this is its
// rolled-up subtree.
func (fe *FrontEnd) PoolSnapshot() telemetry.Snapshot {
	fe.mu.Lock()
	list := make([]*daemonState, 0, len(fe.daemons))
	for _, ds := range fe.daemons {
		list = append(list, ds)
	}
	fe.mu.Unlock()
	return telemetry.MergeSnapshots(fe.poll(list...)...)
}

// poll sends STATS to each registrant in list that has not finished,
// waits for the replies within the bound their depth earns (PollWait),
// and returns every registrant's last snapshot.
func (fe *FrontEnd) poll(list ...*daemonState) []telemetry.Snapshot {
	var waits []<-chan struct{}
	var depth int64
	fe.mu.Lock()
	for _, ds := range list {
		if !ds.done {
			waits = append(waits, ds.peer.Ask(ds.conn, "", ""))
			depth = max(depth, ds.peer.Depth())
		}
	}
	fe.mu.Unlock()
	Await(waits, PollWait*time.Duration(depth+1))
	out := make([]telemetry.Snapshot, len(list))
	for i, ds := range list {
		out[i] = ds.peer.Last()
	}
	return out
}

// ExitStatus returns the status a daemon reported with DONE.
func (fe *FrontEnd) ExitStatus(daemon string) (string, bool) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	ds := fe.daemons[daemon]
	if ds == nil || !ds.done {
		return "", false
	}
	return ds.exitStatus, true
}

// Bottleneck runs the simplified Performance Consultant over the
// merged statistics.
func (fe *FrontEnd) Bottleneck() (fn string, share float64, ok bool) {
	return Bottleneck(fe.AllStats(), "main")
}

// Report renders the merged statistics table.
func (fe *FrontEnd) Report() string { return FormatTable(fe.AllStats()) }

// Close shuts the front-end down.
func (fe *FrontEnd) Close() {
	fe.mu.Lock()
	if fe.closed {
		fe.mu.Unlock()
		return
	}
	fe.closed = true
	daemons := make([]*daemonState, 0, len(fe.daemons))
	for _, ds := range fe.daemons {
		daemons = append(daemons, ds)
	}
	fe.mu.Unlock()
	fe.ln.Close()
	for _, ds := range daemons {
		ds.conn.Close()
	}
}
