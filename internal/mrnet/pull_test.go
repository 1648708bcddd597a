package mrnet

import (
	"fmt"
	"net"
	"testing"
	"time"

	"tdp/internal/paradyn"
)

// pollNode starts a node that waits for `expect` children and reports
// to a test sink.
func pollNode(t *testing.T, expect int) *Node {
	t.Helper()
	sink := newTestSink(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	node, err := NewNode(Config{
		Name: "agg", Listener: l, ParentAddr: sink.addr(),
		ExpectedChildren: expect, FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(node.Close)
	return node
}

// TestPollRetiresADeadChild: a child that dies before DONE is a host
// down. Its counters and histograms stay in every later rollup, so the
// pool's cumulative totals never dip; its gauges (levels of a host that
// is gone) drop out, and it no longer counts as a live daemon.
func TestPollRetiresADeadChild(t *testing.T) {
	node := pollNode(t, 2)
	d0 := startDaemon(t, node.Addr(), "d0", nil, false)
	d1 := startDaemon(t, node.Addr(), "d1", nil, false)
	d0.awaitRun(t)
	d1.awaitRun(t)
	d0.reg.Counter("ops").Add(5)
	d0.reg.Gauge("queue").Set(30)
	d0.reg.Histogram("lat", []float64{1, 10}).Observe(0.5)
	d1.reg.Counter("ops").Add(7)
	d1.reg.Gauge("queue").Set(3)
	d1.reg.Histogram("lat", []float64{1, 10}).Observe(5)

	snap := node.TreeSnapshot()
	if snap.Counters["ops"] != 12 || snap.Gauges["queue"] != 30 || snap.Histograms["lat"].Count != 2 {
		t.Fatalf("live rollup = %+v", snap)
	}

	d0.wc.Close()
	waitFor(t, 5*time.Second, func() bool {
		return node.Registry().Counter("mrnet.hosts.down").Value() == 1
	}, "mrnet.hosts.down == 1")
	snap = node.TreeSnapshot()
	if snap.Counters["ops"] != 12 {
		t.Errorf("ops after the death = %d, want 12 (the dead host's 5 kept)", snap.Counters["ops"])
	}
	if h := snap.Histograms["lat"]; h.Count != 2 || h.Counts[0] != 1 {
		t.Errorf("lat after the death = %+v, want the dead host's observation kept", h)
	}
	if snap.Gauges["queue"] != 3 {
		t.Errorf("queue after the death = %d, want 3 (the dead host's 30 dropped)", snap.Gauges["queue"])
	}
	if snap.Counters["mrnet.hosts.down"] != 1 || snap.Counters["mrnet.tree.daemons"] != 1 {
		t.Errorf("hosts.down = %d, tree.daemons = %d, want 1 and 1",
			snap.Counters["mrnet.hosts.down"], snap.Counters["mrnet.tree.daemons"])
	}
	node.mu.Lock()
	fs := node.reduce()["host_down"]
	node.mu.Unlock()
	if fs.Calls != 1 {
		t.Errorf("synthetic host_down = %+v, want 1 call", fs)
	}
}

// TestPollResumeReplaces: a resume=1 re-registration replaces the
// child's entry by name. The rollup starts from the old entry (no dip)
// and the resumed daemon's cumulative counters overwrite it — nothing
// is counted twice, whether the old connection had died or was still
// up.
func TestPollResumeReplaces(t *testing.T) {
	node := pollNode(t, 2)
	d0 := startDaemon(t, node.Addr(), "d0", nil, false)
	d1 := startDaemon(t, node.Addr(), "d1", nil, false)
	d0.awaitRun(t)
	d1.awaitRun(t)
	d0.reg.Counter("ops").Add(5)
	d1.reg.Counter("ops").Add(7)
	if got := node.TreeSnapshot().Counters["ops"]; got != 12 {
		t.Fatalf("ops = %d, want 12", got)
	}

	// The host dies and comes back with the same cumulative registry,
	// which has counted on meanwhile.
	d0.wc.Close()
	waitFor(t, 5*time.Second, func() bool {
		return node.Registry().Counter("mrnet.hosts.down").Value() == 1
	}, "the death")
	d0.reg.Counter("ops").Add(3)
	startDaemon(t, node.Addr(), "d0", d0.reg, true)
	waitFor(t, 5*time.Second, func() bool {
		node.mu.Lock()
		defer node.mu.Unlock()
		return !node.children["d0"].gone
	}, "the resumed registration")
	snap := node.TreeSnapshot()
	if snap.Counters["ops"] != 15 {
		t.Errorf("ops after resume = %d, want 15 (8+7, the retired 5 replaced)", snap.Counters["ops"])
	}
	if snap.Counters["mrnet.tree.daemons"] != 2 {
		t.Errorf("tree.daemons after resume = %d, want 2", snap.Counters["mrnet.tree.daemons"])
	}

	// A resume over a live registration replaces it the same way.
	startDaemon(t, node.Addr(), "d1", d1.reg, true)
	waitFor(t, 5*time.Second, func() bool {
		_, err := d1.wc.Recv() // the node closes the replaced connection
		return err != nil
	}, "the replaced connection to close")
	if got := node.TreeSnapshot().Counters["ops"]; got != 15 {
		t.Errorf("ops after a live resume = %d, want 15", got)
	}
}

// TestPollBoundsAHungChild: a daemon that stops answering costs a poll
// the bound (paradyn.PollWait per level), is merged from its last
// reply, and is counted in mrnet.poll.stale. One level up, the
// waiting leaf still answers inside its parent's longer bound, so the
// hung leaf does not cost the root the live subtree beside it.
func TestPollBoundsAHungChild(t *testing.T) {
	sink := newTestSink(t)
	tree, err := BuildReductionTree(TreeConfig{
		ParentAddr: sink.addr(), Daemons: 4, FanOut: 2, Levels: 2, FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("BuildReductionTree: %v", err)
	}
	defer tree.Close()
	leaves := tree.LeafAddrs()
	ds := make([]*testDaemon, 4)
	for i := range ds {
		ds[i] = startDaemon(t, leaves[i%2], fmt.Sprintf("d%d", i), nil, false)
	}
	for i, d := range ds {
		d.awaitRun(t)
		d.reg.Counter("ops").Add(int64(i + 1))
	}
	root := tree.Root()
	if got := root.TreeSnapshot().Counters["ops"]; got != 10 {
		t.Fatalf("ops = %d, want 10", got)
	}

	// d0 hangs; everyone counts on.
	release := ds[0].hang()
	for _, d := range ds {
		d.reg.Counter("ops").Add(10)
	}
	start := time.Now()
	snap := root.TreeSnapshot()
	took := time.Since(start)
	if took < paradyn.PollWait || took >= 2*paradyn.PollWait {
		t.Errorf("poll over a hung daemon took %v, want its leaf's bound %v (under the root's %v)",
			took, paradyn.PollWait, 2*paradyn.PollWait)
	}
	// d0 answered from its last reply (1); d1..d3 live (12+13+14).
	if got := snap.Counters["ops"]; got != 40 {
		t.Errorf("ops = %d, want 40: the hung daemon's last reply and its live siblings'", got)
	}
	if got := snap.Counters["mrnet.poll.stale"]; got != 1 {
		t.Errorf("mrnet.poll.stale = %d, want 1 (the hung daemon, not its leaf)", got)
	}

	// The daemon wakes up and answers the STATS it was holding; the next
	// poll is whole again.
	release()
	snap = root.TreeSnapshot()
	if got := snap.Counters["ops"]; got != 50 {
		t.Errorf("ops after the daemon woke = %d, want 50", got)
	}
	if got := snap.Counters["mrnet.poll.stale"]; got != 1 {
		t.Errorf("mrnet.poll.stale after the daemon woke = %d, want still 1", got)
	}
}

// TestPollTopologyThreeLevels: on a 3-level tree the root's rollup
// counts the live daemons under every leaf and reports the tree's depth,
// and merges the daemons' metrics kind by kind: counters sum, gauges take
// the maximum, histograms merge bucket-wise.
func TestPollTopologyThreeLevels(t *testing.T) {
	sink := newTestSink(t)
	tree, err := BuildReductionTree(TreeConfig{
		ParentAddr: sink.addr(), Daemons: 8, FanOut: 2, Levels: 3, FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("BuildReductionTree: %v", err)
	}
	defer tree.Close()
	if got := len(tree.Nodes()); got != 7 { // 4 leaves + 2 + root
		t.Fatalf("nodes = %d, want 7", got)
	}
	leaves := tree.LeafAddrs()
	ds := make([]*testDaemon, 8)
	for i := range ds {
		ds[i] = startDaemon(t, leaves[i%len(leaves)], fmt.Sprintf("d%d", i), nil, false)
	}
	for i, d := range ds {
		d.awaitRun(t)
		d.reg.Counter("ops").Add(int64(i))
		d.reg.Gauge("queue").Set(int64(10 - i))
		d.reg.Histogram("lat", []float64{1, 10}).Observe(float64(i))
	}
	snap := sink.poll(t)
	if got := snap.Counters["mrnet.tree.daemons"]; got != 8 {
		t.Errorf("mrnet.tree.daemons = %d, want 8", got)
	}
	if got := snap.Gauges["mrnet.tree.depth"]; got != 3 {
		t.Errorf("mrnet.tree.depth = %d, want 3", got)
	}
	if got := snap.Counters["ops"]; got != 28 { // 0+1+...+7
		t.Errorf("ops = %d, want 28", got)
	}
	if got := snap.Gauges["queue"]; got != 10 {
		t.Errorf("queue = %d, want 10 (the maximum)", got)
	}
	if h := snap.Histograms["lat"]; h.Count != 8 || h.Counts[0] != 2 || h.Counts[1] != 6 {
		t.Errorf("lat = %+v, want 8 observations, 2 up to 1 and 6 up to 10", h)
	}
	// Each level knows its own depth: nodes are listed root first, then
	// the middle row, then the leaves.
	for i, n := range tree.Nodes() {
		n.mu.Lock()
		depth := n.depthLocked()
		n.mu.Unlock()
		want := int64(1) // a leaf
		switch {
		case i == 0:
			want = 3
		case i < 3:
			want = 2
		}
		if depth != want {
			t.Errorf("%s: depth = %d, want %d", n.cfg.Name, depth, want)
		}
	}
}
