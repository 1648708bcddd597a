package mrnet

import (
	"fmt"
	"net"
	"time"

	"tdp/internal/proxy"
)

// This file builds reduction trees out of Nodes. BuildTree is the
// original two-shape helper (a row of leaves under an optional root);
// BuildReductionTree generalizes it to any fan-out and depth and can
// route every parent-ward hop through a CONNECT proxy, matching how a
// real pool would run internal nodes behind the head node's proxy
// (§2.4).

// TreeConfig parameterizes BuildReductionTree.
type TreeConfig struct {
	// ParentAddr is where the root reports: the tool front-end.
	ParentAddr string
	// Daemons is how many daemons will attach to the tree; leaves
	// split them round-robin (daemon i dials LeafAddrs()[i%len]).
	Daemons int
	// FanOut caps children per internal node. Zero means 8.
	FanOut int
	// Levels is the number of node levels between the daemons and the
	// front-end (1 = a single node, 2 = leaves + root, ...). Zero
	// means the minimum depth that respects FanOut.
	Levels int
	// Dial opens raw connections; nil uses TCP.
	Dial DialFunc
	// Listen opens one listener per node; nil binds TCP loopback.
	// Scenario harnesses use this to put nodes on simulated hosts
	// (netsim), where the matching Dial can reach them.
	Listen func() (net.Listener, error)
	// ProxyAddr, when set, routes every parent-ward connection through
	// the CONNECT proxy at that address.
	ProxyAddr string
	// FlushInterval is the per-node profile flush interval (see Config).
	FlushInterval time.Duration
}

// Tree is a constructed reduction network.
type Tree struct {
	nodes  []*Node // all nodes, root first
	leaves []*Node
	root   *Node
}

// Root returns the top node (the one registered with the front-end).
func (t *Tree) Root() *Node { return t.root }

// Nodes returns every node, root first.
func (t *Tree) Nodes() []*Node { return t.nodes }

// LeafAddrs returns the addresses daemons should dial, one per leaf;
// daemon i belongs on LeafAddrs()[i%len].
func (t *Tree) LeafAddrs() []string {
	addrs := make([]string, len(t.leaves))
	for i, n := range t.leaves {
		addrs[i] = n.Addr()
	}
	return addrs
}

// Close tears down every node.
func (t *Tree) Close() {
	for _, n := range t.nodes {
		n.Close()
	}
}

// shareOf returns how many of total items land on bucket i when
// distributed round-robin over buckets.
func shareOf(total, buckets, i int) int {
	n := total / buckets
	if i < total%buckets {
		n++
	}
	return n
}

// BuildReductionTree constructs a balanced tree: Levels rows of
// nodes, at most FanOut children each, the single root reporting to
// ParentAddr. Row sizes are fixed bottom-up — ceil(Daemons/FanOut)
// leaves, each row above ceil of the one below over FanOut — and the
// top row is forced to one node. Daemons and nodes alike are assigned
// to parents round-robin, so expected-children counts are exact and
// every node announces itself upstream only once its subtree has
// registered.
func BuildReductionTree(cfg TreeConfig) (*Tree, error) {
	if cfg.ParentAddr == "" {
		return nil, fmt.Errorf("mrnet: TreeConfig.ParentAddr is required")
	}
	if cfg.Daemons < 1 {
		return nil, fmt.Errorf("mrnet: TreeConfig.Daemons must be positive")
	}
	if cfg.FanOut <= 0 {
		cfg.FanOut = 8
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Listen == nil {
		cfg.Listen = func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	}
	dial := cfg.Dial
	if cfg.ProxyAddr != "" {
		inner := cfg.Dial
		dial = func(addr string) (net.Conn, error) {
			return proxy.DialVia(proxy.DialFunc(inner), cfg.ProxyAddr, addr)
		}
	}

	// Row sizes, bottom-up; sizes[0] is the leaf row.
	ceil := func(a, b int) int { return (a + b - 1) / b }
	sizes := []int{ceil(cfg.Daemons, cfg.FanOut)}
	for sizes[len(sizes)-1] > 1 {
		sizes = append(sizes, ceil(sizes[len(sizes)-1], cfg.FanOut))
	}
	if cfg.Levels > 0 {
		for len(sizes) < cfg.Levels {
			sizes = append(sizes, 1)
		}
		if len(sizes) > cfg.Levels {
			return nil, fmt.Errorf("mrnet: %d daemons at fan-out %d need %d levels, got Levels=%d",
				cfg.Daemons, cfg.FanOut, len(sizes), cfg.Levels)
		}
	}
	levels := len(sizes)
	sizes[levels-1] = 1

	t := &Tree{}
	fail := func(err error) (*Tree, error) {
		t.Close()
		return nil, err
	}
	// Build top-down so each row knows its parents' addresses. Nodes
	// with ExpectedChildren > 0 dial upstream only once their subtree
	// registers, so the front-end sees exactly one registration.
	rows := make([][]*Node, levels)
	for lvl := levels - 1; lvl >= 0; lvl-- {
		rows[lvl] = make([]*Node, sizes[lvl])
		for i := range rows[lvl] {
			parentAddr := cfg.ParentAddr
			if lvl < levels-1 {
				parentAddr = rows[lvl+1][i%sizes[lvl+1]].Addr()
			}
			expect := shareOf(cfg.Daemons, sizes[0], i)
			if lvl > 0 {
				expect = shareOf(sizes[lvl-1], sizes[lvl], i)
			}
			l, err := cfg.Listen()
			if err != nil {
				return fail(err)
			}
			name := fmt.Sprintf("mrnet-L%dn%d", lvl, i)
			if lvl == levels-1 {
				name = "mrnet-root"
			}
			node, err := NewNode(Config{
				Name:             name,
				Listener:         l,
				ParentAddr:       parentAddr,
				Dial:             dial,
				FlushInterval:    cfg.FlushInterval,
				ExpectedChildren: expect,
			})
			if err != nil {
				return fail(err)
			}
			rows[lvl][i] = node
			t.nodes = append(t.nodes, node)
		}
	}
	t.root = rows[levels-1][0]
	t.leaves = rows[0]
	return t, nil
}

// BuildTree constructs a balanced reduction tree over TCP loopback:
// `leaves` leaf nodes each expecting `fanIn` daemons, all feeding one
// root that reports to parentAddr. It returns the leaf addresses
// (round-robin daemons across them) and a shutdown function. With
// leaves == 1 the single node doubles as the root.
func BuildTree(parentAddr string, leaves, fanIn int, dial DialFunc) (leafAddrs []string, shutdown func(), err error) {
	if leaves < 1 {
		leaves = 1
	}
	var nodes []*Node
	closeAll := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	rootParent := parentAddr
	if leaves > 1 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		root, err := NewNode(Config{
			Name: "mrnet-root", Listener: l, ParentAddr: parentAddr,
			Dial: dial, ExpectedChildren: leaves,
		})
		if err != nil {
			return nil, nil, err
		}
		nodes = append(nodes, root)
		rootParent = root.Addr()
	}
	for i := 0; i < leaves; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		name := fmt.Sprintf("mrnet-leaf%d", i)
		parent := rootParent
		if leaves == 1 {
			name = "mrnet-root"
			parent = parentAddr
		}
		leaf, err := NewNode(Config{
			Name: name, Listener: l, ParentAddr: parent,
			Dial: dial, ExpectedChildren: fanIn,
		})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		nodes = append(nodes, leaf)
		leafAddrs = append(leafAddrs, leaf.Addr())
	}
	return leafAddrs, closeAll, nil
}
