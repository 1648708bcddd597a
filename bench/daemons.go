package main

import (
	"fmt"
	"os"
	"strings"

	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
)

// daemon is one attribute space server running in this process as
// goroutines, set up the way cmd/lassd and cmd/cassd set theirs up: an
// error-level logger on stderr, its own telemetry registry and tracer,
// the default event buffer and capability set, a loopback TCP listener
// and the same-host unix socket beside it.
type daemon struct {
	srv  *attrspace.Server
	addr string
	reg  *telemetry.Registry
}

// startDaemon starts a server named name. configure, when not nil,
// runs where the commands apply -shard / -cass: after telemetry is
// installed and before the first listener opens.
func startDaemon(name string, configure func(*attrspace.Server) error) (*daemon, error) {
	srv := attrspace.NewServer()
	d := &daemon{srv: srv, reg: telemetry.NewRegistry()}
	configureDaemon(srv, name, d.reg)
	if configure != nil {
		if err := configure(srv); err != nil {
			srv.Close()
			return nil, err
		}
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	d.addr = addr
	if _, err := srv.ListenUnixBeside(addr); err != nil {
		srv.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// configureDaemon applies the commands' fixed configuration to a server
// that already exists (condor's machines create their own LASS).
func configureDaemon(srv *attrspace.Server, name string, reg *telemetry.Registry) {
	srv.SetLogger(telemetry.NewLogger(os.Stderr, telemetry.ParseLevel("error"), name))
	srv.SetTelemetry(reg, telemetry.NewTracer(name))
	srv.SetEventBuffer(attrspace.DefaultEventBuffer)
}

// globalPool is the topology of both global workloads: a caching,
// routing LASS in front of two CASS shards. The LASS reaches the
// shards with TCPDial, the cross-host path; clients reach the LASS
// with AutoDial, the same-host path.
type globalPool struct {
	shards []*daemon
	lass   *daemon
	cache  *attrspace.GlobalCache
}

const shardCount = 2

func startGlobalPool() (*globalPool, error) {
	p := &globalPool{}
	addrs := make([]string, shardCount)
	for i := range addrs {
		i := i
		d, err := startDaemon(fmt.Sprintf("cassd-%d", i), func(s *attrspace.Server) error {
			return s.SetShard(i, shardCount)
		})
		if err != nil {
			p.close()
			return nil, err
		}
		p.shards = append(p.shards, d)
		addrs[i] = d.addr
	}
	lass, err := startDaemon("lassd", func(s *attrspace.Server) error {
		p.cache = s.EnableGlobalCache(strings.Join(addrs, ","), attrspace.CacheConfig{})
		return nil
	})
	if err != nil {
		p.close()
		return nil, err
	}
	p.lass = lass
	return p, nil
}

// contextOn returns a context name with the given prefix that the
// shard map assigns to shard idx.
func contextOn(prefix string, idx int) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if attrspace.ShardIndex(name, shardCount) == idx {
			return name
		}
	}
}

func (p *globalPool) registries() []*telemetry.Registry {
	regs := []*telemetry.Registry{p.lass.reg}
	for _, d := range p.shards {
		regs = append(regs, d.reg)
	}
	return regs
}

func (p *globalPool) close() {
	if p.lass != nil {
		p.lass.srv.Close()
	}
	for _, d := range p.shards {
		d.srv.Close()
	}
}
