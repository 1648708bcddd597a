package scenario

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/condor"
	"tdp/internal/mpisim"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
)

// This file holds the pre-built scenarios. Each comes in two sizes:
// Smoke() returns variants scaled to run in seconds under plain
// `go test ./...`; Full() returns the pool-scale tier behind
// `make scenario` (10k+ hosts, longer soak windows), which also writes
// the SCENARIO_*.json reports when TDP_SCENARIO_DIR is set.

// Smoke returns the scaled-down tier: every scenario shape, small
// enough for the tier-1 suite.
func Smoke() []*Scenario {
	return []*Scenario{
		SteadyState("steady-state-smoke", 64, 8, 2, 3),
		ShardLossUnderLoad("shard-loss-smoke", 200*time.Millisecond, 600*time.Millisecond),
		ToolChurn("tool-churn-smoke", 96, 16, 2, 2, 8),
		RollingRestart("rolling-restart-smoke", 3, 6),
		MixedWorkloadSoak("mixed-workload-smoke", 3, 3, 40),
	}
}

// Full returns the pool-scale tier for `make scenario`: ≥10k hosts in
// the steady-state run, shard loss under sustained load, deeper churn
// and soak windows.
func Full() []*Scenario {
	return []*Scenario{
		SteadyState("steady-state-10k", 10240, 32, 3, 3),
		ShardLossUnderLoad("shard-loss-under-load", 500*time.Millisecond, 1500*time.Millisecond),
		ToolChurn("tool-churn", 512, 32, 2, 4, 48),
		RollingRestart("rolling-restart", 3, 12),
		MixedWorkloadSoak("mixed-workload-soak", 4, 10, 60),
	}
}

// planeKey et al name cross-phase state slots.
const (
	planeKey   = "plane"
	cassKey    = "cass"
	clientsKey = "clients"
	victimKey  = "victim"
	poolKey    = "pool"
	feKey      = "fe"
)

func plane(r *Run) *Plane                { return r.Get(planeKey).(*Plane) }
func cass(r *Run) *ShardedCASS           { return r.Get(cassKey).(*ShardedCASS) }
func clients(r *Run) []*attrspace.Client { return r.Get(clientsKey).([]*attrspace.Client) }

// SteadyState is the headline scale scenario: `hosts` simulated
// daemons over a `levels`-deep reduction tree publish cumulative
// counter streams and one histogram each; the front-end's message
// count must stay below one per daemon, the rollup must converge to
// exact totals, and the drain must produce a single aggregate DONE.
func SteadyState(name string, hosts, fanOut, levels, rounds int) *Scenario {
	const step = 25
	return &Scenario{
		Name:        name,
		Description: fmt.Sprintf("%d simulated hosts over a %d-level mrnet tree: ramp, steady telemetry load, drain", hosts, levels),
		Hosts:       hosts,
		Phases: []Phase{
			{
				Name: "build-tree",
				Run: func(r *Run) error {
					p, err := BuildPlane(r, PlaneConfig{Hosts: hosts, FanOut: fanOut, Levels: levels})
					if err != nil {
						return err
					}
					r.Put(planeKey, p)
					r.Count("tree_nodes", int64(len(p.Tree.Nodes())))
					return nil
				},
				Checkpoints: []Checkpoint{
					{Name: "leaf-row-sized", Check: func(r *Run) error {
						want := (hosts + fanOut - 1) / fanOut
						if got := len(plane(r).Tree.LeafAddrs()); got != want {
							return fmt.Errorf("leaves = %d, want %d", got, want)
						}
						return nil
					}},
				},
			},
			{
				Name: "ramp-hosts",
				Run: func(r *Run) error {
					p := plane(r)
					return p.Fleet.ForAll(0, func(i int) error {
						start := time.Now()
						if err := p.Fleet.Register(i); err != nil {
							return err
						}
						r.Observe("register", time.Since(start))
						r.Count("registered", 1)
						return nil
					})
				},
				Checkpoints: []Checkpoint{
					{Name: "single-frontend-connection", Check: func(r *Run) error {
						p := plane(r)
						return r.WaitFor(20*time.Second, func() bool { return p.Sink.Conns() == 1 },
							"the root's single upstream connection")
					}},
					{Name: "tree-sees-all-hosts", Check: func(r *Run) error {
						p := plane(r)
						return r.WaitFor(30*time.Second, func() bool {
							return p.RootSnapshot().Counters["mrnet.tree.daemons"] == int64(hosts)
						}, fmt.Sprintf("mrnet.tree.daemons == %d", hosts))
					}},
				},
			},
			{
				Name: "steady-load",
				Run: func(r *Run) error {
					p := plane(r)
					for k := 1; k <= rounds; k++ {
						v := int64(k * step)
						if err := p.Fleet.ForAll(0, func(i int) error {
							start := time.Now()
							if err := p.Fleet.PublishCounter(i, "app.ops", v); err != nil {
								return err
							}
							r.Observe("publish", time.Since(start))
							r.Count("samples_published", 1)
							return nil
						}); err != nil {
							return fmt.Errorf("round %d: %w", k, err)
						}
					}
					h := telemetry.NewHistogram([]float64{1, 10, 100})
					return p.Fleet.ForAll(0, func(i int) error {
						h2 := telemetry.NewHistogram(h.Bounds())
						h2.Observe(float64(i % 20))
						return p.Fleet.PublishHist(i, "app.lat", h2.Snapshot())
					})
				},
				Checkpoints: []Checkpoint{
					{Name: "exact-rollup-convergence", Check: func(r *Run) error {
						p := plane(r)
						want := int64(hosts * rounds * step)
						var last telemetry.Snapshot
						err := r.WaitFor(60*time.Second, func() bool {
							last = p.RootSnapshot()
							return last.Counters["app.ops"] == want &&
								last.Histograms["app.lat"].Count == int64(hosts)
						}, "root rollup convergence")
						if err != nil {
							return fmt.Errorf("%v (app.ops=%d want %d, app.lat count=%d want %d)",
								err, last.Counters["app.ops"], want, last.Histograms["app.lat"].Count, hosts)
						}
						return nil
					}},
					{Name: "tree-depth", Check: func(r *Run) error {
						if got := plane(r).RootSnapshot().Gauges["mrnet.tree.depth"]; got != int64(levels) {
							return fmt.Errorf("mrnet.tree.depth = %d, want %d", got, levels)
						}
						return nil
					}},
					{Name: "fe-rate-independent-of-pool", Check: func(r *Run) error {
						p := plane(r)
						if got := p.Sink.Msgs(); got >= int64(hosts) {
							return fmt.Errorf("front-end received %d messages for %d daemons; aggregation should keep this below one per daemon", got, hosts)
						}
						r.Count("fe_messages", p.Sink.Msgs())
						return nil
					}},
					{Name: "zero-stream-loss", Check: func(r *Run) error {
						if lost := plane(r).RootSnapshot().Counters["mrnet.stream.lost"]; lost != 0 {
							return fmt.Errorf("mrnet.stream.lost = %d, want 0", lost)
						}
						return nil
					}},
				},
			},
			{
				Name: "drain",
				Run: func(r *Run) error {
					p := plane(r)
					return p.Fleet.ForAll(0, func(i int) error {
						start := time.Now()
						if err := p.Fleet.Done(i, 0); err != nil {
							return err
						}
						r.Observe("done", time.Since(start))
						return nil
					})
				},
				Checkpoints: []Checkpoint{
					{Name: "aggregate-done-at-frontend", Check: func(r *Run) error {
						p := plane(r)
						return r.WaitFor(30*time.Second, func() bool {
							return p.Sink.VerbCount("DONE") >= 1
						}, "the aggregated DONE at the front-end")
					}},
					{Name: "no-hosts-lost", Check: func(r *Run) error {
						if down := plane(r).RootSnapshot().Counters["mrnet.hosts.down"]; down != 0 {
							return fmt.Errorf("mrnet.hosts.down = %d, want 0 (clean drain)", down)
						}
						return nil
					}},
				},
			},
		},
	}
}

// ShardLossUnderLoad kills one CASS shard of a routed pool under
// continuous load: surviving shards must keep serving with zero
// failures, the dead shard's range must fail fast with the typed
// ErrShardDown (never hang), and a restart must return the pool to
// fully writable.
func ShardLossUnderLoad(name string, baseline, afterKill time.Duration) *Scenario {
	const n = 3
	type score struct {
		mu        sync.Mutex
		ok        int64
		fails     int64
		downErrs  int64
		postKill  int64
		slowestMs int64
	}
	scores := make([]*score, n)

	// loadFor runs the per-shard workers for d, optionally killing the
	// victim kill-way through.
	loadFor := func(r *Run, d time.Duration, kill func()) error {
		var killed sync.Once
		var killedAt time.Time
		var mu sync.Mutex
		start := time.Now()
		return ForEach(n, n, func(i int) error {
			c := clients(r)[i]
			sc := scores[i]
			for round := 0; time.Since(start) < d; round++ {
				if kill != nil && time.Since(start) > d/3 {
					killed.Do(func() {
						kill()
						mu.Lock()
						killedAt = time.Now()
						mu.Unlock()
					})
				}
				opCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				opStart := time.Now()
				_, err := c.PutAt(opCtx, attrspace.Global, "k", fmt.Sprintf("v%d", round))
				if err == nil {
					_, _, err = c.TryGetAt(opCtx, attrspace.Global, "k")
				}
				cancel()
				ms := time.Since(opStart).Milliseconds()
				r.Observe(fmt.Sprintf("shard%d.op", i), time.Since(opStart))
				mu.Lock()
				wasKilled := !killedAt.IsZero() && opStart.After(killedAt)
				mu.Unlock()
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
					if errors.Is(err, attrspace.ErrShardDown) {
						sc.downErrs++
					}
				}
				sc.mu.Unlock()
				time.Sleep(2 * time.Millisecond)
			}
			return nil
		})
	}

	return &Scenario{
		Name:        name,
		Description: "3-shard CASS pool: kill one shard under load, survivors keep serving, victim fails fast, restart recovers",
		Hosts:       n,
		Phases: []Phase{
			{
				Name: "spin-up",
				Run: func(r *Run) error {
					for i := range scores {
						scores[i] = &score{}
					}
					sc, err := BuildShardedCASS(r, n, 50*time.Millisecond)
					if err != nil {
						return err
					}
					r.Put(cassKey, sc)
					cs := make([]*attrspace.Client, n)
					for i := 0; i < n; i++ {
						c, err := attrspace.Dial(nil, sc.LASSAddr, sc.Contexts[i])
						if err != nil {
							return fmt.Errorf("dial worker %d: %w", i, err)
						}
						cs[i] = c
					}
					r.Put(clientsKey, cs)
					r.Defer(func() {
						for _, c := range cs {
							c.Close()
						}
					})
					return nil
				},
			},
			{
				Name: "baseline-load",
				Run:  func(r *Run) error { return loadFor(r, baseline, nil) },
				Checkpoints: []Checkpoint{
					{Name: "zero-baseline-failures", Check: func(r *Run) error {
						for i, sc := range scores {
							sc.mu.Lock()
							ok, fails := sc.ok, sc.fails
							sc.mu.Unlock()
							if fails != 0 || ok == 0 {
								return fmt.Errorf("shard %d baseline: ok=%d fails=%d", i, ok, fails)
							}
							r.Count(fmt.Sprintf("shard%d.ok", i), ok)
						}
						return nil
					}},
				},
			},
			{
				Name: "shard-loss",
				Run: func(r *Run) error {
					// The victim is seed-chosen: -scenario-seed replays
					// the same loss schedule.
					victim := r.RNG.Intn(n)
					r.Put(victimKey, victim)
					r.Logf("  killing shard %d under load", victim)
					for i := range scores {
						scores[i] = &score{}
					}
					return loadFor(r, afterKill, func() { cass(r).Shards[victim].Kill() })
				},
				Checkpoints: []Checkpoint{
					{Name: "survivors-zero-failures", Check: func(r *Run) error {
						victim := r.Get(victimKey).(int)
						for i, sc := range scores {
							if i == victim {
								continue
							}
							sc.mu.Lock()
							fails, post := sc.fails, sc.postKill
							sc.mu.Unlock()
							if fails != 0 {
								return fmt.Errorf("surviving shard %d: %d ops failed — one shard's death leaked", i, fails)
							}
							if post == 0 {
								return fmt.Errorf("surviving shard %d: no successes after the kill", i)
							}
						}
						return nil
					}},
					{Name: "victim-fails-typed", Check: func(r *Run) error {
						victim := r.Get(victimKey).(int)
						sc := scores[victim]
						sc.mu.Lock()
						defer sc.mu.Unlock()
						if sc.downErrs == 0 {
							return fmt.Errorf("victim shard %d: no ErrShardDown surfaced after the kill (fails=%d)", victim, sc.fails)
						}
						r.Count("victim.down_errs", sc.downErrs)
						return nil
					}},
					{Name: "degraded-mode-never-hangs", Check: func(r *Run) error {
						for i, sc := range scores {
							sc.mu.Lock()
							slowest := sc.slowestMs
							sc.mu.Unlock()
							if slowest > 3500 {
								return fmt.Errorf("shard %d: an op took %dms — degraded mode must not hang", i, slowest)
							}
						}
						return nil
					}},
				},
			},
			{
				Name: "recover",
				Run: func(r *Run) error {
					victim := r.Get(victimKey).(int)
					if err := cass(r).Shards[victim].Restart(); err != nil {
						return err
					}
					c := clients(r)[victim]
					return r.WaitFor(15*time.Second, func() bool {
						ctx, cancel := context.WithTimeout(context.Background(), time.Second)
						defer cancel()
						_, err := c.PutAt(ctx, attrspace.Global, "recovered", "1")
						return err == nil
					}, "the restarted shard to serve writes again")
				},
				Checkpoints: []Checkpoint{
					{Name: "all-ranges-writable", Check: func(r *Run) error {
						for i, c := range clients(r) {
							ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
							_, err := c.PutAt(ctx, attrspace.Global, "final", fmt.Sprintf("s%d", i))
							cancel()
							if err != nil {
								return fmt.Errorf("shard %d still unwritable: %w", i, err)
							}
						}
						return nil
					}},
					{Name: "scatter-gather-intact", Check: func(r *Run) error {
						sc := cass(r)
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						defer cancel()
						snaps, err := clients(r)[0].SnapshotGlobalMany(ctx, sc.Contexts)
						if err != nil {
							return fmt.Errorf("SnapshotGlobalMany: %w", err)
						}
						for i, name := range sc.Contexts {
							if snaps[name]["final"] != fmt.Sprintf("s%d", i) {
								return fmt.Errorf("context %s: final = %q, want s%d", name, snaps[name]["final"], i)
							}
						}
						ctxs, err := clients(r)[0].GlobalContexts(ctx)
						if err != nil {
							return fmt.Errorf("GlobalContexts: %w", err)
						}
						if len(ctxs) < len(sc.Contexts) {
							return fmt.Errorf("GlobalContexts = %d contexts, want >= %d", len(ctxs), len(sc.Contexts))
						}
						return nil
					}},
				},
			},
		},
	}
}

// ToolChurn repeatedly kills and resumes batches of daemons while the
// pool publishes cumulative counters: hosts.down must count every
// loss, cumulative totals must stay monotone through retire/revive,
// and after the last revival the rollup must converge to the exact
// total as if nothing ever died.
func ToolChurn(name string, hosts, fanOut, levels, churnRounds, killsPerRound int) *Scenario {
	const step = 10
	return &Scenario{
		Name:        name,
		Description: fmt.Sprintf("%d hosts: %d rounds of kill/resume churn (%d per round) under cumulative load", hosts, churnRounds, killsPerRound),
		Hosts:       hosts,
		Phases: []Phase{
			{
				Name: "ramp",
				Run: func(r *Run) error {
					p, err := BuildPlane(r, PlaneConfig{Hosts: hosts, FanOut: fanOut, Levels: levels})
					if err != nil {
						return err
					}
					r.Put(planeKey, p)
					return p.Fleet.ForAll(0, func(i int) error {
						if err := p.Fleet.Register(i); err != nil {
							return err
						}
						return p.Fleet.PublishCounter(i, "app.ops", step)
					})
				},
				Checkpoints: []Checkpoint{
					{Name: "baseline-rollup", Check: func(r *Run) error {
						p := plane(r)
						return r.WaitFor(30*time.Second, func() bool {
							s := p.RootSnapshot()
							return s.Counters["app.ops"] == int64(hosts*step) &&
								s.Counters["mrnet.tree.daemons"] == int64(hosts)
						}, "baseline rollup")
					}},
				},
			},
			{
				Name: "churn",
				Run: func(r *Run) error {
					p := plane(r)
					lastOps := int64(hosts * step)
					killedTotal := 0
					for round := 1; round <= churnRounds; round++ {
						// Seed-chosen victims: the same -scenario-seed
						// kills the same daemons in the same order.
						kills := r.RNG.Perm(hosts)[:killsPerRound]
						for _, i := range kills {
							p.Fleet.Kill(i)
						}
						killedTotal += len(kills)
						r.Count("kills", int64(len(kills)))
						if err := r.WaitFor(30*time.Second, func() bool {
							return p.RootSnapshot().Counters["mrnet.hosts.down"] == int64(killedTotal)
						}, fmt.Sprintf("round %d: hosts.down == %d", round, killedTotal)); err != nil {
							return err
						}
						// Cumulative streams must never run backwards,
						// deaths and retires included.
						if ops := p.RootSnapshot().Counters["app.ops"]; ops < lastOps {
							return fmt.Errorf("round %d: app.ops ran backwards after kills: %d -> %d", round, lastOps, ops)
						}
						// Revive the victims and advance everyone one
						// cumulative step.
						v := int64((round + 1) * step)
						if err := ForEach(len(kills), 0, func(k int) error {
							start := time.Now()
							if err := p.Fleet.Resume(kills[k]); err != nil {
								return err
							}
							r.Observe("resume", time.Since(start))
							return nil
						}); err != nil {
							return fmt.Errorf("round %d resume: %w", round, err)
						}
						r.Count("resumes", int64(len(kills)))
						if err := p.Fleet.ForAll(0, func(i int) error {
							return p.Fleet.PublishCounter(i, "app.ops", v)
						}); err != nil {
							return fmt.Errorf("round %d publish: %w", round, err)
						}
						want := int64(hosts) * v
						if err := r.WaitFor(30*time.Second, func() bool {
							ops := p.RootSnapshot().Counters["app.ops"]
							if ops < lastOps {
								return false
							}
							lastOps = ops
							return ops == want
						}, fmt.Sprintf("round %d: app.ops == %d", round, want)); err != nil {
							return err
						}
					}
					return nil
				},
				Checkpoints: []Checkpoint{
					{Name: "every-loss-counted", Check: func(r *Run) error {
						want := int64(churnRounds * killsPerRound)
						if got := plane(r).RootSnapshot().Counters["mrnet.hosts.down"]; got != want {
							return fmt.Errorf("mrnet.hosts.down = %d, want %d", got, want)
						}
						return nil
					}},
					{Name: "exact-total-after-churn", Check: func(r *Run) error {
						want := int64(hosts * (churnRounds + 1) * step)
						if got := plane(r).RootSnapshot().Counters["app.ops"]; got != want {
							return fmt.Errorf("app.ops = %d, want %d (churn must not double-count or drop)", got, want)
						}
						return nil
					}},
					{Name: "frontend-connection-stable", Check: func(r *Run) error {
						if got := plane(r).Sink.Conns(); got != 1 {
							return fmt.Errorf("front-end connections = %d, want 1", got)
						}
						return nil
					}},
				},
			},
			{
				Name: "drain",
				Run: func(r *Run) error {
					p := plane(r)
					return p.Fleet.ForAll(0, func(i int) error { return p.Fleet.Done(i, 0) })
				},
				Checkpoints: []Checkpoint{
					{Name: "aggregate-done-at-frontend", Check: func(r *Run) error {
						p := plane(r)
						return r.WaitFor(30*time.Second, func() bool {
							return p.Sink.VerbCount("DONE") >= 1
						}, "the aggregated DONE at the front-end")
					}},
				},
			},
		},
	}
}

// RollingRestart drains and restarts every CASS shard in sequence
// while writers hammer all ranges with retry loops: every op must
// eventually land (a drain window shows up as retries, never as a
// permanent failure), no attempt may hang, and after the last restart
// every range must take a confirmed write that reads back and shows up
// in scatter-gather. Note what is deliberately NOT asserted: data
// written before a shard's restart surviving it — today a restart
// destroys the shard's contexts when their last reference leaves
// (durability/replication is ROADMAP item 1), so the scenario pins
// the availability contract, not a durability one.
func RollingRestart(name string, shards, opsPerShard int) *Scenario {
	type wstate struct {
		mu        sync.Mutex
		landed    int64 // ops confirmed written
		permanent int64 // ops that never succeeded
		slowestMs int64
	}
	states := make([]*wstate, shards)
	return &Scenario{
		Name:        name,
		Description: fmt.Sprintf("drain+restart each of %d CASS shards in sequence under retrying writers", shards),
		Hosts:       shards,
		Phases: []Phase{
			{
				Name: "spin-up",
				Run: func(r *Run) error {
					for i := range states {
						states[i] = &wstate{}
					}
					sc, err := BuildShardedCASS(r, shards, 50*time.Millisecond)
					if err != nil {
						return err
					}
					r.Put(cassKey, sc)
					cs := make([]*attrspace.Client, shards)
					for i := 0; i < shards; i++ {
						c, err := attrspace.Dial(nil, sc.LASSAddr, sc.Contexts[i])
						if err != nil {
							return fmt.Errorf("dial worker %d: %w", i, err)
						}
						cs[i] = c
						ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
						_, err = c.PutAt(ctx, attrspace.Global, "boot", sc.Contexts[i])
						cancel()
						if err != nil {
							return fmt.Errorf("seed write shard %d: %w", i, err)
						}
					}
					r.Put(clientsKey, cs)
					r.Defer(func() {
						for _, c := range cs {
							c.Close()
						}
					})
					return nil
				},
			},
			{
				Name: "rolling-restart",
				Run: func(r *Run) error {
					sc := cass(r)
					cs := clients(r)
					stop := make(chan struct{})
					var wg sync.WaitGroup
					// Writers: each shard's worker writes op-indexed
					// values continuously until the restarts finish,
					// retrying each op until it lands — a drain window
					// shows up as retries, never as a lost write.
					for i := 0; i < shards; i++ {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							st := states[i]
							for op := 1; ; op++ {
								select {
								case <-stop:
									return
								default:
								}
								opStart := time.Now()
								deadline := time.Now().Add(15 * time.Second)
								landed := false
								for time.Now().Before(deadline) {
									attemptStart := time.Now()
									ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
									_, err := cs[i].PutAt(ctx, attrspace.Global, "k", fmt.Sprintf("v%d", op))
									cancel()
									ms := time.Since(attemptStart).Milliseconds()
									st.mu.Lock()
									if ms > st.slowestMs {
										st.slowestMs = ms
									}
									st.mu.Unlock()
									if err == nil {
										landed = true
										break
									}
									r.Count(fmt.Sprintf("shard%d.retries", i), 1)
									select {
									case <-stop:
										// Don't charge an op abandoned at
										// shutdown as a permanent failure.
										return
									case <-time.After(10 * time.Millisecond):
									}
								}
								r.Observe(fmt.Sprintf("shard%d.write", i), time.Since(opStart))
								st.mu.Lock()
								if landed {
									st.landed++
								} else {
									st.permanent++
								}
								st.mu.Unlock()
								time.Sleep(5 * time.Millisecond)
							}
						}(i)
					}
					// The rolling restart itself, in seed-chosen order:
					// graceful drain, rebind on the same address and
					// space, wait writable, move on.
					order := r.RNG.Perm(shards)
					for _, i := range order {
						time.Sleep(100 * time.Millisecond)
						r.Logf("  draining shard %d", i)
						sc.Shards[i].Drain(2 * time.Second)
						if err := sc.Shards[i].Restart(); err != nil {
							close(stop)
							wg.Wait()
							return err
						}
						probe := clients(r)[i]
						if err := r.WaitFor(15*time.Second, func() bool {
							ctx, cancel := context.WithTimeout(context.Background(), time.Second)
							defer cancel()
							_, err := probe.PutAt(ctx, attrspace.Global, "probe", fmt.Sprintf("up%d", i))
							return err == nil
						}, fmt.Sprintf("shard %d writable after restart", i)); err != nil {
							close(stop)
							wg.Wait()
							return err
						}
						r.Count("restarts", 1)
					}
					// Let the writers land at least opsPerShard ops each
					// with every shard back up, so the workload provably
					// spans the whole restart window.
					if err := r.WaitFor(30*time.Second, func() bool {
						for _, st := range states {
							st.mu.Lock()
							n := st.landed
							st.mu.Unlock()
							if n < int64(opsPerShard) {
								return false
							}
						}
						return true
					}, fmt.Sprintf("every writer to land >= %d ops", opsPerShard)); err != nil {
						close(stop)
						wg.Wait()
						return err
					}
					close(stop)
					wg.Wait()
					// Post-restart confirmed writes: these must be
					// durable for the rest of the run and visible to
					// scatter-gather.
					return ForEach(shards, shards, func(i int) error {
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						defer cancel()
						_, err := cs[i].PutAt(ctx, attrspace.Global, "final", fmt.Sprintf("s%d", i))
						return err
					})
				},
				Checkpoints: []Checkpoint{
					{Name: "zero-permanent-write-failures", Check: func(r *Run) error {
						for i, st := range states {
							st.mu.Lock()
							perm, landed := st.permanent, st.landed
							st.mu.Unlock()
							if perm != 0 {
								return fmt.Errorf("shard %d: %d writes never landed", i, perm)
							}
							if landed < int64(opsPerShard) {
								return fmt.Errorf("shard %d: only %d ops landed, want >= %d", i, landed, opsPerShard)
							}
							r.Count(fmt.Sprintf("shard%d.landed", i), landed)
						}
						return nil
					}},
					{Name: "no-attempt-hung", Check: func(r *Run) error {
						for i, st := range states {
							st.mu.Lock()
							slowest := st.slowestMs
							st.mu.Unlock()
							if slowest > 3500 {
								return fmt.Errorf("shard %d: a write attempt took %dms — restarts must fail fast, not hang", i, slowest)
							}
						}
						return nil
					}},
					{Name: "post-restart-writes-read-back", Check: func(r *Run) error {
						for i, c := range clients(r) {
							ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
							got, _, err := c.TryGetAt(ctx, attrspace.Global, "final")
							cancel()
							if err != nil {
								return fmt.Errorf("shard %d read-back: %w", i, err)
							}
							if want := fmt.Sprintf("s%d", i); got != want {
								return fmt.Errorf("shard %d: final = %q after restarts, want %q", i, got, want)
							}
						}
						return nil
					}},
					{Name: "scatter-gather-intact", Check: func(r *Run) error {
						sc := cass(r)
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						defer cancel()
						snaps, err := clients(r)[0].SnapshotGlobalMany(ctx, sc.Contexts)
						if err != nil {
							return fmt.Errorf("SnapshotGlobalMany: %w", err)
						}
						for i, name := range sc.Contexts {
							if want := fmt.Sprintf("s%d", i); snaps[name]["final"] != want {
								return fmt.Errorf("context %s: final = %q in scatter-gather, want %q", name, snaps[name]["final"], want)
							}
						}
						ctxs, err := clients(r)[0].GlobalContexts(ctx)
						if err != nil {
							return fmt.Errorf("GlobalContexts: %w", err)
						}
						if len(ctxs) < len(sc.Contexts) {
							return fmt.Errorf("GlobalContexts = %d contexts, want >= %d", len(ctxs), len(sc.Contexts))
						}
						return nil
					}},
				},
			},
		},
	}
}

// MixedWorkloadSoak drives the full §4.3 stack: a condor pool runs
// waves of vanilla science jobs with paradynd attached via the
// Figure-5B submit directives, then an MPI ring job, while the paradyn
// front-end ingests daemon telemetry. Everything must exit cleanly and
// the Performance Consultant must still name the planted bottleneck.
func MixedWorkloadSoak(name string, machines, vanillaJobs, iters int) *Scenario {
	return &Scenario{
		Name:        name,
		Description: fmt.Sprintf("%d-machine condor pool: %d vanilla jobs with paradynd attach + one MPI ring wave", machines, vanillaJobs),
		Hosts:       machines,
		Phases: []Phase{
			{
				Name: "spin-up",
				Run: func(r *Run) error {
					l, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						return err
					}
					fe, err := paradyn.NewFrontEnd(paradyn.FrontEndConfig{Listener: l, AutoRun: true})
					if err != nil {
						return err
					}
					r.Put(feKey, fe)
					r.Defer(fe.Close)
					pool := condor.NewPool(condor.PoolOptions{
						NegotiationTimeout: 20 * time.Second,
						JobTimeout:         2 * time.Minute,
					})
					r.Put(poolKey, pool)
					r.Defer(pool.Close)
					for i := 0; i < machines; i++ {
						if _, err := pool.AddMachine(condor.MachineConfig{
							Name: fmt.Sprintf("node%d", i+1), Arch: "INTEL", OpSys: "LINUX", Memory: 256,
						}); err != nil {
							return err
						}
					}
					pool.Registry().RegisterTool("paradynd", paradyn.Tool())
					pool.Registry().RegisterProgram("science", func(args []string) (procsim.Program, []string) {
						phases, prog := procsim.DefaultScienceApp(iters)
						return prog, procsim.PhasedSymbols(phases)
					})
					pool.Registry().RegisterProgram("ring", func(args []string) (procsim.Program, []string) {
						return mpisim.NewRingProgram(), mpisim.RingSymbols
					})
					return nil
				},
			},
			{
				Name: "vanilla-waves",
				Run: func(r *Run) error {
					fe := r.Get(feKey).(*paradyn.FrontEnd)
					pool := r.Get(poolKey).(*condor.Pool)
					host, port, err := net.SplitHostPort(fe.Addr())
					if err != nil {
						return err
					}
					submit := fmt.Sprintf(`universe = Vanilla
executable = science
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-zunix -l3 -m%s -p%s -a%%pid"
queue
`, host, port)
					for done := 0; done < vanillaJobs; {
						wave := machines
						if left := vanillaJobs - done; left < wave {
							wave = left
						}
						jobs := make([]*condor.Job, 0, wave)
						for j := 0; j < wave; j++ {
							js, err := pool.Submit(submit)
							if err != nil {
								return fmt.Errorf("submit: %w", err)
							}
							jobs = append(jobs, js...)
						}
						for _, job := range jobs {
							start := time.Now()
							st, err := job.WaitExit(90 * time.Second)
							if err != nil {
								return fmt.Errorf("job %d: %w", job.ID, err)
							}
							r.Observe("job", time.Since(start))
							if st.Code != 0 {
								return fmt.Errorf("job %d exited %v, want 0", job.ID, st)
							}
							r.Count("vanilla_jobs", 1)
						}
						done += wave
					}
					return nil
				},
				Checkpoints: []Checkpoint{
					{Name: "all-daemons-reported-done", Check: func(r *Run) error {
						fe := r.Get(feKey).(*paradyn.FrontEnd)
						// Daemon names are per machine+rank, so the done
						// count is the distinct machines used, >= 1.
						if err := fe.WaitDone(1, 30*time.Second); err != nil {
							return err
						}
						if got := len(fe.Daemons()); got < 1 {
							return fmt.Errorf("front-end saw %d daemons, want >= 1", got)
						}
						return nil
					}},
				},
			},
			{
				Name: "mpi-wave",
				Run: func(r *Run) error {
					pool := r.Get(poolKey).(*condor.Pool)
					jobs, err := pool.Submit(`universe = MPI
executable = ring
machine_count = 3
queue
`)
					if err != nil {
						return fmt.Errorf("mpi submit: %w", err)
					}
					start := time.Now()
					st, err := jobs[0].WaitExit(90 * time.Second)
					if err != nil {
						return fmt.Errorf("mpi wait: %w", err)
					}
					r.Observe("mpi_job", time.Since(start))
					if st.Code != 2 { // 3-rank ring: 2 hops
						return fmt.Errorf("ring exited %v, want exit(2)", st)
					}
					if jobs[0].RanksDone() != 3 {
						return fmt.Errorf("ranks done = %d, want 3", jobs[0].RanksDone())
					}
					r.Count("mpi_ranks", 3)
					return nil
				},
			},
			{
				Name: "verify-telemetry",
				Run:  func(r *Run) error { return nil },
				Checkpoints: []Checkpoint{
					{Name: "pool-telemetry-ingested", Check: func(r *Run) error {
						fe := r.Get(feKey).(*paradyn.FrontEnd)
						snap := fe.PoolSnapshot()
						if snap.Counters["paradyn.samples.sent"] == 0 {
							return fmt.Errorf("pool snapshot has no paradyn.samples.sent; daemon telemetry never arrived")
						}
						r.Count("pool_samples_sent", snap.Counters["paradyn.samples.sent"])
						return nil
					}},
					{Name: "bottleneck-found", Check: func(r *Run) error {
						fe := r.Get(feKey).(*paradyn.FrontEnd)
						fn, share, ok := fe.Bottleneck()
						if !ok {
							return fmt.Errorf("performance consultant found no bottleneck")
						}
						if fn != "compute_forces" {
							return fmt.Errorf("bottleneck = %s (%.0f%%), want compute_forces", fn, share*100)
						}
						return nil
					}},
				},
			},
		},
	}
}
