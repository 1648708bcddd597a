package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"tdp"
	"tdp/internal/classad"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
)

// The launch ladder replays the launch stream's jobs against, bottom
// up: classad matchmaking, the procsim kernel, the tdp process verbs
// between an RM and an RT handle, the condor pool running the job
// plain, and the pool running it under paradynd.

const launchChunk = 4

// jobAd is the request ad condor would build for a generated job; the
// offers are a 100-machine pool of which half can hold it.
func jobAd(j launchJob) *classad.Ad {
	ad := classad.NewAd()
	ad.SetInt("ImageSize", int64(64*j.phases))
	ad.SetExpr("Requirements", `Arch == "INTEL" && OpSys == "LINUX" && Memory >= 64`)
	ad.SetExpr("Rank", "Memory")
	return ad
}

func machineAds() []*classad.Ad {
	offers := make([]*classad.Ad, 100)
	for i := range offers {
		m := classad.NewAd()
		m.SetString("Arch", "INTEL")
		m.SetString("OpSys", "LINUX")
		m.SetInt("Memory", int64(32+i*8))
		m.SetExpr("Requirements", "TARGET.ImageSize <= MY.Memory")
		offers[i] = m
	}
	return offers
}

func noProbe(*procsim.ProcContext) {}

func (l *ladderRun) launchLadder(seed uint64, seconds float64) error {
	gen := launchGen{r: newRNG(seed).fork("launch.jobs")}
	offers := machineAds()

	// procsim rung: a kernel of its own.
	kernel := procsim.NewKernel()

	// tdp.process rung: an RM and an RT handle on one LASS and one
	// kernel, the pair a starter and a tool daemon make.
	lass, err := startDaemon("lassd-process", nil)
	if err != nil {
		return err
	}
	defer lass.srv.Close()
	pairKernel := procsim.NewKernel()
	var rm, rt *tdp.Handle
	for _, h := range []struct {
		dst      **tdp.Handle
		identity string
	}{{&rm, "RM"}, {&rt, "RT"}} {
		*h.dst, err = tdp.Init(tdp.Config{Context: "ladder-process", LASSAddr: lass.addr, Kernel: pairKernel, Identity: h.identity})
		if err != nil {
			return err
		}
		defer (*h.dst).Exit()
	}

	// condor rungs: the workload's own pool.
	lp, err := startLaunchPool()
	if err != nil {
		return err
	}
	defer lp.pool.Close()

	matchS, cycleS := l.rec.get("classad.match"), l.rec.get("procsim.cycle")
	hs := l.handshakeSeries()
	plainS, toolS := l.rec.get("condor.plain_job"), l.rec.get("condor.tool_job")
	var cycleM, plainM rungMeter
	var toolOps, toolMsgs int64
	lassOps := func(reg *telemetry.Registry) (n int64) {
		for _, verb := range []string{"put", "get", "tryget", "mput", "delete"} {
			n += reg.Counter("attrspace.ops." + verb).Value()
		}
		return n
	}
	lassMsgs := func(reg *telemetry.Registry) int64 {
		return reg.Counter("wire.tx.msgs").Value() + reg.Counter("wire.rx.msgs").Value()
	}
	pairOps0 := lassOps(lass.reg)

	jobs := make([]launchJob, launchChunk)
	var base int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for i := range jobs {
			gen.next(&jobs[i])
		}
		// The pool rungs first: the starter's last status put can land
		// after the job is reported done, and the rungs that follow do
		// not read the pool's counters.
		plainM.begin()
		for i, j := range jobs {
			t0 := time.Now()
			st, err := lp.run(j.submitText(false))
			plainS.add(base+int64(i), -1, t0, time.Since(t0))
			l.checkExit("condor plain", base+int64(i), st, err)
		}
		plainM.end(len(jobs))

		ops0, msgs0 := lassOps(lp.lass), lassMsgs(lp.lass)
		for i, j := range jobs {
			t0 := time.Now()
			st, err := lp.run(j.submitText(true))
			toolS.add(base+int64(i), -1, t0, time.Since(t0))
			l.checkExit("condor with tool", base+int64(i), st, err)
		}
		toolOps += lassOps(lp.lass) - ops0
		toolMsgs += lassMsgs(lp.lass) - msgs0

		for i, j := range jobs {
			ad := jobAd(j)
			t0 := time.Now()
			best := classad.MatchBest(ad, offers)
			matchS.add(base+int64(i), -1, t0, time.Since(t0))
			if best < 0 {
				l.fails.add("classad rung, job %d: no match", base+int64(i))
			}
		}

		cycleM.begin()
		for i, j := range jobs {
			program, symbols := benchApp([]string{strconv.Itoa(j.phases), strconv.Itoa(j.units)})
			t0 := time.Now()
			st, err := kernelCycle(kernel, program, symbols)
			cycleS.add(base+int64(i), -1, t0, time.Since(t0))
			l.checkExit("procsim", base+int64(i), st, err)
		}
		cycleM.end(len(jobs))

		for i, j := range jobs {
			program, symbols := benchApp([]string{strconv.Itoa(j.phases), strconv.Itoa(j.units)})
			st, err := l.handshake(rm, rt, base+int64(i), program, symbols, hs)
			l.checkExit("tdp.process", base+int64(i), st, err)
			// A condor job gets a fresh context; this pair reuses one, so
			// the pid must go before the next job's blocking get.
			if err := rm.Delete(tdp.AttrPID); err != nil {
				l.fails.add("tdp.process rung, job %d: delete pid: %v", base+int64(i), err)
			}
		}
		l.ops += 5 * len(jobs)
		base += launchChunk
	}
	if base == 0 {
		return fmt.Errorf("no chunk completed in %g s", seconds)
	}
	n := float64(base)

	l.set("classad.match_us", matchS.p50us())
	l.set("procsim.cycle_us", cycleS.p50us())
	l.set("procsim.allocs_per_op", cycleM.allocsPerUnit())
	l.set("tdp.process.handshake_us", hs.whole.p50us())
	// Beneath the process verbs lie the kernel and the two attribute
	// ops that carry the pid.
	l.selfUS("tdp.process.self_us", pairedMedianUS(hs.whole, cycleS, hs.attrOps))
	deletes := lass.reg.Counter("attrspace.ops.delete").Value()
	l.set("tdp.process.attr_ops_per_job", float64(lassOps(lass.reg)-pairOps0-deletes)/n)
	l.set("condor.plain_job_us", plainS.p50us())
	l.set("condor.allocs_per_job", plainM.allocsPerUnit())
	l.set("paradyn.tool_overhead_us", pairedMedianUS(toolS, plainS))
	l.set("launch.attr_ops_per_job", float64(toolOps)/n)
	l.set("launch.wire_msgs_per_job", float64(toolMsgs)/n)
	return nil
}

func (l *ladderRun) checkExit(rung string, job int64, st procsim.ExitStatus, err error) {
	if err != nil {
		l.fails.add("%s rung, job %d: %v", rung, job, err)
	} else if st.Signaled() || st.Code != 0 {
		l.fails.add("%s rung, job %d: %s; want exit(0)", rung, job, st)
	}
}

// kernelCycle is the launch flow's process work with no TDP around it:
// spawn paused, attach, instrument every function, continue, wait.
func kernelCycle(k *procsim.Kernel, program procsim.Program, symbols []string) (procsim.ExitStatus, error) {
	p, err := k.Spawn(procsim.Spec{Executable: "app", Program: program, Symbols: symbols, Parent: "RM"}, true)
	if err != nil {
		return procsim.ExitStatus{}, err
	}
	if err := p.Attach("RT"); err != nil {
		return procsim.ExitStatus{}, err
	}
	for _, sym := range p.Symbols() {
		if _, err := p.InsertProbe("RT", sym, noProbe, noProbe); err != nil {
			return procsim.ExitStatus{}, err
		}
	}
	if err := p.Continue("RT"); err != nil {
		return procsim.ExitStatus{}, err
	}
	if st, ok := p.WaitTracer(); ok {
		return st, nil
	}
	st, _ := p.ExitStatusSnapshot()
	return st, nil
}

// handshakeSeries holds the span series of the tdp.process rung,
// resolved once so the timed calls pay no map lookup: the whole
// handshake, its two pid ops together, and each call in order.
type handshakeSeries struct {
	whole, attrOps *series
	steps          [len(handshakeSteps)]*series
}

var handshakeSteps = [...]string{"create", "publish_pid", "get_pid", "attach", "instrument", "continue", "wait"}

func (l *ladderRun) handshakeSeries() *handshakeSeries {
	hs := &handshakeSeries{whole: l.rec.get("tdp.process.handshake"), attrOps: l.rec.get("tdp.process.attr_ops")}
	for i, name := range handshakeSteps {
		hs.steps[i] = l.rec.get("tdp.process." + name)
	}
	return hs
}

// handshake is the paper's Figure 3 between an RM handle and an RT
// handle, every call under its own span, in handshakeSteps order.
func (l *ladderRun) handshake(rm, rt *tdp.Handle, job int64, program procsim.Program, symbols []string, hs *handshakeSeries) (procsim.ExitStatus, error) {
	var attrOps time.Duration
	var firstErr error
	start := time.Now()
	parent := l.rec.newID() // recorded last, once its length is known
	step := 0
	call := func(attrOp bool, f func() error) {
		s := hs.steps[step]
		step++
		if firstErr != nil {
			return
		}
		t0 := time.Now()
		firstErr = f()
		d := time.Since(t0)
		s.add(job, parent, t0, d)
		if attrOp {
			attrOps += d
		}
	}
	var ap, tp *tdp.Process
	var pid procsim.PID
	var st procsim.ExitStatus
	call(false, func() (err error) {
		ap, err = rm.CreateProcess(tdp.ProcessSpec{Executable: "app", Program: program, Symbols: symbols}, tdp.StartPaused)
		return err
	})
	call(true, func() error { return rm.PublishPID(ap) })
	call(true, func() (err error) {
		pid, err = rt.GetPID(context.Background())
		return err
	})
	call(false, func() (err error) {
		tp, err = rt.Attach(pid)
		return err
	})
	call(false, func() error {
		for _, sym := range tp.Symbols() {
			if _, err := tp.InsertProbe(sym, noProbe, noProbe); err != nil {
				return err
			}
		}
		return nil
	})
	call(false, func() error { return tp.Continue() })
	call(false, func() (err error) {
		st, err = tp.Wait()
		return err
	})
	if firstErr != nil {
		return st, firstErr
	}
	hs.whole.addAs(parent, job, -1, start, time.Since(start))
	hs.attrOps.add(job, parent, start, attrOps)
	tp.Detach() // the process is gone; this only clears the handle's bookkeeping
	return st, nil
}
