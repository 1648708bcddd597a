package main

import (
	"strconv"
	"time"

	"tdp/internal/condor"
	"tdp/internal/paradyn"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
)

// launchJob is one generated job: an application of phases functions,
// each computing units simulated microseconds. The tool instruments
// every function, so phases sets how many probes the handshake inserts.
type launchJob struct{ phases, units int }

type launchGen struct{ r *rng }

func (g *launchGen) next(j *launchJob) {
	j.phases = 1 + g.r.intn(3)
	j.units = 1 + g.r.intn(4)
}

// submitText renders the job as the submit description of the paper's
// Figure 5: suspended at exec, with paradynd as the tool daemon and the
// unresolved %pid marker that makes it fetch the pid from the LASS.
func (j launchJob) submitText(tool bool) string {
	s := "executable = app\narguments = " + strconv.Itoa(j.phases) + " " + strconv.Itoa(j.units) + "\n"
	if tool {
		s += "+SuspendJobAtExec = True\n+ToolDaemonCmd = \"paradynd\"\n+ToolDaemonArgs = \"-a%pid\"\n"
	}
	return s + "queue\n"
}

// benchApp is the application the pool runs: "app <phases> <units>".
func benchApp(args []string) (procsim.Program, []string) {
	phases, units := 1, 1
	if len(args) >= 2 {
		phases, _ = strconv.Atoi(args[0]) // generated above; never malformed
		units, _ = strconv.Atoi(args[1])
	}
	specs := make([]procsim.PhaseSpec, phases)
	for i := range specs {
		specs[i] = procsim.PhaseSpec{Name: "phase" + strconv.Itoa(i), Units: units}
	}
	return procsim.NewPhasedProgram(1, specs), procsim.PhasedSymbols(specs)
}

// launchPool is a one-machine condor pool whose LASS is configured like
// cmd/lassd. The starter and paradynd reach it with the default dial,
// which takes the same-host path.
type launchPool struct {
	pool *condor.Pool
	lass *telemetry.Registry
}

func startLaunchPool() (*launchPool, error) {
	pool := condor.NewPool(condor.PoolOptions{NegotiationTimeout: 5 * time.Second})
	m, err := pool.AddMachine(condor.MachineConfig{Name: "exec0", Arch: "INTEL", OpSys: "LINUX", Memory: 128})
	if err != nil {
		pool.Close()
		return nil, err
	}
	p := &launchPool{pool: pool, lass: telemetry.NewRegistry()}
	configureDaemon(m.LASS(), "lassd", p.lass)
	if _, err := m.LASS().ListenUnixBeside(m.LASSAddr()); err != nil {
		pool.Close()
		return nil, err
	}
	pool.Registry().RegisterProgram("app", benchApp)
	pool.Registry().RegisterTool("paradynd", paradyn.Tool())
	return p, nil
}

// run submits one job and waits for its exit status.
func (p *launchPool) run(submit string) (procsim.ExitStatus, error) {
	jobs, err := p.pool.Submit(submit)
	if err != nil {
		return procsim.ExitStatus{}, err
	}
	return jobs[0].WaitExit(30 * time.Second)
}

// launchWorkload is the paper's Figure 3/6 flow, one job in flight:
// submit, create paused, pid through the LASS, attach, instrument,
// continue, exit status.
type launchWorkload struct {
	gen   launchGen
	lp    *launchPool
	jobs  int64
	gets0 int64
	job   launchJob
	fails failureLog
}

func (w *launchWorkload) setup(seed uint64, sz sizing) error {
	w.gen = launchGen{r: newRNG(seed).fork("launch.jobs")}
	lp, err := startLaunchPool()
	if err != nil {
		return err
	}
	w.lp = lp
	w.gets0 = lp.lass.Counter("attrspace.ops.get").Value()
	return warmUp(w, sz.warm)
}

func (w *launchWorkload) step() bool {
	w.gen.next(&w.job)
	w.jobs++
	st, err := w.lp.run(w.job.submitText(true))
	if err != nil {
		return w.fails.add("job %d: %v", w.jobs, err)
	}
	if st.Signaled() || st.Code != 0 {
		return w.fails.add("job %d: %s; want exit(0)", w.jobs, st)
	}
	return true
}

// finish checks the handshake's footprint on the LASS. The only
// blocking GET of the flow is paradynd's tdp_get("pid"), and the
// starter's tdp_put("pid") is what releases it, so exactly one GET per
// job completed means the pid was put once and got once for every job.
func (w *launchWorkload) finish() (checked int) {
	gets := w.lp.lass.Counter("attrspace.ops.get").Value() - w.gets0
	if gets != w.jobs {
		w.fails.add("LASS served %d blocking GETs for %d jobs; want one pid get per job", gets, w.jobs)
	}
	return 1
}

func (w *launchWorkload) registries() []*telemetry.Registry {
	return []*telemetry.Registry{w.lp.lass}
}

func (w *launchWorkload) failures() *failureLog { return &w.fails }

func (w *launchWorkload) close() {
	if w.lp != nil {
		w.lp.pool.Close()
	}
}

func launchStreamHash(seed uint64, n int) uint64 {
	g := launchGen{r: newRNG(seed).fork("launch.jobs")}
	h := newStreamHash()
	var j launchJob
	for i := 0; i < n; i++ {
		g.next(&j)
		h.add(uint64(j.phases), uint64(j.units))
	}
	return uint64(h)
}
