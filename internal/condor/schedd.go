package condor

import (
	"fmt"
	"io"
	"sync"
	"time"

	"tdp/internal/mpisim"
	"tdp/internal/procsim"
)

// Schedd is the submit-machine queue daemon (§4.1: "condor_schedd
// takes care of the job until a suitable and available resource is
// found ... then spawns a condor_shadow to serve that particular
// request").
type Schedd struct {
	name string
	pool *Pool

	mu     sync.Mutex
	jobs   []*Job // unfinished jobs plus the last scheddHistory finished ones
	nextID int
}

// scheddHistory is how many finished jobs the queue remembers for
// condor_q (QueueSummary). Older ones are forgotten, so a schedd's
// memory is bounded by the jobs it is running, not by every job it
// ever ran.
const scheddHistory = 64

func newSchedd(name string, pool *Pool) *Schedd {
	return &Schedd{name: name, pool: pool, nextID: 1}
}

// Name returns the schedd's identity in the claiming protocol.
func (s *Schedd) Name() string { return s.name }

// Submit queues the jobs described by the submit file (one per queue
// statement) and starts working on each. It returns the queued jobs.
func (s *Schedd) Submit(sf *SubmitFile) ([]*Job, error) {
	if sf.Queue < 1 {
		return nil, fmt.Errorf("condor: submit file queues no jobs")
	}
	if sf.Requirements != "" {
		// Surface requirement syntax errors at submit time.
		probe := newJob(0, sf)
		if !probe.Ad.Has("Requirements") {
			return nil, fmt.Errorf("condor: bad Requirements expression")
		}
	}
	var out []*Job
	s.mu.Lock()
	for i := 0; i < sf.Queue; i++ {
		j := newJob(s.nextID, sf)
		s.nextID++
		s.jobs = append(s.jobs, j)
		out = append(out, j)
	}
	s.mu.Unlock()
	for _, j := range out {
		if s.pool.tracer != nil {
			s.pool.tracer.Step("schedd", "submit", fmt.Sprintf("job=%d cmd=%s universe=%s", j.ID, sf.Executable, sf.Universe))
		}
		go s.runJob(j)
	}
	return out, nil
}

// Jobs returns a snapshot of the queue.
func (s *Schedd) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.jobs))
	copy(out, s.jobs)
	return out
}

// runJob is the shadow-spawning path for one job.
func (s *Schedd) runJob(j *Job) {
	sh := &shadow{schedd: s, job: j}
	if s.pool.tracer != nil {
		job := fmt.Sprintf("job=%d", j.ID)
		s.pool.tracer.Step("schedd", "spawn_shadow", job)
		s.pool.tracer.Step("shadow", "start", job)
	}
	if j.Submit.Universe == UniverseMPI {
		sh.runMPI()
	} else {
		sh.runVanilla()
	}
	s.retire(j)
}

// retire closes the books on a job its shadow has brought to a
// terminal state: the oldest finished job beyond scheddHistory leaves
// the queue, and only then are j's waiters released — whoever saw the
// job finish sees a queue that has already let go of its predecessor.
func (s *Schedd) retire(j *Job) {
	s.mu.Lock()
	finished, oldest := 0, -1
	for i, q := range s.jobs {
		if !q.Status().terminal() {
			continue
		}
		if finished++; finished == 1 {
			oldest = i
		}
	}
	if finished > scheddHistory {
		s.jobs = append(s.jobs[:oldest], s.jobs[oldest+1:]...)
	}
	s.mu.Unlock()
	close(j.done)
}

// shadow is the submit-side representative of one running job (§4.1:
// "acts as the resource manager for the request").
type shadow struct {
	schedd *Schedd
	job    *Job
}

// negotiateAndClaim obtains a claimed machine for the job, retrying
// while the pool is busy, until the pool's negotiation deadline.
func (sh *shadow) negotiateAndClaim() (*Startd, error) {
	pool := sh.schedd.pool
	deadline := time.Now().Add(pool.negotiationTimeout)
	for {
		name, err := pool.mm.Negotiate(sh.job.Ad)
		if err == nil {
			sd := pool.startd(name)
			if sd == nil {
				pool.mm.Release(name)
				return nil, fmt.Errorf("condor: matched unknown machine %q", name)
			}
			if claimErr := sd.RequestClaim(sh.schedd.name); claimErr == nil {
				return sd, nil
			}
			// The claiming protocol allows refusal; release the
			// negotiator's reservation and look again.
			pool.mm.Release(name)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("condor: no match for job %d before deadline", sh.job.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (sh *shadow) runVanilla() {
	j := sh.job
	pool := sh.schedd.pool
	restartData := ""
	for {
		sd, err := sh.negotiateAndClaim()
		if err != nil {
			j.hold(err.Error())
			return
		}
		machine := sd.Machine().Name()
		j.mu.Lock()
		j.machine = machine
		j.machines = append(j.machines, machine)
		j.mu.Unlock()
		j.setStatus(StatusMatched)

		reports := make(chan StarterReport, 1)
		req := &ActivationRequest{
			Schedd:      sh.schedd.name,
			JobID:       j.ID,
			Submit:      j.Submit,
			Context:     fmt.Sprintf("job-%d", j.ID),
			Rank:        0,
			Ranks:       1,
			Stdout:      j.writer(&j.outBuf),
			Stderr:      j.writer(&j.errBuf),
			SubmitFiles: pool.submitFiles,
			Report:      func(r StarterReport) { reports <- r },
			Timeout:     pool.jobTimeout,
			RestartData: restartData,
		}
		if sh.schedd.pool.tracer != nil {
			sh.schedd.pool.tracer.Step("shadow", "activate", fmt.Sprintf("job=%d machine=%s", j.ID, machine))
		}
		if _, err := sd.Activate(req); err != nil {
			sd.ReleaseClaim(sh.schedd.name)
			pool.mm.Release(machine)
			j.hold(err.Error())
			return
		}
		j.setStatus(StatusRunning)
		r := <-reports
		sd.ReleaseClaim(sh.schedd.name)
		pool.mm.Release(machine)

		// Standard universe: a vacated job migrates — resume from its
		// checkpoint on the next available machine.
		if r.Err == nil && r.Exit.Signal == "SIGVACATE" && j.Submit.Universe == UniverseStandard {
			if r.HasCheckpoint {
				restartData = r.Checkpoint
			}
			j.mu.Lock()
			j.restarts++
			j.mu.Unlock()
			if sh.schedd.pool.tracer != nil {
				sh.schedd.pool.tracer.Step("shadow", "migrate", fmt.Sprintf("job=%d from=%s checkpoint=%q", j.ID, machine, restartData))
			}
			j.setStatus(StatusIdle)
			continue
		}
		sh.finishVanilla(r)
		return
	}
}

func (sh *shadow) finishVanilla(r StarterReport) {
	j := sh.job
	pool := sh.schedd.pool
	if r.Err != nil {
		if sh.schedd.pool.tracer != nil {
			sh.schedd.pool.tracer.Step("shadow", "final_status", fmt.Sprintf("job=%d err=%v", j.ID, r.Err))
		}
		j.hold(r.Err.Error())
		return
	}
	j.mu.Lock()
	j.exit = r.Exit
	j.toolOut.Write(r.ToolOut)
	j.toolErr.Write(r.ToolErr)
	j.mu.Unlock()
	// Write the output file back on the submit machine.
	if out := j.Submit.Output; out != "" {
		pool.submitFiles.Write(out, []byte(j.Output()))
	}
	if sh.schedd.pool.tracer != nil {
		sh.schedd.pool.tracer.Step("shadow", "final_status", fmt.Sprintf("job=%d %s", j.ID, r.Exit))
	}
	j.setStatus(StatusCompleted)
}

// runMPI implements the paper's MPI-universe flow: allocate
// machine_count machines, start the rank-0 "master process" first
// (paused, with its paradynd), wait until its tool is in control, then
// start the remaining ranks the same way (§4.3: "a first process is
// started ... a paradynd is created afterwards ... once the user
// issues the run command, the rest of processes are created with a
// paradynd attached to each one of them").
func (sh *shadow) runMPI() {
	j := sh.job
	pool := sh.schedd.pool
	n := j.Submit.MachineCount

	names, err := pool.mm.NegotiateN(j.Ad, n)
	if err != nil {
		j.hold(err.Error())
		return
	}
	var startds []*Startd
	release := func() {
		for _, sd := range startds {
			sd.ReleaseClaim(sh.schedd.name)
		}
		for _, name := range names {
			pool.mm.Release(name)
		}
	}
	for _, name := range names {
		sd := pool.startd(name)
		if sd == nil {
			release()
			j.hold(fmt.Sprintf("condor: matched unknown machine %q", name))
			return
		}
		if err := sd.RequestClaim(sh.schedd.name); err != nil {
			release()
			j.hold(err.Error())
			return
		}
		startds = append(startds, sd)
	}
	j.mu.Lock()
	j.machine = names[0]
	j.machines = append([]string(nil), names...)
	j.mu.Unlock()
	j.setStatus(StatusMatched)

	world := mpisim.Register(n)
	defer mpisim.Unregister(world.ID())

	reports := make(chan StarterReport, n)
	makeReq := func(rank int, toolReady chan<- struct{}) *ActivationRequest {
		sub := *j.Submit
		sub.Arguments = mpisim.RankArgs(j.Submit.Arguments, world.ID())
		return &ActivationRequest{
			Schedd:      sh.schedd.name,
			JobID:       j.ID,
			Submit:      &sub,
			Context:     fmt.Sprintf("job-%d.rank%d", j.ID, rank),
			Rank:        rank,
			Ranks:       n,
			Stdout:      j.writer(&j.outBuf),
			Stderr:      j.writer(&j.errBuf),
			SubmitFiles: pool.submitFiles,
			ToolReady:   toolReady,
			Report:      func(r StarterReport) { reports <- r },
			Timeout:     pool.jobTimeout,
		}
	}

	// Rank 0 first.
	var ready chan struct{}
	if j.Submit.ToolDaemon != nil {
		ready = make(chan struct{}, 1)
	}
	if sh.schedd.pool.tracer != nil {
		sh.schedd.pool.tracer.Step("shadow", "activate", fmt.Sprintf("job=%d rank=0 machine=%s", j.ID, names[0]))
	}
	if _, err := startds[0].Activate(makeReq(0, ready)); err != nil {
		release()
		j.hold(err.Error())
		return
	}
	j.setStatus(StatusRunning)

	if ready != nil {
		// Hold ranks 1..N-1 until rank 0's tool reports control.
		select {
		case <-ready:
			if sh.schedd.pool.tracer != nil {
				sh.schedd.pool.tracer.Step("shadow", "rank0_tool_ready", fmt.Sprintf("job=%d", j.ID))
			}
		case <-time.After(30 * time.Second):
			release()
			j.hold("condor: rank 0 tool never became ready")
			return
		}
	}
	for rank := 1; rank < n; rank++ {
		if sh.schedd.pool.tracer != nil {
			sh.schedd.pool.tracer.Step("shadow", "activate", fmt.Sprintf("job=%d rank=%d machine=%s", j.ID, rank, names[rank]))
		}
		if _, err := startds[rank].Activate(makeReq(rank, nil)); err != nil {
			release()
			j.hold(err.Error())
			return
		}
	}

	// Collect all rank reports; rank 0's status is the job's.
	var rank0 StarterReport
	var firstErr error
	for i := 0; i < n; i++ {
		r := <-reports
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		if r.Rank == 0 {
			rank0 = r
		}
		j.mu.Lock()
		j.ranksDone++
		j.toolOut.Write(r.ToolOut)
		j.toolErr.Write(r.ToolErr)
		j.mu.Unlock()
	}
	release()
	if firstErr != nil {
		j.hold(firstErr.Error())
		return
	}
	j.mu.Lock()
	j.exit = rank0.Exit
	j.mu.Unlock()
	if out := j.Submit.Output; out != "" {
		pool.submitFiles.Write(out, []byte(j.Output()))
	}
	if sh.schedd.pool.tracer != nil {
		sh.schedd.pool.tracer.Step("shadow", "final_status", fmt.Sprintf("job=%d ranks=%d %s", j.ID, n, rank0.Exit))
	}
	j.setStatus(StatusCompleted)
}

// writer returns a mutex-guarded writer into one of the job's capture
// buffers; starters on different machines may write concurrently.
func (j *Job) writer(buf io.Writer) io.Writer {
	return &jobWriter{j: j, w: buf}
}

type jobWriter struct {
	j *Job
	w io.Writer
}

func (w *jobWriter) Write(p []byte) (int, error) {
	w.j.mu.Lock()
	defer w.j.mu.Unlock()
	return w.w.Write(p)
}

// RanksDone reports how many MPI ranks have completed.
func (j *Job) RanksDone() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ranksDone
}

// closedWithin waits up to d for done to close and reports whether it
// did. What is waited for has often happened already — a finished job, a
// tool that left with its application — so the timer is armed only when
// there is something to wait for. It is not one an earlier wait put
// back: Resetting a stopped timer costs a launch about 9 % of its
// latency for the 9 objects a job it saves (EXPERIMENTS E46).
func closedWithin(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// WaitExit blocks until the job is terminal and returns its exit
// status; held jobs return their hold reason as an error.
func (j *Job) WaitExit(timeout time.Duration) (procsim.ExitStatus, error) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	if !closedWithin(j.Done(), timeout) {
		return procsim.ExitStatus{}, fmt.Errorf("condor: job %d did not finish within %v (status %s)", j.ID, timeout, j.Status())
	}
	if j.Status() == StatusHeld {
		return procsim.ExitStatus{}, fmt.Errorf("condor: job %d held: %s", j.ID, j.HoldReason())
	}
	return j.ExitStatus(), nil
}
