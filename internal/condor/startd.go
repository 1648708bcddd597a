package condor

import (
	"fmt"
	"sync"

	"tdp/internal/telemetry"
)

// Startd represents one machine's availability in the pool (§4.1:
// "this daemon represents a given resource ... when the condor_startd
// is ready to execute a Condor job, it spawns the condor_starter").
// It implements the execute-machine half of the claiming protocol.
type Startd struct {
	machine  *Machine
	registry *Registry
	tracer   *telemetry.Tracer

	mu        sync.Mutex
	claimedBy string
	active    int // running starters under the current claim
	starters  map[int][]*Starter
}

// NewStartd returns a startd for the machine.
func NewStartd(machine *Machine, registry *Registry, tracer *telemetry.Tracer) *Startd {
	return &Startd{machine: machine, registry: registry, tracer: tracer, starters: make(map[int][]*Starter)}
}

// Machine returns the startd's machine.
func (sd *Startd) Machine() *Machine { return sd.machine }

// RequestClaim is the claiming protocol: a schedd that received this
// machine from the negotiator asks the startd directly for the claim,
// and "either party may decide not to complete the allocation" — the
// startd refuses when it is already claimed by someone else.
func (sd *Startd) RequestClaim(scheddName string) error {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if sd.claimedBy != "" && sd.claimedBy != scheddName {
		if sd.tracer != nil {
			sd.tracer.Step("startd", "claim_refused", sd.machine.Name()+" held by "+sd.claimedBy)
		}
		return fmt.Errorf("condor: machine %s already claimed by %s", sd.machine.Name(), sd.claimedBy)
	}
	sd.claimedBy = scheddName
	if sd.tracer != nil {
		sd.tracer.Step("startd", "claim_accepted", sd.machine.Name()+" by "+scheddName)
	}
	return nil
}

// ReleaseClaim gives the machine back.
func (sd *Startd) ReleaseClaim(scheddName string) {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if sd.claimedBy == scheddName {
		sd.claimedBy = ""
		if sd.tracer != nil {
			sd.tracer.Step("startd", "claim_released", sd.machine.Name())
		}
	}
}

// ClaimedBy returns the current claimant, or "".
func (sd *Startd) ClaimedBy() string {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.claimedBy
}

// Activate spawns a starter for the request under an existing claim —
// the claim-activation step. The starter runs asynchronously; its
// completion is delivered through the request's Report callback.
func (sd *Startd) Activate(req *ActivationRequest) (*Starter, error) {
	sd.mu.Lock()
	if sd.claimedBy == "" || sd.claimedBy != req.Schedd {
		sd.mu.Unlock()
		return nil, fmt.Errorf("condor: activation without claim on %s", sd.machine.Name())
	}
	sd.active++
	st := newStarter(sd, req)
	sd.starters[req.JobID] = append(sd.starters[req.JobID], st)
	sd.mu.Unlock()
	if sd.tracer != nil {
		sd.tracer.Step("startd", "spawn_starter", fmt.Sprintf("job=%d machine=%s", req.JobID, sd.machine.Name()))
	}
	go st.run()
	return st, nil
}

func (sd *Startd) starterDone(st *Starter) {
	sd.mu.Lock()
	sd.active--
	list := sd.starters[st.req.JobID]
	for i, s := range list {
		if s == st {
			sd.starters[st.req.JobID] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(sd.starters[st.req.JobID]) == 0 {
		delete(sd.starters, st.req.JobID)
	}
	sd.mu.Unlock()
}

// jobStarters snapshots the starters running a job here.
func (sd *Startd) jobStarters(jobID int) []*Starter {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return append([]*Starter(nil), sd.starters[jobID]...)
}

// SuspendJob pauses every instance of the job on this machine.
func (sd *Startd) SuspendJob(jobID int) error {
	list := sd.jobStarters(jobID)
	if len(list) == 0 {
		return fmt.Errorf("condor: job %d not running on %s", jobID, sd.machine.Name())
	}
	for _, st := range list {
		if err := st.Suspend(); err != nil {
			return err
		}
	}
	return nil
}

// ResumeJob continues a suspended job.
func (sd *Startd) ResumeJob(jobID int) error {
	list := sd.jobStarters(jobID)
	if len(list) == 0 {
		return fmt.Errorf("condor: job %d not running on %s", jobID, sd.machine.Name())
	}
	for _, st := range list {
		if err := st.Resume(); err != nil {
			return err
		}
	}
	return nil
}

// VacateJob reclaims the machine from a running job: its starter kills
// the application with SIGVACATE (the checkpoint survives). It returns
// an error when the job is not running here.
func (sd *Startd) VacateJob(jobID int) error {
	sd.mu.Lock()
	list := append([]*Starter(nil), sd.starters[jobID]...)
	sd.mu.Unlock()
	if len(list) == 0 {
		return fmt.Errorf("condor: job %d not running on %s", jobID, sd.machine.Name())
	}
	var firstErr error
	for _, st := range list {
		if err := st.Vacate(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ActiveStarters reports the number of running starters.
func (sd *Startd) ActiveStarters() int {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.active
}
