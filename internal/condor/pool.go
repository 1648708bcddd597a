package condor

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"tdp/internal/telemetry"
)

// PoolOptions configure NewPool.
type PoolOptions struct {
	// Tracer records the pool's protocol steps (Figure 4 assertions),
	// and every starter's and tool's tdp_* calls; nil disables
	// recording.
	Tracer *telemetry.Tracer
	// NegotiationTimeout bounds how long a shadow waits for a machine.
	// Zero means 10 seconds.
	NegotiationTimeout time.Duration
	// JobTimeout bounds one job instance's execution. Zero means 60
	// seconds (a safety net for wedged TDP handshakes in tests).
	JobTimeout time.Duration
}

// Pool assembles a working Condor pool in one process: a matchmaker, a
// submit machine (schedd + per-job shadows + file store), and any
// number of execute machines (startd + starter each, with per-machine
// procsim kernel and LASS). Attach a Master to a machine for
// condor_master-style daemon supervision; the faults package injects
// and detects failures underneath it.
type Pool struct {
	tracer             *telemetry.Tracer
	mm                 *Matchmaker
	registry           *Registry
	schedd             *Schedd
	submitFiles        *FileStore
	negotiationTimeout time.Duration
	jobTimeout         time.Duration

	mu       sync.Mutex
	machines map[string]*Machine
	startds  map[string]*Startd
	closed   bool
}

// NewPool creates an empty pool; add machines, register programs, then
// submit.
func NewPool(opts PoolOptions) *Pool {
	if opts.NegotiationTimeout <= 0 {
		opts.NegotiationTimeout = 10 * time.Second
	}
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = 60 * time.Second
	}
	p := &Pool{
		tracer:             opts.Tracer,
		mm:                 NewMatchmaker(opts.Tracer),
		registry:           NewRegistry(),
		submitFiles:        NewFileStore(),
		negotiationTimeout: opts.NegotiationTimeout,
		jobTimeout:         opts.JobTimeout,
		machines:           make(map[string]*Machine),
		startds:            make(map[string]*Startd),
	}
	p.schedd = newSchedd("schedd", p)
	return p
}

// Registry returns the pool's executable/tool registry.
func (p *Pool) Registry() *Registry { return p.registry }

// Matchmaker returns the pool's matchmaker.
func (p *Pool) Matchmaker() *Matchmaker { return p.mm }

// Schedd returns the submit machine's schedd.
func (p *Pool) Schedd() *Schedd { return p.schedd }

// SubmitFiles returns the submit machine's file store (where input
// files live and output files land).
func (p *Pool) SubmitFiles() *FileStore { return p.submitFiles }

// AddMachine boots an execute machine, creates its startd, and
// advertises it to the matchmaker.
func (p *Pool) AddMachine(cfg MachineConfig) (*Machine, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	sd := NewStartd(m, p.registry, p.tracer)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		m.Close()
		return nil, fmt.Errorf("condor: pool closed")
	}
	if _, dup := p.machines[cfg.Name]; dup {
		p.mu.Unlock()
		m.Close()
		return nil, fmt.Errorf("condor: duplicate machine %q", cfg.Name)
	}
	p.machines[cfg.Name] = m
	p.startds[cfg.Name] = sd
	p.mu.Unlock()
	p.mm.AdvertiseMachine(cfg.Name, m.Ad())
	return m, nil
}

// Machine returns a machine by name, or nil.
func (p *Pool) Machine(name string) *Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.machines[name]
}

func (p *Pool) startd(name string) *Startd {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.startds[name]
}

// Startd returns a machine's startd, or nil.
func (p *Pool) Startd(name string) *Startd { return p.startd(name) }

// Vacate reclaims the machine a job is running on, killing the job
// with SIGVACATE. Standard-universe jobs resume from their checkpoint
// on another machine; other universes see it as a fatal signal.
func (p *Pool) Vacate(j *Job) error {
	sd, err := p.startdFor(j)
	if err != nil {
		return err
	}
	return sd.VacateJob(j.ID)
}

// Suspend pauses a running job at its next safe point (like
// condor_hold, but leaving the claim in place). Tool-controlled jobs
// cannot be suspended by the RM; see Starter.Suspend.
func (p *Pool) Suspend(j *Job) error {
	sd, err := p.startdFor(j)
	if err != nil {
		return err
	}
	return sd.SuspendJob(j.ID)
}

// Resume continues a suspended job.
func (p *Pool) Resume(j *Job) error {
	sd, err := p.startdFor(j)
	if err != nil {
		return err
	}
	return sd.ResumeJob(j.ID)
}

func (p *Pool) startdFor(j *Job) (*Startd, error) {
	machine := j.Machine()
	if machine == "" {
		return nil, fmt.Errorf("condor: job %d is not running anywhere", j.ID)
	}
	sd := p.startd(machine)
	if sd == nil {
		return nil, fmt.Errorf("condor: no startd for machine %q", machine)
	}
	return sd, nil
}

// Submit parses a submit description and queues its jobs.
func (p *Pool) Submit(src string) ([]*Job, error) {
	sf, err := ParseSubmit(src)
	if err != nil {
		return nil, err
	}
	return p.schedd.Submit(sf)
}

// SubmitParsed queues jobs from an already-parsed submit file.
func (p *Pool) SubmitParsed(sf *SubmitFile) ([]*Job, error) {
	return p.schedd.Submit(sf)
}

// QueueSummary renders a condor_q-style view of the schedd's queue.
func (p *Pool) QueueSummary() string {
	jobs := p.schedd.Jobs()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-12s %-10s %-10s %s\n", "ID", "CMD", "UNIVERSE", "STATUS", "MACHINE")
	counts := make(map[JobStatus]int)
	for _, j := range jobs {
		st := j.Status()
		counts[st]++
		fmt.Fprintf(&sb, "%-4d %-12s %-10s %-10s %s\n",
			j.ID, j.Submit.Executable, j.Submit.Universe, st, j.Machine())
	}
	fmt.Fprintf(&sb, "%d jobs; %d idle, %d running, %d completed, %d held\n",
		len(jobs), counts[StatusIdle]+counts[StatusMatched], counts[StatusRunning],
		counts[StatusCompleted]+counts[StatusRemoved], counts[StatusHeld])
	return sb.String()
}

// Close shuts down every machine's LASS.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	machines := make([]*Machine, 0, len(p.machines))
	for _, m := range p.machines {
		machines = append(machines, m)
	}
	p.mu.Unlock()
	for _, m := range machines {
		m.Close()
	}
}
