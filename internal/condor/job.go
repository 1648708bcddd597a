package condor

import (
	"bytes"
	"fmt"
	"sync"

	"tdp/internal/classad"
	"tdp/internal/procsim"
)

// JobStatus is a job's lifecycle state in the queue.
type JobStatus int

const (
	// StatusIdle means queued, waiting for a match.
	StatusIdle JobStatus = iota
	// StatusMatched means the negotiator found a machine; claiming in
	// progress.
	StatusMatched
	// StatusRunning means a starter is executing the job.
	StatusRunning
	// StatusCompleted means the job finished and status was retrieved.
	StatusCompleted
	// StatusRemoved means the job was removed before completion.
	StatusRemoved
	// StatusHeld means the job hit an error and is parked.
	StatusHeld
)

// terminal reports whether a job in this state is finished for good.
func (s JobStatus) terminal() bool {
	return s == StatusCompleted || s == StatusRemoved || s == StatusHeld
}

// String names the status as condor_q would.
func (s JobStatus) String() string {
	switch s {
	case StatusIdle:
		return "Idle"
	case StatusMatched:
		return "Matched"
	case StatusRunning:
		return "Running"
	case StatusCompleted:
		return "Completed"
	case StatusRemoved:
		return "Removed"
	case StatusHeld:
		return "Held"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Job is one queued job instance.
type Job struct {
	ID     int
	Submit *SubmitFile
	Ad     *classad.Ad

	mu        sync.Mutex
	status    JobStatus
	machine   string // matched machine name (rank 0 for MPI)
	machines  []string
	exit      procsim.ExitStatus
	holdMsg   string
	done      chan struct{}
	outBuf    bytes.Buffer // job stdout captured on the submit side
	errBuf    bytes.Buffer // job stderr
	toolOut   bytes.Buffer // tool daemon stdout (ToolDaemonOutput)
	toolErr   bytes.Buffer
	ranksDone int
	restarts  int
}

func newJob(id int, sf *SubmitFile) *Job {
	ad := classad.NewAd()
	ad.SetString("JobId", fmt.Sprintf("%d", id))
	ad.SetString("Cmd", sf.Executable)
	ad.SetInt("ImageSize", sf.ImageSizeKB)
	if sf.Requirements != "" {
		// An unparseable requirement holds the job at submit time, so
		// errors surface early; Submit checks this.
		ad.SetExpr("Requirements", sf.Requirements)
	}
	if sf.Rank != "" {
		ad.SetExpr("Rank", sf.Rank)
	}
	for k, v := range sf.ExtraAttrs {
		ad.SetString(k, v)
	}
	return &Job{ID: id, Submit: sf, Ad: ad, done: make(chan struct{})}
}

// Status returns the current queue status.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Machine returns the execute machine (rank 0's machine for MPI jobs),
// or "" before matching.
func (j *Job) Machine() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.machine
}

// Restarts reports how many times the job was vacated and resumed
// (standard universe).
func (j *Job) Restarts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.restarts
}

// Machines returns every machine this job has run on: all ranks for
// MPI jobs, the migration history for standard-universe jobs.
func (j *Job) Machines() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, len(j.machines))
	copy(out, j.machines)
	return out
}

// Done returns a channel closed when the job has reached a terminal
// state (Completed, Removed, or Held) and the schedd has retired it.
func (j *Job) Done() <-chan struct{} { return j.done }

// ExitStatus returns the job's exit status; valid once Completed.
func (j *Job) ExitStatus() procsim.ExitStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.exit
}

// HoldReason returns the message attached when the job was held.
func (j *Job) HoldReason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.holdMsg
}

// Output returns the job's captured standard output (submit side).
func (j *Job) Output() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outBuf.String()
}

// ErrorOutput returns the job's captured standard error.
func (j *Job) ErrorOutput() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errBuf.String()
}

// ToolOutput returns the tool daemon's captured stdout — the content
// of the ToolDaemonOutput file transferred back after completion.
func (j *Job) ToolOutput() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.toolOut.String()
}

// ToolErrorOutput returns the tool daemon's captured stderr.
func (j *Job) ToolErrorOutput() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.toolErr.String()
}

func (j *Job) setStatus(s JobStatus) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

func (j *Job) hold(msg string) {
	j.mu.Lock()
	j.holdMsg = msg
	j.mu.Unlock()
	j.setStatus(StatusHeld)
}
