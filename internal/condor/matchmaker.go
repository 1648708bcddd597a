package condor

import (
	"fmt"
	"sort"
	"sync"

	"tdp/internal/classad"
	"tdp/internal/telemetry"
)

// Matchmaker is the pool's collector + negotiator: machines advertise
// resource offers, schedds bring resource requests, and Negotiate
// pairs them using symmetric ClassAd matching (§4.1: "the matchmaking
// algorithm is responsible for locating compatible resource requests
// with offers. When a compatible match is found, the matchmaker
// notifies the corresponding job and machine").
type Matchmaker struct {
	mu      sync.Mutex
	offers  map[string]*classad.Ad // machine name -> ad
	claimed map[string]bool        // machine name -> claimed
	tracer  *telemetry.Tracer
	matches int
	fails   int
}

// NewMatchmaker returns an empty matchmaker; tracer (optional) records
// its protocol steps.
func NewMatchmaker(tracer *telemetry.Tracer) *Matchmaker {
	return &Matchmaker{
		offers:  make(map[string]*classad.Ad),
		claimed: make(map[string]bool),
		tracer:  tracer,
	}
}

// AdvertiseMachine registers (or refreshes) a machine's offer ad —
// what the startd periodically sends to the collector.
func (mm *Matchmaker) AdvertiseMachine(name string, ad *classad.Ad) {
	mm.mu.Lock()
	mm.offers[name] = ad.Clone()
	mm.mu.Unlock()
	mm.tracer.Step("matchmaker", "advertise_machine", name)
}

// RemoveMachine withdraws a machine from the pool.
func (mm *Matchmaker) RemoveMachine(name string) {
	mm.mu.Lock()
	delete(mm.offers, name)
	delete(mm.claimed, name)
	mm.mu.Unlock()
}

// Machines returns the advertised machine names, sorted.
func (mm *Matchmaker) Machines() []string {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	out := make([]string, 0, len(mm.offers))
	for n := range mm.offers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Negotiate finds the best unclaimed machine mutually matching the job
// ad and marks it claimed. It returns the machine name, or an error
// when no compatible machine is available.
func (mm *Matchmaker) Negotiate(jobAd *classad.Ad) (string, error) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	names := make([]string, 0, len(mm.offers))
	for n := range mm.offers {
		if !mm.claimed[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names) // deterministic tie-break
	ads := make([]*classad.Ad, len(names))
	for i, n := range names {
		ads[i] = mm.offers[n]
	}
	best := classad.MatchBest(jobAd, ads)
	if best < 0 {
		mm.fails++
		mm.tracer.Step("matchmaker", "negotiate", "no-match")
		return "", fmt.Errorf("condor: no machine matches job %s", jobAd.EvalString("JobId", nil))
	}
	name := names[best]
	mm.claimed[name] = true
	mm.matches++
	if mm.tracer != nil {
		mm.tracer.Step("matchmaker", "negotiate", "match="+name)
	}
	return name, nil
}

// NegotiateN claims n distinct machines for an MPI job, all matching
// the job ad. On failure nothing stays claimed.
func (mm *Matchmaker) NegotiateN(jobAd *classad.Ad, n int) ([]string, error) {
	var got []string
	for i := 0; i < n; i++ {
		name, err := mm.Negotiate(jobAd)
		if err != nil {
			for _, g := range got {
				mm.Release(g)
			}
			return nil, fmt.Errorf("condor: needed %d machines, found %d: %w", n, len(got), err)
		}
		got = append(got, name)
	}
	return got, nil
}

// Release returns a machine to the unclaimed pool.
func (mm *Matchmaker) Release(name string) {
	mm.mu.Lock()
	delete(mm.claimed, name)
	mm.mu.Unlock()
	mm.tracer.Step("matchmaker", "release", name)
}

// Claimed reports whether the machine is currently claimed.
func (mm *Matchmaker) Claimed(name string) bool {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.claimed[name]
}

// Stats reports successful matches and failed negotiations.
func (mm *Matchmaker) Stats() (matches, fails int) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.matches, mm.fails
}

// FreeMachines reports how many advertised machines are currently
// unclaimed — the capacity signal a Grid broker uses to place jobs.
func (mm *Matchmaker) FreeMachines() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	n := 0
	for name := range mm.offers {
		if !mm.claimed[name] {
			n++
		}
	}
	return n
}
