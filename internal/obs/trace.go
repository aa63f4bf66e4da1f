package obs

import "time"

// Phase indexes one stage of a simulation cell's execution. The phases map
// the README's data flow: clone the post-setup snapshot, (on a cache miss)
// run workload Setup, drive the measured run, and verify invariants (crash
// tests).
type Phase uint8

const (
	// PhaseClone is copy-on-write cloning of the post-setup snapshot image
	// plus environment construction on the clone.
	PhaseClone Phase = iota
	// PhaseSetup is snapshot-cache resolution — effectively zero on a hit,
	// the workload's full Setup on a miss.
	PhaseSetup
	// PhaseRun is the measured simulation itself.
	PhaseRun
	// PhaseVerify is workload invariant verification (crash-test oracles).
	PhaseVerify

	// NumPhases bounds the phase index space.
	NumPhases
)

var phaseNames = [NumPhases]string{"clone", "setup", "run", "verify"}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// CellTrace accumulates one cell's per-phase wall-clock breakdown. It is a
// fixed array — building one is a single small allocation and recording a
// phase is one add — and is written by the one goroutine executing the cell,
// then read after completion (the runner's progress callback), so it needs
// no internal locking.
type CellTrace struct {
	ns [NumPhases]int64
}

// Add accumulates d into phase p.
func (t *CellTrace) Add(p Phase, d time.Duration) {
	if t == nil || p >= NumPhases {
		return
	}
	t.ns[p] += int64(d)
}

// Get returns the accumulated duration of phase p.
func (t *CellTrace) Get(p Phase) time.Duration {
	if t == nil || p >= NumPhases {
		return 0
	}
	return time.Duration(t.ns[p])
}

// Each calls f for every phase with a non-zero duration, in execution order.
func (t *CellTrace) Each(f func(Phase, time.Duration)) {
	if t == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		if t.ns[p] != 0 {
			f(p, time.Duration(t.ns[p]))
		}
	}
}

// PhaseHistograms is a pre-resolved handle set for the per-cell phase
// histogram family, so observing a completed trace is label-lookup-free.
type PhaseHistograms struct {
	h [NumPhases]*Histogram
}

// CellPhaseHistograms resolves the dhtm_cell_phase_seconds family in r.
func CellPhaseHistograms(r *Registry) *PhaseHistograms {
	ph := &PhaseHistograms{}
	for p := Phase(0); p < NumPhases; p++ {
		ph.h[p] = r.Histogram("dhtm_cell_phase_seconds",
			"Per-cell execution phase durations in seconds (clone, setup, run, verify).",
			DurationBuckets, L("phase", p.String()))
	}
	return ph
}

// Observe records a phase duration directly.
func (ph *PhaseHistograms) Observe(p Phase, d time.Duration) {
	if p < NumPhases {
		ph.h[p].Observe(d.Seconds())
	}
}

// ObserveTrace folds a completed cell trace into the histograms.
func (ph *PhaseHistograms) ObserveTrace(t *CellTrace) {
	t.Each(func(p Phase, d time.Duration) { ph.h[p].Observe(d.Seconds()) })
}
