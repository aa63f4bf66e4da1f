package memdev

// This file models the controller's persist queue for crash-time analysis.
// The simulator applies durable writes to the Store eagerly (the functional
// image always reflects program order), but real NVM controllers buffer
// in-flight writes and may retire them out of order within a bounded window.
// PersistQueue captures which writes may still be in flight at any crash
// point, and an Adversary chooses which subsets of that window to apply when
// building a crash image. The crash-point explorer (internal/crashtest) is
// the consumer.
//
// Ordering contract. Two rules bound the reordering:
//
//  1. Window: at most Window non-barrier writes may be in flight at once —
//     when write k issues, every write before k-Window has retired.
//  2. Drains: a write whose TrafficClass drains (Drains) is a full persist
//     barrier. It issues only after every earlier write has retired, and it
//     retires before any later write issues — so a drain-class write is never
//     itself in flight alongside anything else.
//
// The drain classes are exactly the writes the designs order their recovery
// protocols around: commit/complete/abort markers and sentinels (a commit
// marker must not overtake the log records that justify it, in-place
// write-backs must not overtake their commit marker, a complete marker must
// not overtake the write-backs it certifies), and log metadata — head/tail
// pointers and overflow counts, which the hardware publishes with a fence so
// a record never becomes visible to recovery before its payload is durable.
// Everything else — record payload words, overflow-list entries and in-place
// data — may retire out of order within the window, which is precisely the
// freedom a relaxed persistency model grants and recovery must tolerate.

// Drains reports whether a durable write of this class acts as a full persist
// barrier in the modelled queue: it is never in flight together with any
// other write. See the package's persist-queue ordering contract above.
func (c TrafficClass) Drains() bool {
	switch c {
	case TrafficLogCommit, TrafficLogComplete, TrafficLogAbort,
		TrafficLogSentinel, TrafficLogMeta:
		return true
	}
	return false
}

// PersistQueue tracks the in-flight window of the modelled persist queue over
// a numbered durable-write sequence. Feed it every event in order: for event
// seq, WindowStart(seq, class) returns the first index that may still be in
// flight when seq issues — a crash at seq leaves any subset of
// [WindowStart, seq) unretired — and Observe(seq, class) then advances the
// queue past the event. A window of 0 models a strictly ordered queue: every
// crash is an exact prefix of the write sequence.
type PersistQueue struct {
	window  int
	barrier uint64 // first event not covered by the last drain
}

// NewPersistQueue returns a queue model with the given reordering window.
func NewPersistQueue(window int) *PersistQueue {
	if window < 0 {
		window = 0
	}
	return &PersistQueue{window: window}
}

// WindowStart returns the first event index that may still be in flight when
// event seq (of the given class) issues. Drain-class events always return
// seq: the barrier retires everything earlier before the drain issues.
func (q *PersistQueue) WindowStart(seq uint64, class TrafficClass) uint64 {
	if class.Drains() {
		return seq
	}
	start := q.barrier
	if w := uint64(q.window); seq > w && seq-w > start {
		start = seq - w
	}
	return start
}

// Observe advances the queue state past event seq.
func (q *PersistQueue) Observe(seq uint64, class TrafficClass) {
	if class.Drains() {
		q.barrier = seq + 1
	}
}

// Adversary chooses, for each crash point, which subsets of the in-flight
// window to apply to the crash image. Bit i of a mask corresponds to the i-th
// in-flight write (window start + i); a set bit means that write retired
// before power was lost. Implementations must be deterministic — the explorer
// records masks in its report and replays them from repro commands.
type Adversary interface {
	// Masks returns the subsets to explore for a crash at the given point
	// with n writes in flight. n is at most the queue window (and the
	// explorer bounds it at MaxAdversaryWindow, so masks fit one word).
	Masks(point uint64, n int) []uint64
}

// MaxAdversaryWindow bounds the reordering window so every in-flight subset
// is expressible as one 64-bit mask with headroom; practical windows are far
// smaller (exhaustive enumeration is 2^n masks per point).
const MaxAdversaryWindow = 16

// ExhaustiveAdversary enumerates every subset of the in-flight window: 2^n
// masks per crash point, in ascending mask order.
type ExhaustiveAdversary struct{}

// Masks implements Adversary.
func (ExhaustiveAdversary) Masks(_ uint64, n int) []uint64 {
	out := make([]uint64, 1<<n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// SampledAdversary explores a deterministic, seed-derived sample of the
// in-flight subsets: the empty and full subsets always (they bound the
// window's effect), then distinct masks drawn from a splitmix64 stream keyed
// by (Seed, point). When the whole space fits the budget it degenerates to
// exhaustive enumeration.
type SampledAdversary struct {
	Seed    uint64
	Samples int
}

// Masks implements Adversary.
func (a SampledAdversary) Masks(point uint64, n int) []uint64 {
	total := uint64(1) << n
	samples := a.Samples
	if samples <= 0 {
		samples = 1
	}
	if uint64(samples) >= total {
		return ExhaustiveAdversary{}.Masks(point, n)
	}
	out := make([]uint64, 0, samples)
	seen := make(map[uint64]bool, samples)
	add := func(m uint64) {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	add(total - 1) // full subset: the exact-prefix crash
	if len(out) < samples {
		add(0) // empty subset: the whole window lost
	}
	state := a.Seed ^ point*0x9e3779b97f4a7c15
	for len(out) < samples {
		state = mix64(state + 0x9e3779b97f4a7c15)
		add(state & (total - 1))
	}
	return out
}

// mix64 is the splitmix64 finalizer (a local copy: memdev sits below the
// runner package that exports the canonical one).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
