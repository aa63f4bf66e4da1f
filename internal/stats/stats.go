// Package stats collects the counters reported by the evaluation: committed
// and aborted transactions, cycles, memory traffic broken down by cause, and
// cache hit rates. Each simulated system owns its own Stats value; within a
// system it is written only from the simulation goroutine that currently
// holds the scheduling token, so it needs no internal locking. Independent
// systems (for example the cells of a parallel experiment sweep) each carry
// their own Stats; Snapshot decouples a result from its system and Merge
// folds several systems' counters into an aggregate.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// AbortReason classifies why a transaction aborted.
type AbortReason int

const (
	// AbortConflict is a data conflict detected through coherence.
	AbortConflict AbortReason = iota
	// AbortWriteCapacity is a write-set overflow from the L1 on a design that
	// cannot tolerate it (RTM-like baselines).
	AbortWriteCapacity
	// AbortLLCCapacity is a write-set overflow from the LLC (DHTM's limit).
	AbortLLCCapacity
	// AbortLogOverflow means the durable transaction log ran out of space.
	AbortLogOverflow
	// AbortExplicit is a programmatic abort requested by the transaction body.
	AbortExplicit
	// AbortFallback counts transactions that gave up on the hardware path and
	// were executed under the software fallback.
	AbortFallback
	numAbortReasons
)

// String implements fmt.Stringer.
func (r AbortReason) String() string {
	switch r {
	case AbortConflict:
		return "conflict"
	case AbortWriteCapacity:
		return "l1-capacity"
	case AbortLLCCapacity:
		return "llc-capacity"
	case AbortLogOverflow:
		return "log-overflow"
	case AbortExplicit:
		return "explicit"
	case AbortFallback:
		return "fallback"
	default:
		return fmt.Sprintf("AbortReason(%d)", int(r))
	}
}

// CoreStats are the per-core counters. The json tags fix their
// machine-readable encoding, which the RunResult golden file pins.
type CoreStats struct {
	Commits        uint64                  `json:"commits"`
	Aborts         uint64                  `json:"aborts"`
	AbortsByReason [numAbortReasons]uint64 `json:"aborts_by_reason"`
	Fallbacks      uint64                  `json:"fallbacks"`

	TxCycles      uint64 `json:"tx_cycles"`       // cycles spent inside transactions (begin to commit point)
	StallCycles   uint64 `json:"stall_cycles"`    // cycles spent waiting to begin (completion, lock waits, backoff)
	FinalCycle    uint64 `json:"final_cycle"`     // core-local clock at the end of the run
	WriteSetLines uint64 `json:"write_set_lines"` // sum of distinct dirty lines over committed transactions
	ReadSetLines  uint64 `json:"read_set_lines"`

	L1Hits    uint64 `json:"l1_hits"`
	L1Misses  uint64 `json:"l1_misses"`
	LLCHits   uint64 `json:"llc_hits"`
	LLCMisses uint64 `json:"llc_misses"`
}

// Stats aggregates counters for a simulated system.
type Stats struct {
	Cores []CoreStats `json:"cores"`

	// Memory traffic in bytes, by cause.
	LogBytes       uint64 `json:"log_bytes"`        // log records of every type, overflow-list entries and charged log metadata
	DataWriteBytes uint64 `json:"data_write_bytes"` // in-place data writes to NVM
	DataReadBytes  uint64 `json:"data_read_bytes"`  // line fills and overflow-list read-backs from NVM

	// LogRecords counts the records appended to the durable thread logs,
	// of every type (redo, undo, commit, complete, abort, sentinel), on
	// every path a design commits or aborts through. A record refused
	// because the log was full is not counted.
	LogRecords uint64 `json:"log_records"`
	// SentinelRecords counts the sentinel records among LogRecords: DHTM's
	// replay dependencies on committed-but-incomplete transactions.
	SentinelRecords uint64 `json:"sentinel_records"`
	OverflowedLines uint64 `json:"overflowed_lines"` // write-set lines that overflowed L1 -> LLC
}

// New returns a Stats sized for n cores.
func New(n int) *Stats {
	return &Stats{Cores: make([]CoreStats, n)}
}

// Core returns the per-core counters for core i.
func (s *Stats) Core(i int) *CoreStats { return &s.Cores[i] }

// RecordCommit counts one committed transaction: its write- and read-set
// sizes in distinct lines and the cycles from its start to its commit.
func (c *CoreStats) RecordCommit(writeLines, readLines int, cycles uint64) {
	c.Commits++
	c.WriteSetLines += uint64(writeLines)
	c.ReadSetLines += uint64(readLines)
	c.TxCycles += cycles
}

// Snapshot returns a deep copy of the counters. The copy shares no memory
// with s, so it stays valid after the simulated system that produced s is
// discarded and can be read while another run reuses the original.
func (s *Stats) Snapshot() *Stats {
	c := *s
	c.Cores = append([]CoreStats(nil), s.Cores...)
	return &c
}

// Merge folds other's counters into s, summing every additive counter
// element-wise per core (growing s.Cores if other has more cores) and taking
// the maximum of the per-core final clocks, so a merged Stats reads as one
// system whose cores ran the union of the work concurrently. Merge is
// commutative and associative up to core-slice length, which keeps parallel
// sweep aggregation order-independent.
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	for len(s.Cores) < len(other.Cores) {
		s.Cores = append(s.Cores, CoreStats{})
	}
	for i := range other.Cores {
		a, b := &s.Cores[i], &other.Cores[i]
		a.Commits += b.Commits
		a.Aborts += b.Aborts
		for r := range a.AbortsByReason {
			a.AbortsByReason[r] += b.AbortsByReason[r]
		}
		a.Fallbacks += b.Fallbacks
		a.TxCycles += b.TxCycles
		a.StallCycles += b.StallCycles
		if b.FinalCycle > a.FinalCycle {
			a.FinalCycle = b.FinalCycle
		}
		a.WriteSetLines += b.WriteSetLines
		a.ReadSetLines += b.ReadSetLines
		a.L1Hits += b.L1Hits
		a.L1Misses += b.L1Misses
		a.LLCHits += b.LLCHits
		a.LLCMisses += b.LLCMisses
	}
	s.LogBytes += other.LogBytes
	s.DataWriteBytes += other.DataWriteBytes
	s.DataReadBytes += other.DataReadBytes
	s.LogRecords += other.LogRecords
	s.SentinelRecords += other.SentinelRecords
	s.OverflowedLines += other.OverflowedLines
}

// TotalCommits sums committed transactions across cores.
func (s *Stats) TotalCommits() uint64 {
	var t uint64
	for i := range s.Cores {
		t += s.Cores[i].Commits
	}
	return t
}

// TotalAborts sums aborted transaction attempts across cores.
func (s *Stats) TotalAborts() uint64 {
	var t uint64
	for i := range s.Cores {
		t += s.Cores[i].Aborts
	}
	return t
}

// AbortsFor sums aborts with the given reason across cores.
func (s *Stats) AbortsFor(r AbortReason) uint64 {
	var t uint64
	for i := range s.Cores {
		t += s.Cores[i].AbortsByReason[r]
	}
	return t
}

// AbortRate returns aborted attempts as a fraction of all attempts
// (aborts / (commits + aborts)), the metric of Table V.
func (s *Stats) AbortRate() float64 {
	c, a := float64(s.TotalCommits()), float64(s.TotalAborts())
	if c+a == 0 {
		return 0
	}
	return a / (c + a)
}

// TotalCycles returns the maximum core-local final clock, i.e. the makespan.
func (s *Stats) TotalCycles() uint64 {
	var m uint64
	for i := range s.Cores {
		if s.Cores[i].FinalCycle > m {
			m = s.Cores[i].FinalCycle
		}
	}
	return m
}

// Throughput returns committed transactions per million cycles.
func (s *Stats) Throughput() float64 {
	cyc := s.TotalCycles()
	if cyc == 0 {
		return 0
	}
	return float64(s.TotalCommits()) / float64(cyc) * 1e6
}

// MeanWriteSetLines returns the average number of distinct dirty cache lines
// per committed transaction (Table IV's metric).
func (s *Stats) MeanWriteSetLines() float64 {
	var lines, commits uint64
	for i := range s.Cores {
		lines += s.Cores[i].WriteSetLines
		commits += s.Cores[i].Commits
	}
	if commits == 0 {
		return 0
	}
	return float64(lines) / float64(commits)
}

// MeanReadSetLines returns the average number of distinct read lines per
// committed transaction.
func (s *Stats) MeanReadSetLines() float64 {
	var lines, commits uint64
	for i := range s.Cores {
		lines += s.Cores[i].ReadSetLines
		commits += s.Cores[i].Commits
	}
	if commits == 0 {
		return 0
	}
	return float64(lines) / float64(commits)
}

// L1HitRate returns the aggregate L1 hit rate across cores.
func (s *Stats) L1HitRate() float64 {
	var h, m uint64
	for i := range s.Cores {
		h += s.Cores[i].L1Hits
		m += s.Cores[i].L1Misses
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Summary renders a short human-readable report.
func (s *Stats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "commits=%d aborts=%d (rate %.1f%%) cycles=%d throughput=%.3f tx/Mcycle\n",
		s.TotalCommits(), s.TotalAborts(), s.AbortRate()*100, s.TotalCycles(), s.Throughput())
	fmt.Fprintf(&b, "write-set %.1f lines/tx, read-set %.1f lines/tx, L1 hit %.1f%%\n",
		s.MeanWriteSetLines(), s.MeanReadSetLines(), s.L1HitRate()*100)
	fmt.Fprintf(&b, "NVM traffic: log %d B, data-write %d B, data-read %d B, log records %d, overflowed lines %d\n",
		s.LogBytes, s.DataWriteBytes, s.DataReadBytes, s.LogRecords, s.OverflowedLines)
	reasons := make([]string, 0, int(numAbortReasons))
	for r := AbortReason(0); r < numAbortReasons; r++ {
		if n := s.AbortsFor(r); n > 0 {
			reasons = append(reasons, fmt.Sprintf("%s=%d", r, n))
		}
	}
	sort.Strings(reasons)
	if len(reasons) > 0 {
		fmt.Fprintf(&b, "aborts by reason: %s\n", strings.Join(reasons, " "))
	}
	return b.String()
}
