// Package workloads implements the benchmarks of the paper's evaluation
// (Table IV): the TATP and TPC-C online-transaction-processing workloads and
// six micro-benchmarks (queue, hash, sdg, sps, btree, rbtree) that perform
// atomic operations on persistent data structures. Each workload lays its
// data out in the simulated persistent heap, generates transactions as
// closures over the txn.Tx interface, declares the lock sets that the
// lock-based designs acquire, and can verify its structural invariants
// directly against a persistent-memory image (used by the crash-recovery
// tests).
package workloads

import (
	"math/rand"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
)

// Params configures a workload instance: the two values a run varies.
type Params struct {
	// OpsPerTx is the number of data-structure operations batched into one
	// ACID transaction; it is the knob that controls the write-set footprint
	// and defaults to a per-workload value chosen to land in the same regime
	// as Table IV.
	OpsPerTx int
	// Seed makes transaction generation deterministic.
	Seed int64
}

// Defaults fills an unset seed with the default one.
func (p Params) Defaults() Params {
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// The workload shapes every run shares. The micro-benchmark structures are
// sized so that one transaction operates on ~3 KB of data, as in the paper;
// the OLTP data sets are fixed in tatp.go and tpcc.go.
const (
	// partitions is the number of coarse-grained lock partitions used by the
	// lock-based designs on the micro-benchmarks (§V).
	partitions = 16
	// thinkCycles is the non-transactional work (operand generation, request
	// parsing) each core performs between transactions. DHTM's completion
	// phase overlaps with it; designs that persist data inside the commit
	// critical path cannot hide their write-backs behind it.
	thinkCycles = 10000
)

// Workload is one benchmark.
type Workload interface {
	// Name is the identifier used in reports ("queue", "tpcc", ...).
	Name() string
	// Setup allocates and initialises the workload's data structures in the
	// persistent heap (untimed, before the measured window).
	Setup(heap *palloc.Heap, p Params) error
	// Next generates the next transaction for the given core using the
	// supplied per-core random stream.
	Next(core int, rng *rand.Rand) *txn.Transaction
	// Verify checks the workload's structural invariants against a durable
	// memory image (after DrainClean or crash recovery).
	Verify(store *memdev.Store) error
}

// The exported constructors below are the only way to build a workload.
// Name-based lookup deliberately lives elsewhere: internal/registry is the
// single catalog mapping names (and descriptions and tags) to these
// constructors, so this package cannot drift from the listings the CLIs
// print.

// NewQueue builds the concurrent persistent queue micro-benchmark.
func NewQueue() Workload { return newQueue() }

// NewHash builds the persistent hash-table micro-benchmark.
func NewHash() Workload { return newHash() }

// NewSDG builds the graph-update micro-benchmark.
func NewSDG() Workload { return newSDG() }

// NewSPS builds the random-swaps micro-benchmark.
func NewSPS() Workload { return newSPS() }

// NewBTree builds the B-tree micro-benchmark.
func NewBTree() Workload { return newBTree() }

// NewRBTree builds the red-black-tree micro-benchmark.
func NewRBTree() Workload { return newRBTree() }

// NewTATP builds the TATP OLTP workload.
func NewTATP() Workload { return newTATP() }

// NewTPCC builds the TPC-C OLTP workload.
func NewTPCC() Workload { return newTPCC() }

// word returns the address of the i-th 8-byte word after base.
func word(base uint64, i int) uint64 { return base + uint64(i)*8 }

// line returns the address of the i-th cache line after base.
func line(base uint64, i int) uint64 { return base + uint64(i)*uint64(memdev.LineBytes) }
