// Package dhtm is the public API of the DHTM reproduction: a library for
// building a simulated multicore machine with byte-addressable persistent
// memory, running ACID transactions on it under one of the evaluated designs
// (DHTM and the paper's baselines), injecting crashes, and recovering.
//
// The typical flow is:
//
//	sys, _ := dhtm.NewSystem(dhtm.Config{})          // 8-core machine, DHTM design
//	heap := sys.Heap()                                // allocate persistent data
//	addr := heap.AllocLines(1)
//	sys.RunSingle(0, dhtm.Tx(func(tx dhtm.TxView) error {
//	    tx.Write(addr, 42)
//	    return nil
//	}))
//	sys.Crash()                                       // drop all volatile state
//	report, _ := sys.Recover()                        // replay the durable log
//
// For multi-core workloads, Execute runs a fixed number of transactions per
// core under the deterministic scheduler; the workloads and experiments of
// the paper's evaluation are exposed through internal/harness and the
// dhtm-bench command.
package dhtm

import (
	"fmt"

	"dhtm/internal/engine"
	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/recovery"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
	"dhtm/internal/stats"
	"dhtm/internal/txn"
)

// Design selects the transactional-memory design a System runs.
type Design string

// The evaluated designs (§V of the paper). The names are re-exported from
// internal/registry — the one catalog NewSystem, the harness and the CLIs
// all resolve against — so the public set cannot drift from what
// the rest of the tree runs.
const (
	DHTM        Design = registry.DesignDHTM
	DHTMInstant Design = registry.DesignDHTMInstant
	DHTML1      Design = registry.DesignDHTML1
	DHTMNoBuf   Design = registry.DesignDHTMNoBuf
	SO          Design = registry.DesignSO
	SdTM        Design = registry.DesignSdTM
	ATOM        Design = registry.DesignATOM
	LogTMATOM   Design = registry.DesignLogTMATOM
	NP          Design = registry.DesignNP
)

// Designs lists every design NewSystem accepts, in the order of the paper.
func Designs() []Design {
	names := registry.DesignNames()
	out := make([]Design, len(names))
	for i, n := range names {
		out[i] = Design(n)
	}
	return out
}

// DesignCatalog describes one runnable design: its name, a one-line
// description, classification tags and whether the crash-point explorer
// supports it. It mirrors the registry entry of the design.
type DesignCatalog struct {
	Name        Design
	Description string
	Tags        []string
	CrashSafe   bool
}

// Catalog returns the self-describing design catalog.
func Catalog() []DesignCatalog {
	ds := registry.Designs()
	out := make([]DesignCatalog, len(ds))
	for i, d := range ds {
		out[i] = DesignCatalog{
			Name:        Design(d.Name),
			Description: d.Description,
			Tags:        d.Tags,
			CrashSafe:   d.CrashSafe,
		}
	}
	return out
}

// Config selects the machine and design parameters. The zero value gives the
// paper's Table III machine running the DHTM design.
type Config struct {
	// Design is the transactional design to instantiate (default DHTM).
	Design Design
	// Cores overrides the number of simulated cores (default 8).
	Cores int
}

// TxView is the interface transaction bodies use to read and write persistent
// memory (8-byte words at 8-byte-aligned addresses).
type TxView = txn.Tx

// Body is a transaction body. Returning a non-nil error requests an abort.
type Body = func(tx TxView) error

// Tx wraps a body into a Transaction with no lock annotations (sufficient for
// the HTM designs; lock-based designs serialise such transactions on a single
// global lock ID).
func Tx(body Body) *txn.Transaction {
	return &txn.Transaction{Body: body, LockIDs: []uint64{0}}
}

// Transaction re-exports the full transaction type for callers that want to
// declare lock sets for the lock-based designs.
type Transaction = txn.Transaction

// Stats re-exports the statistics type.
type Stats = stats.Stats

// RecoveryReport re-exports the recovery manager's report.
type RecoveryReport = recovery.Report

// System is one simulated machine plus the selected design's runtime.
type System struct {
	env     *txn.Env
	runtime txn.Runtime
	design  Design
	heap    *palloc.Heap
}

// NewSystem builds a simulated machine according to cfg.
func NewSystem(cfg Config) (*System, error) {
	hw, err := runner.Cell{Cores: cfg.Cores}.Config()
	if err != nil {
		return nil, fmt.Errorf("dhtm: %w", err)
	}
	env, err := txn.NewEnv(hw)
	if err != nil {
		return nil, err
	}
	design := cfg.Design
	if design == "" {
		design = DHTM
	}
	rt, err := registry.NewRuntime(env, string(design))
	if err != nil {
		return nil, fmt.Errorf("dhtm: %w", err)
	}
	return &System{env: env, runtime: rt, design: design, heap: palloc.New(env.Store())}, nil
}

// Design returns the design the system runs.
func (s *System) Design() Design { return s.design }

// Cores returns the number of simulated cores.
func (s *System) Cores() int { return s.env.Cfg.NumCores }

// Heap returns the persistent-heap allocator for laying out application data.
func (s *System) Heap() *palloc.Heap { return s.heap }

// Stats returns the system's accumulated statistics.
func (s *System) Stats() *Stats { return s.env.Stats }

// Store returns the durable persistent-memory image (reads of it see exactly
// what would survive a crash right now).
func (s *System) Store() *memdev.Store { return s.env.Ctl.Store() }

// Env exposes the underlying environment for advanced integrations (the
// harness and the examples use it to drive workloads directly).
func (s *System) Env() *txn.Env { return s.env }

// Runtime exposes the underlying design runtime.
func (s *System) Runtime() txn.Runtime { return s.runtime }

// Execute runs one workload function per core under the deterministic
// scheduler. Each function receives its core index and a Run helper that
// executes transactions on that core; transactions on different cores
// interleave according to the timing model.
func (s *System) Execute(perCore func(core int, run func(*Transaction) bool)) {
	eng := engine.New(s.env.Cfg.NumCores)
	eng.Run(func(c int, clk *engine.Clock) {
		perCore(c, func(t *Transaction) bool {
			return s.runtime.Run(c, clk, t).Committed
		})
		s.runtime.Finish(c, clk)
	})
}

// ExecuteWithoutCompletion is Execute without the final per-core completion
// drain: when it returns, the last transaction of each core has reached its
// commit point (it is durable in the redo log) but its in-place write-backs
// may still be pending — exactly the window in which a crash forces the
// recovery manager to replay the log. Crash-recovery tests and the examples
// use it to exercise that path.
func (s *System) ExecuteWithoutCompletion(perCore func(core int, run func(*Transaction) bool)) {
	eng := engine.New(s.env.Cfg.NumCores)
	eng.Run(func(c int, clk *engine.Clock) {
		perCore(c, func(t *Transaction) bool {
			return s.runtime.Run(c, clk, t).Committed
		})
		s.env.Stats.Core(c).FinalCycle = clk.Now()
	})
}

// RunSingle executes one transaction on the given core (convenience for
// examples and tests that do not need concurrency). It reports whether the
// transaction committed.
func (s *System) RunSingle(core int, t *Transaction) bool {
	committed := false
	eng := engine.New(s.env.Cfg.NumCores)
	eng.Run(func(c int, clk *engine.Clock) {
		if c != core {
			return
		}
		committed = s.runtime.Run(c, clk, t).Committed
		s.runtime.Finish(c, clk)
	})
	return committed
}

// Drain writes all dirty cached data back to persistent memory (an orderly
// shutdown, as opposed to Crash).
func (s *System) Drain() { s.env.Hier.DrainClean() }

// Crash discards every piece of volatile state — private caches, the LLC and
// any in-flight buffering — leaving only what had already reached persistent
// memory (including the durable transaction logs).
func (s *System) Crash() { s.env.Hier.Crash() }

// Recover runs the OS recovery manager over the persistent-memory image:
// committed-but-incomplete transactions are replayed from their redo logs,
// uncommitted undo-logged transactions are rolled back, and the logs are
// truncated. It is what a restart after Crash performs.
func (s *System) Recover() (*RecoveryReport, error) {
	return recovery.Recover(s.env.Ctl.Store())
}

// ReadWord reads a word from the durable image (post-crash or post-drain
// inspection helper).
func (s *System) ReadWord(addr uint64) uint64 { return s.env.Ctl.Store().ReadWord(addr) }
