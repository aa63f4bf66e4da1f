// Package txn defines the design-independent transaction execution model: the
// Tx interface transaction bodies program against, the Transaction unit of
// work produced by workloads, the Runtime interface every evaluated design
// (SO, sdTM, ATOM, LogTM-ATOM, NP, DHTM) implements, and the shared
// environment handle that wires a design to the simulated hardware.
package txn

import (
	"fmt"

	"dhtm/internal/config"
	"dhtm/internal/hier"
	"dhtm/internal/memdev"
	"dhtm/internal/probe"
	"dhtm/internal/stats"
	"dhtm/internal/wal"
)

// Tx is the interface transaction bodies use to access persistent memory.
// Addresses are 8-byte-aligned byte addresses in the simulated persistent
// address space (allocated by palloc).
type Tx interface {
	// Read returns the 8-byte word at addr.
	Read(addr uint64) uint64
	// Write stores an 8-byte word at addr.
	Write(addr uint64, val uint64)
}

// Transaction is one unit of work generated by a workload.
type Transaction struct {
	// Body performs the transaction's reads and writes. It may be executed
	// several times if the design aborts and retries. Returning a non-nil
	// error requests an explicit (programmatic) abort.
	Body func(tx Tx) error
	// LockIDs are the abstract lock identifiers a lock-based design must
	// acquire before running Body (partition locks for the micro-benchmarks,
	// record locks for the OLTP workloads). The runtime sorts them, so any
	// order is acceptable.
	LockIDs []uint64
	// Label is used only for diagnostics.
	Label string
}

// ExecResult reports how one Transaction executed.
type ExecResult struct {
	Committed bool
	Aborts    int
	Start     uint64 // cycle at which execution first began
	End       uint64 // cycle at which the transaction reached its commit point
}

// Clock is the subset of the engine clock a runtime needs: the current cycle
// plus the ability to advance (which yields the scheduling token), and the
// park/wake pair spin loops use to sleep until the value they poll may have
// changed (the spin loop behind locks.SpinAcquire and locks.SpinWait is the
// one caller).
type Clock interface {
	Core() int
	Now() uint64
	Advance(delta uint64)
	AdvanceTo(cycle uint64)
	// Park sleeps until Wake in place of polling at next, next+period, ...
	// and returns the number of polls skipped (see engine.Clock.Park).
	Park(next, period uint64) uint64
	// Wake makes a parked core runnable again after the running core's
	// current operation; it implements hier.Waker.
	Wake(core int)
}

// Runtime is one evaluated design. Implementations live in internal/core
// (DHTM) and internal/baselines.
type Runtime interface {
	// Name identifies the design in reports ("DHTM", "SO", ...).
	Name() string
	// Run executes t on the given core, retrying after aborts, and returns
	// once the transaction has committed (durably, for the persistent
	// designs) or has been abandoned after exhausting retries and the
	// fallback path.
	Run(core int, c Clock, t *Transaction) ExecResult
	// Finish is called once per core at the end of a run so the design can
	// drain any background completion work into the core's clock.
	Finish(core int, c Clock)
}

// Env bundles the simulated hardware a design runs on.
type Env struct {
	Cfg      config.Config
	Hier     *hier.Hierarchy
	Ctl      *memdev.Controller
	Stats    *stats.Stats
	Registry *wal.Registry
	// Probe, when non-nil, is the cell's cycle-domain recorder; the workload
	// driver arms it on the engine so the machine's signals are sampled on
	// the probe grid. Nil (the default) records nothing and costs the engine
	// one scalar compare per Advance.
	Probe *probe.Recorder
}

// NewEnv builds a complete simulated machine (store, controller, hierarchy,
// per-thread durable logs) from a configuration.
func NewEnv(cfg config.Config) (*Env, error) {
	return NewEnvOn(cfg, memdev.NewStore())
}

// NewEnvOn builds the simulated machine on top of an existing persistent-
// memory image — typically a copy-on-write clone of a cached post-setup
// snapshot. The durable log registry layout is (re-)written to the store;
// those writes are deterministic and idempotent, so re-running them over a
// snapshot that already contains the layout leaves it byte-identical.
func NewEnvOn(cfg config.Config, store *memdev.Store) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := stats.New(cfg.NumCores)
	ctl := memdev.NewController(cfg, store, st)
	h := hier.New(cfg, ctl, st)
	reg := wal.NewRegistry(ctl, cfg.NumCores, cfg.LogBytesPerThread, cfg.OverflowEntriesPerThread)
	return &Env{Cfg: cfg, Hier: h, Ctl: ctl, Stats: st, Registry: reg}, nil
}

// Store returns the persistent-memory image underlying the environment.
func (e *Env) Store() *memdev.Store { return e.Ctl.Store() }

// Release returns the environment's pooled resources (the cache arrays) for
// reuse by later cells. The environment must not be used afterwards.
func (e *Env) Release() {
	if e.Hier != nil {
		e.Hier.Release()
	}
}

// abortSignal unwinds a transaction body when the hardware decides the
// transaction must abort (conflict lost, capacity overflow, log overflow).
type abortSignal struct {
	reason stats.AbortReason
}

// AbortNow unwinds the currently executing transaction body with the given
// hardware abort reason. It must only be called from within a Tx Read/Write
// implementation invoked by Attempt.
func AbortNow(reason stats.AbortReason) {
	panic(abortSignal{reason: reason})
}

// Attempt runs body against tx, translating hardware abort signals into a
// normal return. ok is true when the body ran to completion; otherwise reason
// carries the hardware abort cause. A non-nil err is the body's own
// (programmatic) abort request.
func Attempt(body func(Tx) error, tx Tx) (err error, ok bool, reason stats.AbortReason) {
	defer func() {
		if r := recover(); r != nil {
			if sig, isAbort := r.(abortSignal); isAbort {
				ok = false
				reason = sig.reason
				return
			}
			panic(r)
		}
	}()
	err = body(tx)
	return err, true, 0
}

// Backoff returns the exponential backoff delay before the n-th retry
// (n counted from 0), capped to keep pathological livelock cases bounded.
func Backoff(cfg config.Config, n int) uint64 {
	if n > 6 {
		n = 6
	}
	return cfg.BackoffBase << uint(n)
}

// DirectTx is a Tx that reads and writes the persistent store directly with
// no timing, caching or logging. It backs untimed setup phases and the
// software fallback path's verification helpers.
type DirectTx struct {
	Store *memdev.Store
}

// Read implements Tx.
func (d DirectTx) Read(addr uint64) uint64 { return d.Store.ReadWord(addr) }

// Write implements Tx.
func (d DirectTx) Write(addr uint64, val uint64) { d.Store.WriteWord(addr, val) }

// String implements fmt.Stringer for diagnostics.
func (t *Transaction) String() string {
	if t.Label != "" {
		return t.Label
	}
	return fmt.Sprintf("tx(locks=%d)", len(t.LockIDs))
}
