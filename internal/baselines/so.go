package baselines

import (
	"dhtm/internal/htm"
	"dhtm/internal/txn"
)

// SO is the software-only baseline: locks provide atomic visibility and a
// Mnemosyne-style software redo log provides atomic durability. Log entries
// are created by the program for every modified line and flushed
// synchronously as soon as their values are finalised (here: as soon as the
// transaction moves on to writing a different cache line), so execution pays
// a per-entry construction-and-flush cost and commit pays a drain (fence)
// plus the durable commit record.
type SO struct {
	*lockBase
}

// NewSO builds the SO runtime (the hierarchy keeps its NopArbiter).
func NewSO(env *txn.Env) *SO {
	return &SO{lockBase: newLockBase(env)}
}

// Name implements txn.Runtime.
func (s *SO) Name() string { return "SO" }

// Run implements txn.Runtime.
func (s *SO) Run(core int, c txn.Clock, t *txn.Transaction) txn.ExecResult {
	res := txn.ExecResult{Start: c.Now()}
	log := s.env.Registry.Log(core)
	txid := log.BeginTx()

	held := s.acquire(core, c, t)

	redo := htm.NewRedoLog(s.env, core)
	pending := uint64(0)
	havePending := false
	ptx := s.txs[core]
	ptx.Begin(c, func(la uint64, _ bool) {
		// Composing the word-granular log entry (address + value into the
		// write-combining buffer) is program work on every store.
		c.Advance(s.cfg.SoftLogStoreLatency)
		// Software log coalescing: keep buffering entries for the line being
		// written; once the program writes a different line, the previous
		// line's entry is final and is flushed to the log.
		if havePending && pending != la {
			redo.Record(c, txid, pending)
		}
		pending = la
		havePending = true
	})

	// Lock-based designs cannot abort: the body runs exactly once. An
	// explicit error simply means the transaction made no semantic change.
	_, _, _ = txn.Attempt(t.Body, ptx)

	// Commit: flush the last pending entry, drain all log writes (sfence),
	// persist the commit record, then publish by releasing the locks.
	if havePending {
		redo.Record(c, txid, pending)
	}
	redo.Commit(c, txid)
	s.release(core, c, held)
	// In-place data reaches persistent memory lazily (deferred, amortised log
	// truncation); the log regions are sized so truncation pressure never
	// appears inside the measured window.
	log.EndTx(txid)

	s.finish(core, c, &res, ptx)
	return res
}
