package baselines

import (
	"dhtm/internal/txn"
	"dhtm/internal/wal"
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

	var persistAt uint64
	pending := uint64(0)
	havePending := false
	emit := func(la uint64) {
		rec := &wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: la, Data: s.h.LineSnapshot(core, la)}
		if done, err := log.Append(rec, c.Now()); err == nil {
			s.env.Stats.LogRecords++
			if done > persistAt {
				persistAt = done
			}
		}
		// Constructing and issuing the flush for the entry is program work.
		c.Advance(s.cfg.FlushIssueLatency)
	}

	ptx := s.txs[core]
	ptx.Begin(c, func(la uint64, _ bool) {
		// Composing the word-granular log entry (address + value into the
		// write-combining buffer) is program work on every store.
		c.Advance(s.cfg.SoftLogStoreLatency)
		// Software log coalescing: keep buffering entries for the line being
		// written; once the program writes a different line, the previous
		// line's entry is final and is flushed to the log.
		if havePending && pending != la {
			emit(pending)
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
		emit(pending)
	}
	c.AdvanceTo(persistAt)
	c.Advance(s.cfg.FenceLatency)
	if done, err := log.Append(&wal.Record{Type: wal.RecCommit, TxID: txid}, c.Now()); err == nil {
		c.AdvanceTo(done)
	}
	s.release(core, c, held)
	// In-place data reaches persistent memory lazily (deferred, amortised log
	// truncation); the log regions are sized so truncation pressure never
	// appears inside the measured window.
	log.EndTx(txid)

	s.finish(core, c, &res, ptx)
	return res
}

// Finish implements txn.Runtime.
func (s *SO) Finish(core int, c txn.Clock) {
	s.env.Stats.Core(core).FinalCycle = c.Now()
}
