package baselines

import (
	"dhtm/internal/htm"
	"dhtm/internal/memdev"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// ATOM is the state-of-the-art hardware-durability baseline the paper
// compares against [20]: locks provide atomic visibility (same concurrency
// control as SO) while atomic durability comes from hardware undo logging —
// the cache controller writes an undo record with the pre-transaction value
// of every line the transaction modifies, off the critical path. The price of
// undo logging is paid at commit: every dirty line must be persisted in place
// (after the undo records are durable) before the locks can be released.
type ATOM struct {
	*lockBase
	// preImage, when non-nil, replaces the coherent snapshot as the source
	// of undo pre-images. It exists only for the StaleUndoATOM test fixture.
	preImage func(core int, la uint64) memdev.Line
}

// NewATOM builds the ATOM runtime (the hierarchy keeps its NopArbiter).
func NewATOM(env *txn.Env) *ATOM {
	return &ATOM{lockBase: newLockBase(env)}
}

// Name implements txn.Runtime.
func (a *ATOM) Name() string { return "ATOM" }

// Run implements txn.Runtime.
func (a *ATOM) Run(core int, c txn.Clock, t *txn.Transaction) txn.ExecResult {
	res := txn.ExecResult{Start: c.Now()}
	log := a.env.Registry.Log(core)
	txid := log.BeginTx()

	held := a.acquire(core, c, t)

	var undoPersistAt uint64
	ltx := &lockedTx{b: a.lockBase, core: core, clock: c,
		dirty: htm.NewLineSet(32), read: htm.NewLineSet(32)}
	ltx.onWrite = func(la uint64, first bool, _, _ uint64) {
		if !first {
			return
		}
		// Hardware undo logging: the old value is captured and streamed to
		// the durable log by the cache controller; only bandwidth is
		// consumed, the core does not stall.
		img := a.h.LineSnapshot
		if a.preImage != nil {
			img = a.preImage
		}
		rec := &wal.Record{Type: wal.RecUndo, TxID: txid, LineAddr: la, Data: img(core, la)}
		if done, err := log.Append(rec, c.Now()); err == nil {
			a.env.Stats.LogRecords++
			if done > undoPersistAt {
				undoPersistAt = done
			}
		}
	}

	_, _, _ = txn.Attempt(t.Body, ltx)

	// Commit: the undo log must be durable, then every modified line is
	// persisted in place; only after that can the commit record be written
	// and the locks released (write-ahead ordering for undo logging).
	c.AdvanceTo(undoPersistAt)
	done := c.Now()
	for _, la := range ltx.dirty.Keys() {
		if d := a.h.FlushLine(core, la, c.Now()); d > done {
			done = d
		}
	}
	c.AdvanceTo(done)
	if d, err := log.Append(&wal.Record{Type: wal.RecCommit, TxID: txid}, c.Now()); err == nil {
		c.AdvanceTo(d)
	}
	if d, err := log.Append(&wal.Record{Type: wal.RecComplete, TxID: txid}, c.Now()); err == nil {
		c.AdvanceTo(d)
	}
	a.release(core, c, held)
	log.EndTx(txid)

	a.finish(core, c, &res, ltx.dirty.Len(), ltx.read.Len())
	return res
}

// Finish implements txn.Runtime.
func (a *ATOM) Finish(core int, c txn.Clock) {
	a.env.Stats.Core(core).FinalCycle = c.Now()
}
