package baselines

import (
	"dhtm/internal/memdev"
	"dhtm/internal/txn"
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
	txid := a.env.Registry.Log(core).BeginTx()

	held := a.acquire(core, c, t)

	img := a.h.LineSnapshot
	if a.preImage != nil {
		img = a.preImage
	}
	u := &undoLog{env: a.env, core: core}
	ptx := a.txs[core]
	ptx.Begin(c, func(la uint64, first bool) {
		// Hardware undo logging: the cache controller captures the old
		// value on the first store to each line; a transaction under locks
		// cannot abort, so a record that does not fit is dropped.
		if first {
			_ = u.record(txid, la, img(core, la), c.Now())
		}
	})

	_, _, _ = txn.Attempt(t.Body, ptx)

	// Commit: the undo sequence persists the write set in place before the
	// commit record; the locks are released only after the complete record.
	u.commit(c, txid, ptx.Writes.Keys(), func() { a.release(core, c, held) })

	a.finish(core, c, &res, ptx)
	return res
}
