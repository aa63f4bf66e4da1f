package htm

import (
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// RedoLog is one core's Mnemosyne-style software redo log (Volos, Tack &
// Swift, ASPLOS 2011), the one redo sequence of SO, sdTM's commit and the
// software fallback (Runtime.PersistRedo).
type RedoLog struct {
	env  *txn.Env
	core int
	// persistAt is when the transaction's last redo record is durable.
	persistAt uint64
}

// NewRedoLog returns core's redo log over env.
func NewRedoLog(env *txn.Env, core int) *RedoLog { return &RedoLog{env: env, core: core} }

// Record appends a redo record of each line for transaction txid, all
// stamped at the batch's start cycle; the core pays FlushIssueLatency to
// issue each. A record that does not fit is dropped.
func (r *RedoLog) Record(c txn.Clock, txid uint64, lines ...uint64) {
	log, at := r.env.Registry.Log(r.core), c.Now()
	for _, la := range lines {
		rec := &wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: la, Data: r.env.Hier.LineSnapshot(r.core, la)}
		if done, err := log.Append(rec, at); err == nil {
			r.persistAt = max(r.persistAt, done)
		}
		c.Advance(r.env.Cfg.FlushIssueLatency)
	}
}

// Commit waits for txid's redo records to be durable, fences and persists
// the commit record. The caller ends the log transaction.
func (r *RedoLog) Commit(c txn.Clock, txid uint64) {
	c.AdvanceTo(r.persistAt)
	c.Advance(r.env.Cfg.FenceLatency)
	if done, err := r.env.Registry.Log(r.core).Append(&wal.Record{Type: wal.RecCommit, TxID: txid}, c.Now()); err == nil {
		c.AdvanceTo(done)
	}
	r.persistAt = 0
}

// PersistRedo is the Hooks.Persist of a fallback that logs in software: the
// redo records and commit record of every dirty line, then in-place flushes,
// each paying FlushIssueLatency, so the log can be truncated, and the
// complete record.
func (rt *Runtime) PersistRedo(core int, c txn.Clock, txid uint64, dirty *LineSet) {
	r := RedoLog{env: rt.Env, core: core}
	r.Record(c, txid, dirty.Keys()...)
	r.Commit(c, txid)
	flushed := c.Now()
	for _, la := range dirty.Keys() {
		flushed = max(flushed, rt.H.FlushLine(core, la, c.Now()))
		c.Advance(rt.Cfg.FlushIssueLatency)
	}
	c.AdvanceTo(flushed)
	log := rt.Env.Registry.Log(core)
	if done, err := log.Append(&wal.Record{Type: wal.RecComplete, TxID: txid}, c.Now()); err == nil {
		c.AdvanceTo(done)
	}
	log.EndTx(txid)
}
