package baselines

import (
	"dhtm/internal/memdev"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// undoLog is one core's hardware undo log: the one undo-logging sequence of
// ATOM and of LogTM-ATOM's hardware transactions and fallback. The first
// store to each line appends an undo record with the line's old value
// (record); commit waits for those records to be durable, persists every
// written line in place, appends the commit and then the complete record,
// and only then releases the write set. Releasing it earlier would let
// another core consume and commit over a value that a crash before the
// commit record rolls back.
type undoLog struct {
	env  *txn.Env
	core int
	// persistAt is when the transaction's last undo record is durable;
	// records counts them.
	persistAt uint64
	records   int
}

// record appends the undo record of line la with its old value pre. The
// cache controller streams it to the log off the critical path.
func (u *undoLog) record(txid, la uint64, pre memdev.Line, at uint64) error {
	rec := &wal.Record{Type: wal.RecUndo, TxID: txid, LineAddr: la, Data: pre}
	done, err := u.env.Registry.Log(u.core).Append(rec, at)
	if err != nil {
		return err
	}
	u.env.Stats.LogRecords++
	u.records++
	u.persistAt = max(u.persistAt, done)
	return nil
}

// commit makes transaction txid, which wrote lines, durable, runs release
// (if any) to give up the write set, and ends the log transaction.
func (u *undoLog) commit(c txn.Clock, txid uint64, lines []uint64, release func()) {
	h, log := u.env.Hier, u.env.Registry.Log(u.core)
	c.AdvanceTo(u.persistAt)
	done := c.Now()
	for _, la := range lines {
		done = max(done, h.FlushLine(u.core, la, c.Now()))
	}
	c.AdvanceTo(done)
	for _, t := range []wal.RecordType{wal.RecCommit, wal.RecComplete} {
		if d, err := log.Append(&wal.Record{Type: t, TxID: txid}, c.Now()); err == nil {
			c.AdvanceTo(d)
		}
	}
	if release != nil {
		release()
	}
	log.EndTx(txid)
	u.reset()
}

// reset forgets the transaction's undo records.
func (u *undoLog) reset() { u.persistAt, u.records = 0, 0 }
