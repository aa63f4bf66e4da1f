package baselines

import (
	"dhtm/internal/htm"
	"dhtm/internal/stats"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// LogTMATOM combines a LogTM-like HTM (eager version management, write-set
// overflow from the L1 permitted via sticky directory state) with ATOM's
// hardware undo logging for atomic durability. The paper introduces this
// combination as a previously unstudied design point. Its defining cost is
// that, with undo logging, the whole write set must be persisted in place in
// the commit critical path before the transaction can complete; its aborts
// also pay for walking the undo log.
type LogTMATOM struct {
	*htmBase
	// undoPersistAt tracks, per core, when the last undo record becomes
	// durable (commit must wait for it before writing data in place).
	undoPersistAt []uint64
	undoRecords   []int
}

// NewLogTMATOM builds the runtime and installs its arbiter.
func NewLogTMATOM(env *txn.Env) *LogTMATOM {
	l := &LogTMATOM{htmBase: newHTMBase(env, true)}
	l.undoPersistAt = make([]uint64, env.Cfg.NumCores)
	l.undoRecords = make([]int, env.Cfg.NumCores)
	l.Hooks = htm.Hooks{
		Start:   l.start,
		Write:   l.write,
		Commit:  l.commitInPlace,
		Abort:   l.abortUndo,
		Persist: l.persistFallback,
	}
	return l
}

// Name implements txn.Runtime.
func (l *LogTMATOM) Name() string { return "LogTM-ATOM" }

// start opens the attempt's undo log transaction.
func (l *LogTMATOM) start(core int) {
	l.Ctxs[core].TxID = l.Env.Registry.Log(core).BeginTx()
	l.undoPersistAt[core] = 0
	l.undoRecords[core] = 0
}

// write issues a transactional store and, on the first store to each line,
// first writes a hardware undo record carrying the pre-transaction value.
func (l *LogTMATOM) write(core int, c txn.Clock, addr, val uint64) {
	la := l.H.Align(addr)
	ctx := l.Ctxs[core]
	if !ctx.WriteLines.Contains(la) {
		// Hardware undo logging composes the record from the coherence data
		// response — a copy the core has permission to hold. Reading the line
		// transactionally first models that: it resolves any remote owner's
		// conflict (aborting this transaction cleanly if it loses, before
		// anything is logged) and leaves a coherent pre-store image in the L1
		// to log. Capturing the snapshot without coherence could log a stale
		// pre-image that, after a crash between the undo append and the abort
		// marker, recovery would roll back over newer committed data — a bug
		// the crash-point explorer caught.
		l.Read(core, c, addr)
		rec := &wal.Record{Type: wal.RecUndo, TxID: ctx.TxID, LineAddr: la, Data: l.H.LineSnapshot(core, la)}
		if done, err := l.Env.Registry.Log(core).Append(rec, c.Now()); err == nil {
			l.Env.Stats.LogRecords++
			l.undoRecords[core]++
			if done > l.undoPersistAt[core] {
				l.undoPersistAt[core] = done
			}
		} else {
			l.Abort(core, stats.AbortLogOverflow, c.Now())
			txn.AbortNow(stats.AbortLogOverflow)
		}
	}
	l.Store(core, c, addr, val)
}

// commitInPlace waits for the undo log to be durable, makes the write set
// visible, then persists every write-set line in place — from the L1 and from
// overflowed LLC lines — before the commit record is written. This in-place
// persistence is on the critical path, which is exactly the overhead DHTM's
// redo logging removes.
func (l *LogTMATOM) commitInPlace(core int, c txn.Clock) bool {
	ctx := l.Ctxs[core]
	log := l.Env.Registry.Log(core)
	c.AdvanceTo(l.undoPersistAt[core])

	// With undo logging the write set may not become visible until it is
	// durable in place (another thread could otherwise consume and commit a
	// value that a crash would roll back). The flush therefore happens while
	// the transaction still holds its write set — conflicting requesters keep
	// aborting during this window, which is the cost DHTM's redo commit
	// removes — and visibility is granted afterwards.
	done := c.Now()
	for _, la := range ctx.WriteLines.Keys() {
		var d uint64
		if ln := l.H.L1(core).Peek(la); ln != nil && ln.Valid() {
			d, _ = l.H.WriteBackL1Line(core, la, c.Now())
		} else if ll := l.H.LLC().Peek(la); ll != nil && ll.Valid() {
			d, _ = l.H.WriteBackLLCLine(la, c.Now())
		} else {
			d = l.H.PersistLineInPlace(la, l.H.LineSnapshot(core, la), c.Now())
		}
		if d > done {
			done = d
		}
	}
	c.AdvanceTo(done)
	l.commitVisibility(core)
	if d, err := log.Append(&wal.Record{Type: wal.RecCommit, TxID: l.Ctxs[core].TxID}, c.Now()); err == nil {
		c.AdvanceTo(d)
	}
	if d, err := log.Append(&wal.Record{Type: wal.RecComplete, TxID: l.Ctxs[core].TxID}, c.Now()); err == nil {
		c.AdvanceTo(d)
	}
	log.EndTx(l.Ctxs[core].TxID)
	// Reset the undo bookkeeping so an abort during the *next* attempt's
	// begin (before it allocates a txid) cannot charge this transaction's
	// walk cost again or log a spurious abort marker for it.
	l.undoRecords[core] = 0
	l.undoPersistAt[core] = 0
	return true
}

// abortUndo is the design-specific abort work: the undo log must be walked
// and applied before conflicting transactions can observe the line again
// (LogTM stalls them with NACKs; the cost is charged to this core's
// completion time), and the log is logically cleared with an abort record.
func (l *LogTMATOM) abortUndo(core int, at uint64, _ int) {
	log := l.Env.Registry.Log(core)
	if l.undoRecords[core] > 0 {
		n := uint64(l.undoRecords[core])
		// Reading the undo records back and restoring the old values costs a
		// line transfer each way per record.
		cost := n * (2*l.Cfg.LineTransferCycles() + l.Cfg.NVMWriteLatency/4)
		if at+cost > l.Ctxs[core].CompletionAt {
			l.Ctxs[core].CompletionAt = at + cost
		}
		if _, err := log.Append(&wal.Record{Type: wal.RecAbort, TxID: l.Ctxs[core].TxID}, at); err == nil {
			l.Env.Stats.LogRecords++
		}
	}
	// Release the attempt's log reservation even when it logged nothing: an
	// attempt that aborted before its first write still holds a live-list
	// entry, and leaking it pins the tail forever — the log fills, abort
	// markers stop fitting, and a crash would then roll an aborted
	// transaction's live undo records back over later committed values
	// (stale pre-images). Found by the crash-point explorer.
	log.EndTx(l.Ctxs[core].TxID)
	l.undoRecords[core] = 0
	l.undoPersistAt[core] = 0
}
