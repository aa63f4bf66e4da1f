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
// also pay for walking the undo log. Hardware transactions and the software
// fallback both go through ATOM's undo sequence (undoLog).
type LogTMATOM struct {
	*htmBase
	undo []undoLog // per core
}

// NewLogTMATOM builds the runtime and installs its arbiter.
func NewLogTMATOM(env *txn.Env) *LogTMATOM {
	l := &LogTMATOM{htmBase: newHTMBase(env, true), undo: make([]undoLog, env.Cfg.NumCores)}
	for i := range l.undo {
		l.undo[i] = undoLog{env: env, core: i}
	}
	l.Hooks = htm.Hooks{
		Start:         l.start,
		Write:         l.write,
		Commit:        l.commit,
		Abort:         l.abortUndo,
		Persist:       l.persist,
		FallbackStore: l.fallbackStore,
	}
	return l
}

// Name implements txn.Runtime.
func (l *LogTMATOM) Name() string { return "LogTM-ATOM" }

// start opens the attempt's undo log transaction.
func (l *LogTMATOM) start(core int) {
	l.Ctxs[core].TxID = l.Env.Registry.Log(core).BeginTx()
	l.undo[core].reset()
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
		if err := l.undo[core].record(ctx.TxID, la, l.H.LineSnapshot(core, la), c.Now()); err != nil {
			l.Abort(core, stats.AbortLogOverflow, c.Now())
			txn.AbortNow(stats.AbortLogOverflow)
		}
	}
	l.Store(core, c, addr, val)
}

// commit runs the undo sequence while the transaction still holds its read
// and write sets: conflicting requesters keep aborting until the commit and
// complete records are durable — the in-place persistence on the critical
// path that DHTM's redo commit removes — and only then are the R/W bits
// released. Past this point the transaction cannot abort (Ctx.Committing).
func (l *LogTMATOM) commit(core int, c txn.Clock) bool {
	ctx := l.Ctxs[core]
	ctx.Committing = true
	l.undo[core].commit(c, ctx.TxID, ctx.WriteLines.Keys(), func() {
		ctx.Committing = false
		l.commitVisibility(core)
	})
	return true
}

// fallbackStore undo-logs a fallback store: the logging hardware serves the
// fallback too. A fallback cannot abort, so a record that does not fit is
// dropped, as in ATOM.
func (l *LogTMATOM) fallbackStore(core int, c txn.Clock, la uint64, first bool) {
	if first {
		_ = l.undo[core].record(l.Ctxs[core].TxID, la, l.H.LineSnapshot(core, la), c.Now())
	}
}

// persist commits a fallback transaction through the undo sequence; the
// runtime releases the global lock afterwards.
func (l *LogTMATOM) persist(core int, c txn.Clock, txid uint64, dirty *htm.LineSet) {
	l.undo[core].commit(c, txid, dirty.Keys(), nil)
}

// abortUndo is the design-specific abort work: the undo log must be walked
// and applied before conflicting transactions can observe the line again
// (LogTM stalls them with NACKs; the cost is charged to this core's
// completion time), and the log is logically cleared with an abort record.
func (l *LogTMATOM) abortUndo(core int, at uint64, _ int) {
	log := l.Env.Registry.Log(core)
	u := &l.undo[core]
	if u.records > 0 {
		n := uint64(u.records)
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
	u.reset()
}
