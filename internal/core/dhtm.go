// Package core implements DHTM — Durable Hardware Transactional Memory — the
// paper's primary contribution. DHTM layers hardware redo logging on top of
// an RTM-like HTM: atomic visibility comes from the HTM's read/write bits and
// eager, coherence-based conflict detection; atomic durability comes from
// redo-log records that the L1 cache controller streams to a per-thread log
// in persistent memory, coalesced through a small log buffer. The same
// logging infrastructure lets the write set overflow from the L1 into the LLC
// ("sticky" directory state plus a durable overflow list), extending the
// supported transaction size from L1-limited to LLC-limited with no
// structural changes to the LLC.
package core

import (
	"dhtm/internal/cache"
	"dhtm/internal/htm"
	"dhtm/internal/logbuf"
	"dhtm/internal/memdev"
	"dhtm/internal/stats"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// Options selects DHTM variants used by the ablation studies.
type Options struct {
	// DisableOverflow makes write-set eviction from the L1 abort the
	// transaction, i.e. an L1-limited DHTM (the PTM-like configuration).
	DisableOverflow bool
	// DisableLogBuffer bypasses the coalescing log buffer and emits one
	// redo record per store (Figure 2b's strawman).
	DisableLogBuffer bool
	// InstantPersist makes the hardware path's log and data writes take zero
	// time while keeping them functionally correct; used for the §VI.D
	// idealised-DHTM ablation. The software fallback's persist
	// (htm.Runtime.PersistRedo) still charges its log writes and flushes.
	InstantPersist bool
}

// fallbackLockAddr is the persistent word used as the single global lock of
// the software fallback path. Hardware transactions read it at begin so that
// a fallback acquisition aborts them (standard SGL fallback).
const fallbackLockAddr = wal.RegistryTableAddr + 0x800

// DHTM is the durable hardware transactional memory runtime. The shared HTM
// runtime it embeds executes transactions (txn.Runtime); DHTM supplies the
// redo logging, commit, completion and abort hooks and the arbiter callbacks
// that differ because of its committed-but-incomplete conflict window.
type DHTM struct {
	*htm.Runtime
	opt Options

	cores []*coreState
}

// coreState is the per-core hardware state DHTM adds (Table II): the log
// buffer, the transaction-state register, and the log/overflow-list
// registers, plus runtime bookkeeping.
type coreState struct {
	ctx *htm.Ctx
	buf *logbuf.Buffer
	log *wal.ThreadLog
	ov  *wal.OverflowList

	logPersistAt uint64   // latest durability time of issued log records
	pendingWB    []uint64 // lines awaiting in-place write-back (commit completion)

	// deps are the committed-but-incomplete transactions whose data this
	// transaction consumed (sentinel dependencies). The log of a dependent
	// transaction may not be truncated before its dependencies have
	// completed, otherwise a crash could replay the dependency's older value
	// over the dependent's already-completed newer one.
	deps []txDep
	// deferredTrunc holds completed transactions whose log truncation is
	// waiting for their dependencies to complete.
	deferredTrunc []deferredTruncation
}

// txDep identifies a transaction on another core.
type txDep struct {
	thread int
	txid   uint64
}

// deferredTruncation is a completed transaction whose durable log records are
// kept until every dependency has completed.
type deferredTruncation struct {
	txid uint64
	deps []txDep
}

// New builds a DHTM runtime over the environment and installs its arbiter
// into the cache hierarchy.
func New(env *txn.Env, opt Options) *DHTM {
	d := &DHTM{Runtime: htm.NewRuntime(env, fallbackLockAddr), opt: opt}
	for i := 0; i < env.Cfg.NumCores; i++ {
		d.cores = append(d.cores, &coreState{
			ctx: d.Ctxs[i],
			buf: logbuf.New(env.Cfg.LogBufferEntries),
			log: env.Registry.Log(i),
			ov:  env.Registry.Overflow(i),
		})
	}
	d.Hooks = htm.Hooks{
		Complete: d.completePrevious,
		Reset:    d.reset,
		Write:    d.write,
		Commit:   d.commit,
		Abort:    d.abortLog,
		Persist:  d.PersistRedo,
		GrowLog:  true,
	}
	env.Hier.SetArbiter(d)
	return d
}

// Name implements txn.Runtime.
func (d *DHTM) Name() string {
	switch {
	case d.opt.InstantPersist:
		return "DHTM-instant"
	case d.opt.DisableOverflow:
		return "DHTM-L1"
	case d.opt.DisableLogBuffer:
		return "DHTM-nobuf"
	default:
		return "DHTM"
	}
}

// ---------------------------------------------------------------------------
// Shared-runtime hooks
// ---------------------------------------------------------------------------

// reset opens the attempt's log transaction and clears the per-attempt
// logging state; it runs in every begin attempt.
func (d *DHTM) reset(core int, at uint64) {
	cs := d.cores[core]
	cs.ctx.TxID = cs.log.BeginTx()
	cs.logPersistAt = 0
	cs.buf.Clear()
	cs.pendingWB = cs.pendingWB[:0]
	cs.deps = cs.deps[:0]
	d.truncateSatisfied(core, at)
}

// write performs a transactional store, updating the log buffer and
// emitting redo records for coalesced lines as they are evicted from it.
func (d *DHTM) write(core int, c txn.Clock, addr uint64, val uint64) {
	d.Store(core, c, addr, val)
	var err error
	if d.opt.DisableLogBuffer {
		// No coalescing: one redo record per store, carrying the whole line.
		err = d.emitRedo(core, d.H.Align(addr), c.Now())
	} else if evicted, has := d.cores[core].buf.Touch(d.H.Align(addr)); has {
		err = d.emitRedo(core, evicted, c.Now())
	}
	if err != nil {
		d.Abort(core, stats.AbortLogOverflow, c.Now())
		txn.AbortNow(stats.AbortLogOverflow)
	}
}

// emitRedo writes the redo-log record for one cache line, composing the
// address with the line's current contents from the cache hierarchy. The
// record write happens off the critical path: only bandwidth is consumed and
// the durability time is folded into logPersistAt, which commit waits for.
func (d *DHTM) emitRedo(core int, lineAddr uint64, at uint64) error {
	cs := d.cores[core]
	rec := &wal.Record{Type: wal.RecRedo, TxID: cs.ctx.TxID, LineAddr: lineAddr, Data: d.H.LineSnapshot(core, lineAddr)}
	return d.appendLog(core, rec, at)
}

// appendLog appends a record to the core's durable log, tracking its
// durability time. A wal.ErrLogFull error is returned to the caller, which
// translates it into a log-overflow abort.
func (d *DHTM) appendLog(core int, rec *wal.Record, at uint64) error {
	cs := d.cores[core]
	done, err := cs.log.Append(rec, at)
	if err != nil {
		return err
	}
	if !d.opt.InstantPersist && done > cs.logPersistAt {
		cs.logPersistAt = done
	}
	return nil
}

// commit reaches the transaction's commit point: all remaining redo records
// are emitted, the commit record is written once every log record is durable,
// read-set tracking is cleared and the transaction enters the Committed
// state. In-place write-backs are deferred to the completion phase. It
// reports false when the durable log overflowed, in which case the
// transaction has been aborted instead.
func (d *DHTM) commit(core int, c txn.Clock) bool {
	cs := d.cores[core]
	at := c.Now()
	for _, la := range cs.buf.Drain() {
		if err := d.emitRedo(core, la, at); err != nil {
			d.Abort(core, stats.AbortLogOverflow, at)
			return false
		}
	}
	ready := at
	if cs.logPersistAt > ready {
		ready = cs.logPersistAt
	}
	if err := d.appendLog(core, &wal.Record{Type: wal.RecCommit, TxID: cs.ctx.TxID}, ready); err != nil {
		d.Abort(core, stats.AbortLogOverflow, ready)
		return false
	}
	commitAt := ready
	if !d.opt.InstantPersist && cs.logPersistAt > commitAt {
		commitAt = cs.logPersistAt
	}

	// Flash-clear the read bits and the read-set overflow signature; write
	// bits are cleared lazily as the completion phase writes lines back. The
	// same pass records which lines the completion phase must write back in
	// place.
	cs.pendingWB = cs.pendingWB[:0]
	d.H.L1(core).ForEachTx(func(l *cache.Line) {
		l.R = false
		if l.W {
			cs.pendingWB = append(cs.pendingWB, l.Addr)
		}
	})
	cs.ctx.Sig.Clear()
	cs.ctx.State = htm.Committed

	// Reserve the write-backs' memory-channel time now: the hardware starts
	// issuing them at the commit point, in the background, so they overlap
	// with the non-transactional code that follows the transaction. The
	// functional effect is applied when the completion phase ends
	// (completePrevious).
	cs.pendingWB = append(cs.pendingWB, cs.ctx.Overflowed.Keys()...)
	completionAt := commitAt
	if !d.opt.InstantPersist {
		for range cs.pendingWB {
			if done := d.Env.Ctl.ReserveWrite(d.Cfg.LineSize, commitAt, memdev.TrafficData); done > completionAt {
				completionAt = done
			}
		}
		// The memory controller reads the overflow list back to find the
		// overflowed lines before writing them in place.
		completionAt = max(completionAt, d.Env.Ctl.ReserveRead(cs.ctx.Overflowed.Len()*8, commitAt))
	}
	if completionAt > cs.ctx.CompletionAt {
		cs.ctx.CompletionAt = completionAt
	}
	c.AdvanceTo(commitAt)
	return true
}

// completePrevious performs the completion phase of the previous transaction
// if one is still outstanding: committed transactions write their write set
// back in place (L1 lines and overflowed LLC lines) and log a complete
// record; aborted transactions have already had their overflow invalidations
// performed during cleanup.
func (d *DHTM) completePrevious(core int, c txn.Clock) {
	cs := d.cores[core]
	switch cs.ctx.State {
	case htm.Committed:
		// The write-backs' timing was reserved at the commit point; here the
		// completion phase finishes, so apply the functional effect.
		done := max(cs.ctx.CompletionAt, c.Now())
		if cdone := d.retire(core, done); !d.opt.InstantPersist && cdone > done {
			done = cdone
		}
		if done > cs.ctx.CompletionAt {
			cs.ctx.CompletionAt = done
		}
	case htm.Aborted:
		cs.ctx.State = htm.Idle
	}
}

// forceComplete performs the functional part of a committed transaction's
// completion immediately. It is used when another core consumes the
// transaction's data during the conflict window; the completion *timing*
// reserved at commit is left untouched, so the owning core still waits for
// CompletionAt before its next transaction.
func (d *DHTM) forceComplete(core int, at uint64) {
	if d.cores[core].ctx.State == htm.Committed {
		d.retire(core, at)
	}
}

// retire applies a committed transaction's completion functionally and takes
// the core to Idle. Every write-set line this core still owns is written in
// place and released; a line handed to another core during the conflict
// window had its committed value persisted at hand-over. Then the complete
// record is appended at `at` and the log truncated — unless a transaction
// this one depends on (sentinels) has not completed yet: a crash would then
// skip this transaction's replay while still replaying the dependency,
// regressing the lines handed over during the conflict window, so the
// truncation is deferred. It reports when the complete record is durable.
func (d *DHTM) retire(core int, at uint64) uint64 {
	cs := d.cores[core]
	for _, la := range cs.pendingWB {
		if d.H.CompleteL1Line(core, la) {
			continue
		}
		if ll := d.H.LLC().Peek(la); ll != nil && ll.Valid() && ll.Owner == core {
			d.H.CompleteLLCLine(la)
		}
	}
	done := at
	if d.depsCompleted(cs.deps) {
		done, _ = cs.log.Append(&wal.Record{Type: wal.RecComplete, TxID: cs.ctx.TxID}, at)
		cs.log.EndTx(cs.ctx.TxID)
	} else {
		cs.deferredTrunc = append(cs.deferredTrunc, deferredTruncation{txid: cs.ctx.TxID, deps: append([]txDep(nil), cs.deps...)})
	}
	cs.deps = cs.deps[:0]
	cs.ov.Clear()
	cs.ctx.Overflowed.Clear()
	cs.pendingWB = cs.pendingWB[:0]
	cs.ctx.State = htm.Idle
	return done
}

// depsCompleted reports whether every listed dependency has finished its
// completion phase (its thread has either moved on to a later transaction or
// is idle).
func (d *DHTM) depsCompleted(deps []txDep) bool {
	for _, dep := range deps {
		ocs := d.cores[dep.thread]
		switch {
		case ocs.ctx.TxID > dep.txid:
			// The owner began a later transaction, so dep completed.
		case ocs.ctx.TxID == dep.txid && ocs.ctx.State == htm.Idle:
			// The owner completed it and has not begun a new one yet.
		default:
			return false
		}
	}
	return true
}

// truncateSatisfied retires deferred completions whose dependencies have
// since completed: their complete records are written and their log space is
// released.
func (d *DHTM) truncateSatisfied(core int, at uint64) {
	cs := d.cores[core]
	remaining := cs.deferredTrunc[:0]
	for _, dt := range cs.deferredTrunc {
		if d.depsCompleted(dt.deps) {
			cs.log.Append(&wal.Record{Type: wal.RecComplete, TxID: dt.txid}, at)
			cs.log.EndTx(dt.txid)
			continue
		}
		remaining = append(remaining, dt)
	}
	cs.deferredTrunc = remaining
}

// abortLog is DHTM's abort work: the abort record logically clears the
// transaction's redo records (if the log is full it is skipped: recovery
// treats a commit-less transaction exactly like an aborted one), and the
// abort completion invalidates the n overflowed lines in the LLC. Its timing
// is background work (reading the overflow list plus an invalidation per
// line); the next transaction on this core waits for it.
func (d *DHTM) abortLog(core int, at uint64, n int) {
	cs := d.cores[core]
	cs.log.Append(&wal.Record{Type: wal.RecAbort, TxID: cs.ctx.TxID}, at)
	done := d.Env.Ctl.ReserveRead(n*8, at) + uint64(n)*d.Cfg.LLCLatency
	cs.ov.Clear()
	cs.buf.Clear()
	cs.log.EndTx(cs.ctx.TxID)
	cs.logPersistAt = 0
	if done > cs.ctx.CompletionAt {
		cs.ctx.CompletionAt = done
	}
}

// ---------------------------------------------------------------------------
// hier.Arbiter implementation
// ---------------------------------------------------------------------------

// InTx implements hier.Arbiter: Active and Committed transactions both hold
// speculative or not-yet-completed state that the coherence protocol must
// route through the arbiter.
func (d *DHTM) InTx(core int) bool {
	s := d.cores[core].ctx.State
	return s == htm.Active || s == htm.Committed
}

// OnConflict implements hier.Arbiter. It distinguishes the conflict window of
// a committed-but-incomplete transaction (no conflict; sentinel records are
// written and the line's committed value is persisted in place before it is
// handed over) from a true conflict between two active transactions, which is
// resolved by the configured policy.
func (d *DHTM) OnConflict(requester, owner int, addr uint64, write, requesterTx bool, at uint64) bool {
	ocs := d.cores[owner]
	switch ocs.ctx.State {
	case htm.Committed:
		// The requester is consuming data from a committed transaction that
		// has not finished its completion phase. This is not a conflict
		// (§III-B): sentinel records capture the dependency and the owner's
		// write set is forced to complete functionally before the line is
		// handed over, so no later transaction can ever observe (and persist)
		// state that a crash would roll back behind it. The owner's timing
		// (CompletionAt) was already accounted at its commit.
		d.writeSentinels(requester, owner, requesterTx, at)
		d.forceComplete(owner, at)
		return true
	case htm.Active:
		if htm.OwnerShouldAbort(d.Cfg.ConflictPolicy, requesterTx) {
			d.Abort(owner, stats.AbortConflict, at)
			return true
		}
		return false
	default:
		// Stale directory state from a finished transaction: no conflict.
		return true
	}
}

// writeSentinels records the replay dependency between a transaction that
// consumed data from a committed-but-incomplete transaction and that
// transaction, in both logs (§III-B).
func (d *DHTM) writeSentinels(requester, owner int, requesterTx bool, at uint64) {
	ocs := d.cores[owner]
	if requesterTx && d.cores[requester].ctx.State == htm.Active {
		rcs := d.cores[requester]
		dep := &wal.Record{Type: wal.RecSentinel, TxID: rcs.ctx.TxID, DepThread: owner, DepTxID: ocs.ctx.TxID}
		rcs.log.Append(dep, at)
		rcs.deps = append(rcs.deps, txDep{thread: owner, txid: ocs.ctx.TxID})
	}
	own := &wal.Record{Type: wal.RecSentinel, TxID: ocs.ctx.TxID, DepThread: requester, DepTxID: 0}
	ocs.log.Append(own, at)
}

// OnWriteSetEviction implements hier.Arbiter: an L1 write-set line is being
// replaced. For an active transaction the line's pending log record is forced
// out, the address is appended to the durable overflow list and the line is
// allowed to overflow to the LLC in sticky state. For a committed transaction
// the eviction simply completes that line early. With overflow disabled
// (ablation) the transaction aborts, as in a plain RTM.
func (d *DHTM) OnWriteSetEviction(core int, addr uint64, at uint64) bool {
	cs := d.cores[core]
	la := d.H.Align(addr)
	if cs.ctx.State == htm.Committed {
		d.persistEarly(core, la, at)
		return true
	}
	if d.opt.DisableOverflow {
		d.Abort(core, stats.AbortWriteCapacity, at)
		return false
	}
	if cs.buf.Remove(la) {
		if err := d.emitRedo(core, la, at); err != nil {
			d.Abort(core, stats.AbortLogOverflow, at)
			return false
		}
	}
	done, err := cs.ov.Append(la, at)
	if err != nil {
		d.Abort(core, stats.AbortLLCCapacity, at)
		return false
	}
	if !d.opt.InstantPersist && done > cs.logPersistAt {
		cs.logPersistAt = done
	}
	cs.ctx.Overflowed.Add(la)
	return true
}

// OnLLCTxEviction implements hier.Arbiter: losing an LLC line that still
// carries transactional state aborts an active transaction (the LLC is
// DHTM's capacity limit). A committed transaction's line is dirty, so the
// hierarchy's write-back of the victim persists it in place, completing it
// early; writing it here as well would persist the line twice.
func (d *DHTM) OnLLCTxEviction(core int, addr uint64, at uint64) {
	if d.cores[core].ctx.State != htm.Committed {
		d.Abort(core, stats.AbortLLCCapacity, at)
	}
}

// persistEarly writes a committed-but-incomplete transaction's line in place
// ahead of its completion phase because the line is leaving the cache.
func (d *DHTM) persistEarly(core int, la, at uint64) {
	data := d.H.LineSnapshot(core, la)
	if d.opt.InstantPersist {
		d.Env.Ctl.PersistLine(la, data, memdev.TrafficData)
	} else {
		d.H.PersistLineInPlace(la, data, at)
	}
}
