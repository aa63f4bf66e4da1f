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
	"dhtm/internal/config"
	"dhtm/internal/hier"
	"dhtm/internal/htm"
	"dhtm/internal/locks"
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
	// word-granular redo record per store (Figure 2b's strawman).
	DisableLogBuffer bool
	// InstantPersist makes log and data writes take zero time while keeping
	// them functionally correct; used for the §VI.D idealised-DHTM ablation.
	InstantPersist bool
	// LogBufferEntries overrides the configured log-buffer size when > 0
	// (Figure 6's sweep).
	LogBufferEntries int
}

// fallbackLockAddr is the persistent word used as the single global lock of
// the software fallback path. Hardware transactions read it at begin so that
// a fallback acquisition aborts them (standard SGL fallback).
const fallbackLockAddr = wal.RegistryTableAddr + 0x800

// DHTM is the durable hardware transactional memory runtime. It implements
// both txn.Runtime (transaction execution) and hier.Arbiter (conflict
// resolution and overflow handling hooks invoked by the coherence protocol).
type DHTM struct {
	env *txn.Env
	cfg config.Config
	h   *hier.Hierarchy
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

	txid         uint64
	logPersistAt uint64       // latest durability time of issued log records
	overflowed   *htm.LineSet // write-set lines currently overflowed to the LLC
	pendingWB    []uint64     // lines awaiting in-place write-back (commit completion)
	retries      int

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
	d := &DHTM{env: env, cfg: env.Cfg, h: env.Hier, opt: opt}
	bufEntries := env.Cfg.LogBufferEntries
	if opt.LogBufferEntries > 0 {
		bufEntries = opt.LogBufferEntries
	}
	for i := 0; i < env.Cfg.NumCores; i++ {
		d.cores = append(d.cores, &coreState{
			ctx:        htm.NewCtx(env.Cfg),
			buf:        logbuf.New(bufEntries),
			log:        env.Registry.Log(i),
			ov:         env.Registry.Overflow(i),
			overflowed: htm.NewLineSet(32),
		})
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
	default:
		return "DHTM"
	}
}

// Env returns the simulated machine this runtime drives.
func (d *DHTM) Env() *txn.Env { return d.env }

// ---------------------------------------------------------------------------
// txn.Runtime implementation
// ---------------------------------------------------------------------------

// dtx adapts a core's transactional accesses to the txn.Tx interface.
type dtx struct {
	d     *DHTM
	core  int
	clock txn.Clock
}

// Read implements txn.Tx.
func (t dtx) Read(addr uint64) uint64 { return t.d.txRead(t.core, t.clock, addr) }

// Write implements txn.Tx.
func (t dtx) Write(addr uint64, val uint64) { t.d.txWrite(t.core, t.clock, addr, val) }

// Run implements txn.Runtime.
func (d *DHTM) Run(core int, c txn.Clock, t *txn.Transaction) txn.ExecResult {
	cs := d.cores[core]
	res := txn.ExecResult{Start: c.Now()}
	for attempt := 0; ; attempt++ {
		if attempt >= d.cfg.MaxRetries {
			d.runFallback(core, c, t)
			d.env.Stats.Core(core).Fallbacks++
			d.env.Stats.Core(core).AbortsByReason[stats.AbortFallback]++
			res.Committed = true
			break
		}
		d.begin(core, c)
		err, ok, reason := txn.Attempt(t.Body, dtx{d: d, core: core, clock: c})
		switch {
		case ok && err == nil && !cs.ctx.Doomed && cs.ctx.State == htm.Active:
			if d.commit(core, c) {
				res.Committed = true
			} else {
				reason = stats.AbortLogOverflow
			}
		case ok && err == nil:
			// The body ran to completion but the transaction was doomed by a
			// remote conflict before it could commit.
			reason = cs.ctx.Reason
			ok = false
		case ok && err != nil:
			reason = stats.AbortExplicit
			ok = false
		}
		if res.Committed {
			break
		}
		// The transaction aborted. Cleanup has already happened (either in
		// the access that detected the loss or remotely by the winner);
		// ensure it for the explicit-abort path.
		d.abortCleanup(core, reason, c.Now())
		res.Aborts++
		d.env.Stats.Core(core).Aborts++
		d.env.Stats.Core(core).AbortsByReason[reason]++
		if reason == stats.AbortLogOverflow {
			d.env.Registry.GrowLog(core, 2)
		}
		c.Advance(d.cfg.AbortPenalty + txn.Backoff(d.cfg, attempt))
		c.AdvanceTo(cs.ctx.CompletionAt)
	}
	cst := d.env.Stats.Core(core)
	cst.Commits++
	cst.WriteSetLines += uint64(cs.ctx.WriteLines.Len())
	cst.ReadSetLines += uint64(cs.ctx.ReadLines.Len())
	cst.TxCycles += c.Now() - res.Start
	res.End = c.Now()
	return res
}

// Finish implements txn.Runtime: it drains the last transaction's completion
// phase into the core's clock and records the final cycle.
func (d *DHTM) Finish(core int, c txn.Clock) {
	d.completePrevious(core, c)
	c.AdvanceTo(d.cores[core].ctx.CompletionAt)
	d.env.Stats.Core(core).FinalCycle = c.Now()
}

// begin waits for the previous transaction's completion phase, checks the
// fallback lock, and resets the per-core transactional state.
func (d *DHTM) begin(core int, c txn.Clock) {
	cs := d.cores[core]
	for {
		d.completePrevious(core, c)
		c.AdvanceTo(cs.ctx.CompletionAt)

		cs.ctx.BeginReset()
		cs.txid = cs.log.BeginTx()
		cs.logPersistAt = 0
		cs.buf.Clear()
		cs.overflowed.Clear()
		cs.pendingWB = cs.pendingWB[:0]
		cs.deps = cs.deps[:0]
		d.truncateSatisfied(core, c.Now())

		// Single-global-lock fallback interlock: subscribe to the fallback
		// lock so that a software-fallback writer aborts this hardware
		// transaction.
		v, r := d.h.Load(core, fallbackLockAddr, c.Now(), true)
		c.AdvanceTo(r.Done)
		if r.Aborted || cs.ctx.Doomed {
			d.abortCleanup(core, stats.AbortConflict, c.Now())
			c.Advance(d.cfg.BackoffBase)
			continue
		}
		if v != 0 {
			// A software-fallback transaction holds the global lock; step
			// back to idle and retry once it is likely to have drained.
			d.abortCleanup(core, stats.AbortConflict, c.Now())
			c.Advance(txn.Backoff(d.cfg, 2))
			continue
		}
		return
	}
}

// txRead performs a transactional load.
func (d *DHTM) txRead(core int, c txn.Clock, addr uint64) uint64 {
	cs := d.cores[core]
	if cs.ctx.Doomed || cs.ctx.State != htm.Active {
		txn.AbortNow(cs.ctx.Reason)
	}
	v, r := d.h.Load(core, addr, c.Now(), true)
	c.AdvanceTo(r.Done)
	if r.Aborted {
		d.abortCleanup(core, stats.AbortConflict, c.Now())
		txn.AbortNow(stats.AbortConflict)
	}
	cs.ctx.ReadLines.Add(d.h.Align(addr))
	return v
}

// txWrite performs a transactional store, updating the log buffer and
// emitting redo records for coalesced lines as they are evicted from it.
func (d *DHTM) txWrite(core int, c txn.Clock, addr uint64, val uint64) {
	cs := d.cores[core]
	if cs.ctx.Doomed || cs.ctx.State != htm.Active {
		txn.AbortNow(cs.ctx.Reason)
	}
	r := d.h.Store(core, addr, val, c.Now(), true)
	c.AdvanceTo(r.Done)
	if r.Aborted {
		d.abortCleanup(core, stats.AbortConflict, c.Now())
		txn.AbortNow(stats.AbortConflict)
	}
	if cs.ctx.Doomed || cs.ctx.State != htm.Active {
		// An LLC-capacity eviction triggered by our own fill aborted us.
		txn.AbortNow(cs.ctx.Reason)
	}
	la := d.h.Align(addr)
	cs.ctx.WriteLines.Add(la)

	if d.opt.DisableLogBuffer {
		// Word-granular logging: one (address, value) record per store.
		if err := d.appendLog(core, &wal.Record{Type: wal.RecRedo, TxID: cs.txid, LineAddr: addr,
			Data: memdev.Line{val}}, c.Now()); err != nil {
			d.abortCleanup(core, stats.AbortLogOverflow, c.Now())
			txn.AbortNow(stats.AbortLogOverflow)
		}
		return
	}
	if evicted, has := cs.buf.Touch(la); has {
		if err := d.emitRedo(core, evicted, c.Now()); err != nil {
			d.abortCleanup(core, stats.AbortLogOverflow, c.Now())
			txn.AbortNow(stats.AbortLogOverflow)
		}
	}
}

// emitRedo writes the redo-log record for one cache line, composing the
// address with the line's current contents from the cache hierarchy. The
// record write happens off the critical path: only bandwidth is consumed and
// the durability time is folded into logPersistAt, which commit waits for.
func (d *DHTM) emitRedo(core int, lineAddr uint64, at uint64) error {
	cs := d.cores[core]
	rec := &wal.Record{Type: wal.RecRedo, TxID: cs.txid, LineAddr: lineAddr, Data: d.h.LineSnapshot(core, lineAddr)}
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
	d.env.Stats.LogRecords++
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
			d.abortCleanup(core, stats.AbortLogOverflow, at)
			return false
		}
	}
	ready := at
	if cs.logPersistAt > ready {
		ready = cs.logPersistAt
	}
	if err := d.appendLog(core, &wal.Record{Type: wal.RecCommit, TxID: cs.txid}, ready); err != nil {
		d.abortCleanup(core, stats.AbortLogOverflow, ready)
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
	d.h.L1(core).ForEachTx(func(l *cache.Line) {
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
	cs.pendingWB = append(cs.pendingWB, cs.overflowed.Keys()...)
	completionAt := commitAt
	if !d.opt.InstantPersist {
		for range cs.pendingWB {
			if done := d.env.Ctl.ReserveWrite(d.cfg.LineSize, commitAt, memdev.TrafficData); done > completionAt {
				completionAt = done
			}
		}
		if n := cs.overflowed.Len(); n > 0 {
			// The memory controller reads the overflow list back to find the
			// overflowed lines before writing them in place.
			if _, rdone := d.env.Ctl.ReadWords(cs.ov.Base, n, commitAt); rdone > completionAt {
				completionAt = rdone
			}
		}
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
// performed during cleanup. Either way the durable log is truncated.
func (d *DHTM) completePrevious(core int, c txn.Clock) {
	cs := d.cores[core]
	switch cs.ctx.State {
	case htm.Committed:
		// The write-backs' timing was reserved at the commit point; here the
		// completion phase finishes, so apply the functional effect: every
		// write-set line still owned by this core is written in place and
		// released.
		for _, la := range cs.pendingWB {
			if d.h.CompleteL1Line(core, la) {
				continue
			}
			if ll := d.h.LLC().Peek(la); ll != nil && ll.Valid() && ll.Owner == core {
				d.h.CompleteLLCLine(la)
				continue
			}
			// The line was handed to another core during the conflict window;
			// its committed value was persisted at hand-over.
		}
		done := cs.ctx.CompletionAt
		if done < c.Now() {
			done = c.Now()
		}
		// The complete record (and the log truncation it allows) must wait
		// until every transaction this one depends on (sentinels) has itself
		// completed; otherwise a crash would skip this transaction's replay
		// while still replaying the dependency, regressing the lines that
		// were handed over during the conflict window.
		if d.depsCompleted(cs.deps) {
			cdone, err := cs.log.Append(&wal.Record{Type: wal.RecComplete, TxID: cs.txid}, done)
			if err == nil && !d.opt.InstantPersist && cdone > done {
				done = cdone
			}
			cs.log.EndTx(cs.txid)
		} else {
			cs.deferredTrunc = append(cs.deferredTrunc, deferredTruncation{txid: cs.txid, deps: append([]txDep(nil), cs.deps...)})
		}
		cs.deps = cs.deps[:0]
		cs.ov.Clear()
		cs.overflowed.Clear()
		cs.pendingWB = cs.pendingWB[:0]
		cs.ctx.State = htm.Idle
		if done > cs.ctx.CompletionAt {
			cs.ctx.CompletionAt = done
		}
	case htm.Aborted:
		cs.ctx.State = htm.Idle
	}
}

// forceComplete performs the functional part of a committed transaction's
// completion immediately (its write set is persisted in place, the complete
// record is written unless dependencies defer it, and its log space is
// released). It is used when another core consumes the transaction's data
// during the conflict window; the completion *timing* reserved at commit is
// left untouched, so the owning core still waits for CompletionAt before its
// next transaction.
func (d *DHTM) forceComplete(core int, at uint64) {
	cs := d.cores[core]
	if cs.ctx.State != htm.Committed {
		return
	}
	for _, la := range cs.pendingWB {
		if d.h.CompleteL1Line(core, la) {
			continue
		}
		if ll := d.h.LLC().Peek(la); ll != nil && ll.Valid() && ll.Owner == core {
			d.h.CompleteLLCLine(la)
		}
	}
	if d.depsCompleted(cs.deps) {
		if _, err := cs.log.Append(&wal.Record{Type: wal.RecComplete, TxID: cs.txid}, at); err == nil {
			d.env.Stats.LogRecords++
		}
		cs.log.EndTx(cs.txid)
	} else {
		cs.deferredTrunc = append(cs.deferredTrunc, deferredTruncation{txid: cs.txid, deps: append([]txDep(nil), cs.deps...)})
	}
	cs.deps = cs.deps[:0]
	cs.ov.Clear()
	cs.overflowed.Clear()
	cs.pendingWB = cs.pendingWB[:0]
	cs.ctx.State = htm.Idle
}

// depsCompleted reports whether every listed dependency has finished its
// completion phase (its thread has either moved on to a later transaction or
// is idle).
func (d *DHTM) depsCompleted(deps []txDep) bool {
	for _, dep := range deps {
		ocs := d.cores[dep.thread]
		switch {
		case ocs.txid > dep.txid:
			// The owner began a later transaction, so dep completed.
		case ocs.txid == dep.txid && ocs.ctx.State == htm.Idle:
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
			if _, err := cs.log.Append(&wal.Record{Type: wal.RecComplete, TxID: dt.txid}, at); err == nil {
				d.env.Stats.LogRecords++
			}
			cs.log.EndTx(dt.txid)
			continue
		}
		remaining = append(remaining, dt)
	}
	cs.deferredTrunc = remaining
}

// abortCleanup takes an Active transaction to its abort point and performs
// the completion work that involves volatile state: speculative L1 lines are
// invalidated, overflowed LLC lines are invalidated, the abort record is
// written and the log is truncated. It is idempotent: only an Active
// transaction is cleaned.
func (d *DHTM) abortCleanup(core int, reason stats.AbortReason, at uint64) {
	cs := d.cores[core]
	if cs.ctx.State != htm.Active {
		return
	}
	cs.ctx.Doom(reason)
	cs.ctx.State = htm.Aborted

	// Abort record (logically clears the transaction's redo records). If the
	// log is full the record is skipped: recovery treats a commit-less
	// transaction exactly like an aborted one.
	if _, err := cs.log.Append(&wal.Record{Type: wal.RecAbort, TxID: cs.txid}, at); err == nil {
		d.env.Stats.LogRecords++
	}

	// Invalidate the speculative write set in the L1 and clear read bits.
	d.h.L1(core).ForEachTx(func(l *cache.Line) {
		if l.W {
			addr := l.Addr
			l.Reset()
			d.h.ReleaseOwnership(core, addr)
			return
		}
		l.R = false
	})

	// Abort completion: invalidate overflowed lines in the LLC. The timing is
	// background work (reading the overflow list plus an invalidation per
	// line); the next transaction on this core waits for it.
	done := at
	if n := cs.overflowed.Len(); n > 0 {
		_, rdone := d.env.Ctl.ReadWords(cs.ov.Base, n, at)
		done = rdone + uint64(n)*d.cfg.LLCLatency
		for _, la := range cs.overflowed.Keys() {
			d.h.InvalidateLLCLine(la)
		}
		cs.overflowed.Clear()
	}
	cs.ov.Clear()
	cs.buf.Clear()
	cs.ctx.Sig.Clear()
	cs.log.EndTx(cs.txid)
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

// SignatureContains implements hier.Arbiter.
func (d *DHTM) SignatureContains(core int, addr uint64) bool {
	cs := d.cores[core]
	if cs.ctx.State != htm.Active {
		return false
	}
	return cs.ctx.Sig.Contains(d.h.Align(addr))
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
		if htm.OwnerShouldAbort(d.cfg.ConflictPolicy, requesterTx) {
			d.abortCleanup(owner, stats.AbortConflict, at)
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
		dep := &wal.Record{Type: wal.RecSentinel, TxID: rcs.txid, DepThread: owner, DepTxID: ocs.txid}
		if _, err := rcs.log.Append(dep, at); err == nil {
			d.env.Stats.SentinelRecords++
		}
		rcs.deps = append(rcs.deps, txDep{thread: owner, txid: ocs.txid})
	}
	own := &wal.Record{Type: wal.RecSentinel, TxID: ocs.txid, DepThread: requester, DepTxID: 0}
	if _, err := ocs.log.Append(own, at); err == nil {
		d.env.Stats.SentinelRecords++
	}
}

// OnWriteSetEviction implements hier.Arbiter: an L1 write-set line is being
// replaced. For an active transaction the line's pending log record is forced
// out, the address is appended to the durable overflow list and the line is
// allowed to overflow to the LLC in sticky state. For a committed transaction
// the eviction simply completes that line early. With overflow disabled
// (ablation) the transaction aborts, as in a plain RTM.
func (d *DHTM) OnWriteSetEviction(core int, addr uint64, at uint64) bool {
	cs := d.cores[core]
	la := d.h.Align(addr)
	if cs.ctx.State == htm.Committed {
		data := d.h.LineSnapshot(core, la)
		if d.opt.InstantPersist {
			d.env.Ctl.PersistLine(la, data, memdev.TrafficData)
		} else {
			d.h.PersistLineInPlace(la, data, at)
		}
		return true
	}
	if d.opt.DisableOverflow {
		d.abortCleanup(core, stats.AbortWriteCapacity, at)
		return false
	}
	if cs.buf.Remove(la) {
		if err := d.emitRedo(core, la, at); err != nil {
			d.abortCleanup(core, stats.AbortLogOverflow, at)
			return false
		}
	}
	done, err := cs.ov.Append(la, at)
	if err != nil {
		d.abortCleanup(core, stats.AbortLLCCapacity, at)
		return false
	}
	if !d.opt.InstantPersist && done > cs.logPersistAt {
		cs.logPersistAt = done
	}
	cs.overflowed.Add(la)
	return true
}

// OnReadSetEviction implements hier.Arbiter: evicted read-set lines move into
// the read-set overflow signature.
func (d *DHTM) OnReadSetEviction(core int, addr uint64, _ uint64) {
	cs := d.cores[core]
	if cs.ctx.State == htm.Active {
		cs.ctx.Sig.Add(d.h.Align(addr))
	}
}

// OnLLCTxEviction implements hier.Arbiter: losing an LLC line that still
// carries transactional state aborts an active transaction (the LLC is
// DHTM's capacity limit); for a committed transaction the line is simply
// persisted in place, completing it early.
func (d *DHTM) OnLLCTxEviction(core int, addr uint64, at uint64) {
	cs := d.cores[core]
	la := d.h.Align(addr)
	if cs.ctx.State == htm.Committed {
		data := d.h.LineSnapshot(core, la)
		if d.opt.InstantPersist {
			d.env.Ctl.PersistLine(la, data, memdev.TrafficData)
		} else {
			d.h.PersistLineInPlace(la, data, at)
		}
		return
	}
	if cs.ctx.State == htm.Active {
		d.abortCleanup(core, stats.AbortLLCCapacity, at)
	}
}

// OnOwnerReread implements hier.Arbiter: a line this core stickily owns in
// the LLC (an overflowed write-set line) is being re-read into the L1; mark
// it as part of the write set again so an abort invalidates it.
func (d *DHTM) OnOwnerReread(core int, addr uint64, line *cache.Line, _ uint64) {
	cs := d.cores[core]
	la := d.h.Align(addr)
	if cs.ctx.State != htm.Active {
		return
	}
	if cs.overflowed.Contains(la) {
		d.h.L1(core).MarkWrite(line)
	}
}

// ---------------------------------------------------------------------------
// Software fallback path
// ---------------------------------------------------------------------------

// fallbackTx runs body accesses non-transactionally under the global fallback
// lock while building a Mnemosyne-style software redo log (the paper's
// fallback provides visibility via the lock and durability via software
// logging).
type fallbackTx struct {
	d     *DHTM
	core  int
	clock txn.Clock
	dirty *htm.LineSet
}

// Read implements txn.Tx.
func (t *fallbackTx) Read(addr uint64) uint64 {
	v, r := t.d.h.Load(t.core, addr, t.clock.Now(), false)
	t.clock.AdvanceTo(r.Done)
	return v
}

// Write implements txn.Tx.
func (t *fallbackTx) Write(addr uint64, val uint64) {
	r := t.d.h.Store(t.core, addr, val, t.clock.Now(), false)
	t.clock.AdvanceTo(r.Done)
	t.dirty.Add(t.d.h.Align(addr))
	// Software log write: issue cost now, record content at line granularity.
	t.clock.Advance(t.d.cfg.FlushIssueLatency)
}

// runFallback executes t under the single global lock with software logging
// and durability, guaranteeing forward progress for transactions that cannot
// succeed on the hardware path.
func (d *DHTM) runFallback(core int, c txn.Clock, t *txn.Transaction) {
	cs := d.cores[core]
	// Acquire the global fallback lock. The non-transactional store conflicts
	// with every hardware transaction's read set, aborting them.
	c.AdvanceTo(locks.SpinAcquire(d.h, core, c, fallbackLockAddr, 1, txn.Backoff(d.cfg, 1)))

	cs.txid = cs.log.BeginTx()
	ftx := &fallbackTx{d: d, core: core, clock: c, dirty: htm.NewLineSet(16)}
	// The fallback path may not fail: explicit aborts are surfaced as a
	// committed no-op only if the body mutated nothing.
	_, _, _ = txn.Attempt(t.Body, ftx)

	// Durability: log every dirty line, fence, commit record, then flush data
	// in place so the log can be truncated immediately.
	at := c.Now()
	persist := at
	for _, la := range ftx.dirty.Keys() {
		rec := &wal.Record{Type: wal.RecRedo, TxID: cs.txid, LineAddr: la, Data: d.h.LineSnapshot(core, la)}
		if done, err := cs.log.Append(rec, at); err == nil && done > persist {
			persist = done
		}
		c.Advance(d.cfg.FlushIssueLatency)
	}
	c.AdvanceTo(persist)
	c.Advance(d.cfg.FenceLatency)
	if done, err := cs.log.Append(&wal.Record{Type: wal.RecCommit, TxID: cs.txid}, c.Now()); err == nil {
		c.AdvanceTo(done)
	}
	flushed := c.Now()
	for _, la := range ftx.dirty.Keys() {
		if done := d.h.FlushLine(core, la, c.Now()); done > flushed {
			flushed = done
		}
		c.Advance(d.cfg.FlushIssueLatency)
	}
	c.AdvanceTo(flushed)
	if done, err := cs.log.Append(&wal.Record{Type: wal.RecComplete, TxID: cs.txid}, c.Now()); err == nil {
		c.AdvanceTo(done)
	}
	cs.log.EndTx(cs.txid)

	// Release the lock.
	sr := d.h.Store(core, fallbackLockAddr, 0, c.Now(), false)
	c.AdvanceTo(sr.Done)

	cst := d.env.Stats.Core(core)
	cst.WriteSetLines += uint64(ftx.dirty.Len())
}
