// Package baselines implements the designs DHTM is evaluated against in the
// paper (§V "Evaluated Designs"):
//
//   - SO: locks for atomic visibility, Mnemosyne-style software redo logging
//     for atomic durability.
//   - sdTM: an RTM-like HTM for visibility (PHyTM-style), software logging
//     for durability — the log writes join the transaction's write set.
//   - ATOM: locks for visibility, hardware undo logging for durability; data
//     is persisted in place in the commit critical path.
//   - LogTM-ATOM: a LogTM-like HTM (write-set overflow allowed) combined with
//     ATOM's hardware undo logging.
//   - NP: a non-persistent, volatile RTM-like HTM used to measure the cost of
//     durability.
//
// All of them implement txn.Runtime and run on exactly the same simulated
// hardware as DHTM.
package baselines

import (
	"dhtm/internal/cache"
	"dhtm/internal/config"
	"dhtm/internal/hier"
	"dhtm/internal/htm"
	"dhtm/internal/locks"
	"dhtm/internal/stats"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// Scratch region (below the workload heap, above the durable log region)
// used by the baseline designs for lock tables and software log buffers.
const (
	scratchBase         uint64 = 0x0800_0000
	lockTableBase              = scratchBase
	lockTableSlots             = 4096
	softLogBase                = scratchBase + 0x0040_0000
	softLogBytesPerCore        = 256 * 1024
	// fallbackLockAddr mirrors the DHTM fallback lock location; baselines use
	// their own word so tests can run designs side by side on fresh envs.
	fallbackLockAddr = wal.RegistryTableAddr + 0x900
)

// htmBase holds the per-core transactional state and implements hier.Arbiter
// for the HTM-based baselines (NP, sdTM, LogTM-ATOM). DHTM has its own
// arbiter because of its committed-but-incomplete conflict window.
type htmBase struct {
	env *txn.Env
	cfg config.Config
	h   *hier.Hierarchy

	ctxs       []*htm.Ctx
	overflowed []*htm.LineSet

	// allowOverflow lets write-set lines spill to the LLC (LogTM-ATOM); when
	// false an L1 write-set eviction aborts the transaction (RTM behaviour,
	// used by NP and sdTM).
	allowOverflow bool

	// onAbort, when non-nil, performs design-specific abort work (e.g. undo
	// log handling) after the common speculative-state cleanup.
	onAbort func(core int, at uint64)
}

func newHTMBase(env *txn.Env, allowOverflow bool) *htmBase {
	b := &htmBase{env: env, cfg: env.Cfg, h: env.Hier, allowOverflow: allowOverflow}
	for i := 0; i < env.Cfg.NumCores; i++ {
		b.ctxs = append(b.ctxs, htm.NewCtx(env.Cfg))
		b.overflowed = append(b.overflowed, htm.NewLineSet(32))
	}
	return b
}

// InTx implements hier.Arbiter.
func (b *htmBase) InTx(core int) bool { return b.ctxs[core].State == htm.Active }

// SignatureContains implements hier.Arbiter.
func (b *htmBase) SignatureContains(core int, addr uint64) bool {
	c := b.ctxs[core]
	return c.State == htm.Active && c.Sig.Contains(b.h.Align(addr))
}

// OnConflict implements hier.Arbiter with the configured resolution policy.
func (b *htmBase) OnConflict(requester, owner int, addr uint64, write, requesterTx bool, at uint64) bool {
	if b.ctxs[owner].State != htm.Active {
		return true
	}
	if htm.OwnerShouldAbort(b.cfg.ConflictPolicy, requesterTx) {
		b.abort(owner, stats.AbortConflict, at)
		return true
	}
	return false
}

// OnWriteSetEviction implements hier.Arbiter: abort (RTM) or overflow
// (LogTM-style sticky state).
func (b *htmBase) OnWriteSetEviction(core int, addr uint64, at uint64) bool {
	if b.ctxs[core].State != htm.Active {
		return true
	}
	if !b.allowOverflow {
		b.abort(core, stats.AbortWriteCapacity, at)
		return false
	}
	b.overflowed[core].Add(b.h.Align(addr))
	return true
}

// OnReadSetEviction implements hier.Arbiter.
func (b *htmBase) OnReadSetEviction(core int, addr uint64, _ uint64) {
	c := b.ctxs[core]
	if c.State == htm.Active {
		c.Sig.Add(b.h.Align(addr))
	}
}

// OnLLCTxEviction implements hier.Arbiter: losing LLC state aborts.
func (b *htmBase) OnLLCTxEviction(core int, addr uint64, at uint64) {
	if b.ctxs[core].State == htm.Active {
		b.abort(core, stats.AbortLLCCapacity, at)
	}
}

// OnOwnerReread implements hier.Arbiter.
func (b *htmBase) OnOwnerReread(core int, addr uint64, line *cache.Line, _ uint64) {
	if b.ctxs[core].State != htm.Active {
		return
	}
	if b.overflowed[core].Contains(b.h.Align(addr)) {
		b.h.L1(core).MarkWrite(line)
	}
}

// abort dooms and cleans up core's active transaction: speculative L1 lines
// are invalidated, overflowed LLC lines are invalidated, tracking state is
// cleared and any design-specific abort work runs.
func (b *htmBase) abort(core int, reason stats.AbortReason, at uint64) {
	c := b.ctxs[core]
	if c.State != htm.Active {
		return
	}
	c.Doom(reason)
	c.State = htm.Aborted
	b.h.L1(core).ForEachTx(func(l *cache.Line) {
		if l.W {
			addr := l.Addr
			l.Reset()
			b.h.ReleaseOwnership(core, addr)
			return
		}
		l.R = false
	})
	for _, la := range b.overflowed[core].Keys() {
		b.h.InvalidateLLCLine(la)
	}
	b.overflowed[core].Clear()
	c.Sig.Clear()
	if b.onAbort != nil {
		b.onAbort(core, at)
	}
}

// begin resets per-core state and subscribes to the fallback lock so a
// software-fallback acquisition aborts the hardware transaction.
func (b *htmBase) begin(core int, c txn.Clock) {
	ctx := b.ctxs[core]
	for {
		c.AdvanceTo(ctx.CompletionAt)
		ctx.BeginReset()
		b.overflowed[core].Clear()
		v, r := b.h.Load(core, fallbackLockAddr, c.Now(), true)
		c.AdvanceTo(r.Done)
		if r.Aborted || ctx.Doomed {
			b.abort(core, stats.AbortConflict, c.Now())
			ctx.State = htm.Idle
			c.Advance(b.cfg.BackoffBase)
			continue
		}
		if v != 0 {
			b.abort(core, stats.AbortConflict, c.Now())
			ctx.State = htm.Idle
			c.Advance(txn.Backoff(b.cfg, 2))
			continue
		}
		return
	}
}

// read performs a transactional load, aborting on a lost conflict.
func (b *htmBase) read(core int, c txn.Clock, addr uint64) uint64 {
	ctx := b.ctxs[core]
	if ctx.Doomed || ctx.State != htm.Active {
		txn.AbortNow(ctx.Reason)
	}
	v, r := b.h.Load(core, addr, c.Now(), true)
	c.AdvanceTo(r.Done)
	if r.Aborted {
		b.abort(core, stats.AbortConflict, c.Now())
		txn.AbortNow(stats.AbortConflict)
	}
	if ctx.Doomed || ctx.State != htm.Active {
		txn.AbortNow(ctx.Reason)
	}
	ctx.ReadLines.Add(b.h.Align(addr))
	return v
}

// write performs a transactional store, aborting on a lost conflict.
func (b *htmBase) write(core int, c txn.Clock, addr uint64, val uint64) {
	ctx := b.ctxs[core]
	if ctx.Doomed || ctx.State != htm.Active {
		txn.AbortNow(ctx.Reason)
	}
	r := b.h.Store(core, addr, val, c.Now(), true)
	c.AdvanceTo(r.Done)
	if r.Aborted {
		b.abort(core, stats.AbortConflict, c.Now())
		txn.AbortNow(stats.AbortConflict)
	}
	if ctx.Doomed || ctx.State != htm.Active {
		txn.AbortNow(ctx.Reason)
	}
	ctx.WriteLines.Add(b.h.Align(addr))
}

// commitVisibility performs the HTM commit point for visibility: read bits,
// the signature and write bits are flash-cleared so the write set becomes
// non-speculative, and any sticky LLC state is released.
func (b *htmBase) commitVisibility(core int) {
	ctx := b.ctxs[core]
	b.h.L1(core).ForEachTx(func(l *cache.Line) {
		l.R = false
		l.W = false
	})
	for _, la := range b.overflowed[core].Keys() {
		if ll := b.h.LLC().Peek(la); ll != nil {
			ll.Sticky = false
		}
	}
	ctx.Sig.Clear()
	ctx.State = htm.Committed
}

// finishTx moves the context back to Idle and records per-transaction stats.
func (b *htmBase) finishTx(core int, c txn.Clock, res *txn.ExecResult) {
	ctx := b.ctxs[core]
	cst := b.env.Stats.Core(core)
	cst.Commits++
	cst.WriteSetLines += uint64(ctx.WriteLines.Len())
	cst.ReadSetLines += uint64(ctx.ReadLines.Len())
	cst.TxCycles += c.Now() - res.Start
	b.overflowed[core].Clear()
	ctx.State = htm.Idle
	res.End = c.Now()
	res.Committed = true
}

// recordAbort updates abort statistics and applies the abort penalty/backoff.
func (b *htmBase) recordAbort(core int, c txn.Clock, reason stats.AbortReason, attempt int) {
	cst := b.env.Stats.Core(core)
	cst.Aborts++
	cst.AbortsByReason[reason]++
	c.Advance(b.cfg.AbortPenalty + txn.Backoff(b.cfg, attempt))
	c.AdvanceTo(b.ctxs[core].CompletionAt)
}

// runFallback executes t under the single global lock. durable selects
// whether the fallback also performs software logging and in-place flushing
// (persistent designs) or only visibility (NP).
func (b *htmBase) runFallback(core int, c txn.Clock, t *txn.Transaction, durable bool, log *wal.ThreadLog) {
	c.AdvanceTo(locks.SpinAcquire(b.h, core, c, fallbackLockAddr, 1, txn.Backoff(b.cfg, 1)))
	dirty := htm.NewLineSet(16)
	ftx := &plainTx{b: b, core: core, clock: c, dirty: dirty, perWriteCost: b.cfg.FlushIssueLatency}
	_, _, _ = txn.Attempt(t.Body, ftx)
	if durable && log != nil {
		txid := log.BeginTx()
		persist := c.Now()
		for _, la := range dirty.Keys() {
			rec := &wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: la, Data: b.h.LineSnapshot(core, la)}
			if done, err := log.Append(rec, c.Now()); err == nil && done > persist {
				persist = done
			}
			c.Advance(b.cfg.FlushIssueLatency)
		}
		c.AdvanceTo(persist)
		c.Advance(b.cfg.FenceLatency)
		if done, err := log.Append(&wal.Record{Type: wal.RecCommit, TxID: txid}, c.Now()); err == nil {
			c.AdvanceTo(done)
		}
		flushed := c.Now()
		for _, la := range dirty.Keys() {
			if done := b.h.FlushLine(core, la, c.Now()); done > flushed {
				flushed = done
			}
		}
		c.AdvanceTo(flushed)
		if done, err := log.Append(&wal.Record{Type: wal.RecComplete, TxID: txid}, c.Now()); err == nil {
			c.AdvanceTo(done)
		}
		log.EndTx(txid)
	}
	sr := b.h.Store(core, fallbackLockAddr, 0, c.Now(), false)
	c.AdvanceTo(sr.Done)
	b.env.Stats.Core(core).WriteSetLines += uint64(dirty.Len())
}

// plainTx performs non-transactional, timed accesses (fallback paths and the
// lock-based designs build on it).
type plainTx struct {
	b            *htmBase
	core         int
	clock        txn.Clock
	dirty        *htm.LineSet
	perWriteCost uint64
}

// Read implements txn.Tx.
func (t *plainTx) Read(addr uint64) uint64 {
	v, r := t.b.h.Load(t.core, addr, t.clock.Now(), false)
	t.clock.AdvanceTo(r.Done)
	return v
}

// Write implements txn.Tx.
func (t *plainTx) Write(addr uint64, val uint64) {
	r := t.b.h.Store(t.core, addr, val, t.clock.Now(), false)
	t.clock.AdvanceTo(r.Done)
	if t.dirty != nil {
		t.dirty.Add(t.b.h.Align(addr))
	}
	if t.perWriteCost > 0 {
		t.clock.Advance(t.perWriteCost)
	}
}
