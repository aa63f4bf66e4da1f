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
	"dhtm/internal/htm"
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

// htmBase is the shared HTM runtime plus the arbiter callbacks of the HTM
// baselines (NP, sdTM, LogTM-ATOM): a conflict with an Active transaction is
// resolved by the configured policy, and an L1 write-set eviction aborts
// (RTM) or overflows to the LLC (LogTM). DHTM has its own callbacks because
// of its committed-but-incomplete conflict window.
type htmBase struct {
	*htm.Runtime
	// allowOverflow lets write-set lines spill to the LLC (LogTM-ATOM); when
	// false an L1 write-set eviction aborts the transaction (RTM behaviour,
	// used by NP and sdTM).
	allowOverflow bool
}

// newHTMBase builds the runtime and installs it as the hierarchy's arbiter;
// the caller sets its hooks.
func newHTMBase(env *txn.Env, allowOverflow bool) *htmBase {
	b := &htmBase{Runtime: htm.NewRuntime(env, fallbackLockAddr), allowOverflow: allowOverflow}
	env.Hier.SetArbiter(b)
	return b
}

// InTx implements hier.Arbiter.
func (b *htmBase) InTx(core int) bool { return b.Ctxs[core].State == htm.Active }

// OnConflict implements hier.Arbiter with the configured resolution policy.
func (b *htmBase) OnConflict(requester, owner int, addr uint64, write, requesterTx bool, at uint64) bool {
	if b.Ctxs[owner].State != htm.Active {
		return true
	}
	if htm.OwnerShouldAbort(b.Cfg.ConflictPolicy, requesterTx) {
		b.Abort(owner, stats.AbortConflict, at)
		return true
	}
	return false
}

// OnWriteSetEviction implements hier.Arbiter: abort (RTM) or overflow
// (LogTM-style sticky state).
func (b *htmBase) OnWriteSetEviction(core int, addr uint64, at uint64) bool {
	c := b.Ctxs[core]
	if c.State != htm.Active {
		return true
	}
	if !b.allowOverflow {
		b.Abort(core, stats.AbortWriteCapacity, at)
		return false
	}
	c.Overflowed.Add(b.H.Align(addr))
	return true
}

// OnLLCTxEviction implements hier.Arbiter: losing LLC state aborts.
func (b *htmBase) OnLLCTxEviction(core int, addr uint64, at uint64) {
	b.Abort(core, stats.AbortLLCCapacity, at)
}

// commitVisibility performs the HTM commit point for visibility: read bits,
// the signature and write bits are flash-cleared so the write set becomes
// non-speculative, and any sticky LLC state is released.
func (b *htmBase) commitVisibility(core int) {
	ctx := b.Ctxs[core]
	b.H.L1(core).ForEachTx(func(l *cache.Line) {
		l.R = false
		l.W = false
	})
	for _, la := range ctx.Overflowed.Keys() {
		if ll := b.H.LLC().Peek(la); ll != nil {
			ll.Sticky = false
		}
	}
	ctx.Sig.Clear()
	ctx.State = htm.Committed
}

// persistFallback is the durable baselines' fallback persist sequence:
// Mnemosyne-style redo records for every dirty line, a fence, the commit
// record, in-place flushes so the log can be truncated, and the complete
// record.
func (b *htmBase) persistFallback(core int, c txn.Clock, txid uint64, dirty *htm.LineSet) {
	log := b.Env.Registry.Log(core)
	persist := c.Now()
	for _, la := range dirty.Keys() {
		rec := &wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: la, Data: b.H.LineSnapshot(core, la)}
		if done, err := log.Append(rec, c.Now()); err == nil && done > persist {
			persist = done
		}
		c.Advance(b.Cfg.FlushIssueLatency)
	}
	c.AdvanceTo(persist)
	c.Advance(b.Cfg.FenceLatency)
	if done, err := log.Append(&wal.Record{Type: wal.RecCommit, TxID: txid}, c.Now()); err == nil {
		c.AdvanceTo(done)
	}
	flushed := c.Now()
	for _, la := range dirty.Keys() {
		if done := b.H.FlushLine(core, la, c.Now()); done > flushed {
			flushed = done
		}
	}
	c.AdvanceTo(flushed)
	if done, err := log.Append(&wal.Record{Type: wal.RecComplete, TxID: txid}, c.Now()); err == nil {
		c.AdvanceTo(done)
	}
	log.EndTx(txid)
}
