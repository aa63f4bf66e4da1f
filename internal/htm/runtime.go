package htm

import (
	"dhtm/internal/cache"
	"dhtm/internal/config"
	"dhtm/internal/hier"
	"dhtm/internal/locks"
	"dhtm/internal/stats"
	"dhtm/internal/txn"
)

// Hooks are the parts of an HTM design that differ between designs: how it
// logs, commits and aborts. Nil hooks do nothing. The arbiter callbacks that
// differ (InTx, OnConflict, OnWriteSetEviction, OnLLCTxEviction) are methods
// of the design type that embeds the Runtime.
type Hooks struct {
	// Complete finishes the previous transaction's completion phase. It runs
	// before every begin attempt waits for CompletionAt, and in Finish.
	// Designs without it have no completion phase: a commit takes the
	// context straight back to Idle.
	Complete func(core int, c txn.Clock)
	// Reset runs in every begin attempt once the context is reset, before
	// the fallback-lock subscription.
	Reset func(core int, at uint64)
	// Start runs once begin has succeeded, before the body.
	Start func(core int)
	// Write performs a transactional store; nil means the base Store.
	Write func(core int, c txn.Clock, addr, val uint64)
	// Commit reaches the commit point. False means the durable log
	// overflowed and the transaction was aborted instead.
	Commit func(core int, c txn.Clock) bool
	// Abort runs at the abort point, after the L1 sweep has discarded the
	// speculative state and the n overflowed LLC lines were invalidated.
	// Neither issues a durable write, so running the design's abort logging
	// after them keeps its place among the crash points.
	Abort func(core int, at uint64, n int)
	// Persist makes a fallback transaction durable before the fallback lock
	// is released: txid is its log transaction (opened before the body ran)
	// and dirty its written lines. Nil means a volatile fallback.
	Persist func(core int, c txn.Clock, txid uint64, dirty *LineSet)
	// GrowLog doubles the core's durable log after a log-overflow abort.
	GrowLog bool
}

// Runtime is the RTM-like hardware transactional memory every HTM design
// runs on: per-core contexts, begin with the fallback-lock subscription, the
// transactional accesses, the abort sweep, the retry loop and the
// single-global-lock software fallback. It implements txn.Runtime (minus
// Name) and the design-independent half of hier.Arbiter.
type Runtime struct {
	Env  *txn.Env
	Cfg  config.Config
	H    *hier.Hierarchy
	Ctxs []*Ctx
	// Hooks are the embedding design's; set them before the first Run.
	Hooks Hooks

	lockAddr uint64
	txs      []*tx
	ftxs     []*FallbackTx
}

// NewRuntime builds the shared runtime over env. lockAddr is the persistent
// word used as the software fallback's single global lock.
func NewRuntime(env *txn.Env, lockAddr uint64) *Runtime {
	rt := &Runtime{Env: env, Cfg: env.Cfg, H: env.Hier, lockAddr: lockAddr}
	for i := 0; i < env.Cfg.NumCores; i++ {
		rt.Ctxs = append(rt.Ctxs, NewCtx(env.Cfg))
		rt.txs = append(rt.txs, &tx{rt: rt, core: i})
		rt.ftxs = append(rt.ftxs, &FallbackTx{rt: rt, core: i, dirty: NewLineSet(16), read: NewLineSet(16)})
	}
	return rt
}

// Run implements txn.Runtime: hardware attempts with abort accounting and
// exponential backoff, then the software fallback once MaxRetries attempts
// have aborted.
func (rt *Runtime) Run(core int, c txn.Clock, t *txn.Transaction) txn.ExecResult {
	ctx := rt.Ctxs[core]
	cst := rt.Env.Stats.Core(core)
	res := txn.ExecResult{Start: c.Now()}
	tx := rt.txs[core]
	tx.clock = c
	// A finished run must not keep the engine reachable through the runtime.
	defer func() { tx.clock = nil }()
	for attempt := 0; attempt < rt.Cfg.MaxRetries; attempt++ {
		rt.begin(core, c)
		err, ok, reason := txn.Attempt(t.Body, tx)
		switch {
		case ok && err == nil && !ctx.Doomed && ctx.State == Active:
			if rt.Hooks.Commit(core, c) {
				if rt.Hooks.Complete == nil {
					ctx.Overflowed.Clear()
					ctx.State = Idle
				}
				cst.Commits++
				cst.WriteSetLines += uint64(ctx.WriteLines.Len())
				cst.ReadSetLines += uint64(ctx.ReadLines.Len())
				cst.TxCycles += c.Now() - res.Start
				res.Committed = true
				res.End = c.Now()
				return res
			}
			reason = stats.AbortLogOverflow
		case ok && err != nil:
			reason = stats.AbortExplicit
		case ok:
			// The body ran to completion but a remote conflict doomed the
			// transaction before it could commit.
			reason = ctx.Reason
		}
		// Cleanup has usually happened already, in the access that lost or
		// remotely by the winner; Abort is idempotent.
		rt.Abort(core, reason, c.Now())
		res.Aborts++
		cst.Aborts++
		cst.AbortsByReason[reason]++
		if reason == stats.AbortLogOverflow && rt.Hooks.GrowLog {
			rt.Env.Registry.GrowLog(core, 2)
		}
		c.Advance(rt.Cfg.AbortPenalty + txn.Backoff(rt.Cfg, attempt))
		c.AdvanceTo(ctx.CompletionAt)
	}
	rt.fallback(core, c, t, res.Start)
	res.Committed = true
	res.End = c.Now()
	return res
}

// Finish implements txn.Runtime: it drains the last transaction's
// completion phase into the core's clock and records the final cycle.
func (rt *Runtime) Finish(core int, c txn.Clock) {
	if rt.Hooks.Complete != nil {
		rt.Hooks.Complete(core, c)
	}
	c.AdvanceTo(rt.Ctxs[core].CompletionAt)
	rt.Env.Stats.Core(core).FinalCycle = c.Now()
}

// begin waits for the previous transaction's completion phase, resets the
// context and subscribes to the fallback lock, retrying while the lock is
// held or the subscription loses a conflict.
func (rt *Runtime) begin(core int, c txn.Clock) {
	ctx := rt.Ctxs[core]
	for {
		if rt.Hooks.Complete != nil {
			rt.Hooks.Complete(core, c)
		}
		c.AdvanceTo(ctx.CompletionAt)
		ctx.BeginReset()
		if rt.Hooks.Reset != nil {
			rt.Hooks.Reset(core, c.Now())
		}
		// Single-global-lock fallback interlock: reading the lock puts it in
		// the read set, so a software-fallback acquisition aborts this
		// hardware transaction.
		v, r := rt.H.Load(core, rt.lockAddr, c.Now(), true)
		c.AdvanceTo(r.Done)
		switch {
		case r.Aborted || ctx.Doomed:
			rt.Abort(core, stats.AbortConflict, c.Now())
			c.Advance(rt.Cfg.BackoffBase)
		case v != 0:
			// A fallback transaction holds the lock; retry once it has
			// likely drained.
			rt.Abort(core, stats.AbortConflict, c.Now())
			c.Advance(txn.Backoff(rt.Cfg, 2))
		default:
			if rt.Hooks.Start != nil {
				rt.Hooks.Start(core)
			}
			return
		}
	}
}

// Read performs a transactional load, aborting on a lost conflict.
func (rt *Runtime) Read(core int, c txn.Clock, addr uint64) uint64 {
	ctx := rt.Ctxs[core]
	if ctx.Doomed || ctx.State != Active {
		txn.AbortNow(ctx.Reason)
	}
	v, r := rt.H.Load(core, addr, c.Now(), true)
	c.AdvanceTo(r.Done)
	if r.Aborted {
		rt.Abort(core, stats.AbortConflict, c.Now())
		txn.AbortNow(stats.AbortConflict)
	}
	if ctx.Doomed || ctx.State != Active {
		txn.AbortNow(ctx.Reason)
	}
	ctx.ReadLines.Add(rt.H.Align(addr))
	return v
}

// Store performs a transactional store, aborting on a lost conflict. It is
// the base of every design's write; Hooks.Write extends it with logging.
func (rt *Runtime) Store(core int, c txn.Clock, addr, val uint64) {
	ctx := rt.Ctxs[core]
	if ctx.Doomed || ctx.State != Active {
		txn.AbortNow(ctx.Reason)
	}
	r := rt.H.Store(core, addr, val, c.Now(), true)
	c.AdvanceTo(r.Done)
	if r.Aborted {
		rt.Abort(core, stats.AbortConflict, c.Now())
		txn.AbortNow(stats.AbortConflict)
	}
	if ctx.Doomed || ctx.State != Active {
		// A capacity eviction triggered by our own fill aborted us.
		txn.AbortNow(ctx.Reason)
	}
	ctx.WriteLines.Add(rt.H.Align(addr))
}

// Abort takes core's Active transaction to its abort point: it is doomed,
// speculative L1 lines are invalidated and read bits cleared, overflowed LLC
// lines are invalidated, and the design's abort work runs. It is idempotent:
// only an Active transaction is aborted.
func (rt *Runtime) Abort(core int, reason stats.AbortReason, at uint64) {
	ctx := rt.Ctxs[core]
	if ctx.State != Active {
		return
	}
	ctx.Doom(reason)
	ctx.State = Aborted
	rt.H.L1(core).ForEachTx(func(l *cache.Line) {
		if l.W {
			addr := l.Addr
			l.Reset()
			rt.H.ReleaseOwnership(core, addr)
			return
		}
		l.R = false
	})
	n := ctx.Overflowed.Len()
	for _, la := range ctx.Overflowed.Keys() {
		rt.H.InvalidateLLCLine(la)
	}
	ctx.Overflowed.Clear()
	ctx.Sig.Clear()
	if rt.Hooks.Abort != nil {
		rt.Hooks.Abort(core, at, n)
	}
}

// fallback runs t under the single global lock with plain accesses, makes
// it durable through Hooks.Persist and records it as a committed fallback.
func (rt *Runtime) fallback(core int, c txn.Clock, t *txn.Transaction, start uint64) {
	ctx := rt.Ctxs[core]
	// The lock store conflicts with every hardware transaction's read set,
	// aborting them.
	c.AdvanceTo(locks.SpinAcquire(rt.H, core, c, rt.lockAddr, 1, txn.Backoff(rt.Cfg, 1)))
	if rt.Hooks.Persist != nil {
		// Opened before the body: other cores read the current txid while
		// the body runs.
		ctx.TxID = rt.Env.Registry.Log(core).BeginTx()
	}
	ftx := rt.ftxs[core]
	ftx.clock = c
	ftx.dirty.Clear()
	ftx.read.Clear()
	// The fallback may not fail: an explicit abort commits what the body
	// wrote before it.
	_, _, _ = txn.Attempt(t.Body, ftx)
	ftx.clock = nil
	if rt.Hooks.Persist != nil {
		rt.Hooks.Persist(core, c, ctx.TxID, ftx.dirty)
	}
	sr := rt.H.Store(core, rt.lockAddr, 0, c.Now(), false)
	c.AdvanceTo(sr.Done)

	cst := rt.Env.Stats.Core(core)
	cst.Fallbacks++
	cst.AbortsByReason[stats.AbortFallback]++
	cst.Commits++
	cst.WriteSetLines += uint64(ftx.dirty.Len())
	cst.ReadSetLines += uint64(ftx.read.Len())
	cst.TxCycles += c.Now() - start
}

// SignatureContains implements hier.Arbiter.
func (rt *Runtime) SignatureContains(core int, addr uint64) bool {
	c := rt.Ctxs[core]
	return c.State == Active && c.Sig.Contains(rt.H.Align(addr))
}

// OnReadSetEviction implements hier.Arbiter: evicted read-set lines move
// into the read-set overflow signature.
func (rt *Runtime) OnReadSetEviction(core int, addr uint64, _ uint64) {
	if c := rt.Ctxs[core]; c.State == Active {
		c.Sig.Add(rt.H.Align(addr))
	}
}

// OnOwnerReread implements hier.Arbiter: a write-set line this core
// overflowed to the LLC is re-read into the L1; mark it written again so an
// abort invalidates it.
func (rt *Runtime) OnOwnerReread(core int, addr uint64, line *cache.Line, _ uint64) {
	if c := rt.Ctxs[core]; c.State == Active && c.Overflowed.Contains(rt.H.Align(addr)) {
		rt.H.L1(core).MarkWrite(line)
	}
}

// tx adapts a core's transactional accesses to txn.Tx.
type tx struct {
	rt    *Runtime
	core  int
	clock txn.Clock
}

// Read implements txn.Tx.
func (t *tx) Read(addr uint64) uint64 { return t.rt.Read(t.core, t.clock, addr) }

// Write implements txn.Tx.
func (t *tx) Write(addr uint64, val uint64) {
	if w := t.rt.Hooks.Write; w != nil {
		w(t.core, t.clock, addr, val)
		return
	}
	t.rt.Store(t.core, t.clock, addr, val)
}

// FallbackTx is the software fallback's txn.Tx: plain timed accesses under
// the global lock, tracking the read and dirty line sets. Each store also
// pays the issue cost of its software log write.
type FallbackTx struct {
	rt    *Runtime
	core  int
	clock txn.Clock
	dirty *LineSet
	read  *LineSet
}

// Read implements txn.Tx.
func (t *FallbackTx) Read(addr uint64) uint64 {
	v, r := t.rt.H.Load(t.core, addr, t.clock.Now(), false)
	t.clock.AdvanceTo(r.Done)
	t.read.Add(t.rt.H.Align(addr))
	return v
}

// Write implements txn.Tx.
func (t *FallbackTx) Write(addr uint64, val uint64) {
	r := t.rt.H.Store(t.core, addr, val, t.clock.Now(), false)
	t.clock.AdvanceTo(r.Done)
	t.dirty.Add(t.rt.H.Align(addr))
	t.clock.Advance(t.rt.Cfg.FlushIssueLatency)
}
