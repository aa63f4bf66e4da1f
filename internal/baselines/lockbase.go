package baselines

import (
	"dhtm/internal/config"
	"dhtm/internal/hier"
	"dhtm/internal/htm"
	"dhtm/internal/locks"
	"dhtm/internal/txn"
)

// lockBase is the shared machinery of the lock-based designs (SO and ATOM):
// a lock table in persistent memory and two-phase locking with sorted
// acquisition over each transaction's pre-declared lock set. Visibility is
// entirely lock-based, so these designs use the hierarchy's NopArbiter.
type lockBase struct {
	env   *txn.Env
	cfg   config.Config
	h     *hier.Hierarchy
	table *locks.Table
	txs   []*htm.PlainTx // per core
}

func newLockBase(env *txn.Env) *lockBase {
	b := &lockBase{
		env:   env,
		cfg:   env.Cfg,
		h:     env.Hier,
		table: locks.NewTable(env.Cfg, lockTableBase, lockTableSlots),
	}
	for i := 0; i < env.Cfg.NumCores; i++ {
		b.txs = append(b.txs, htm.NewPlainTx(env.Hier, i))
	}
	return b
}

// acquire takes every lock in the transaction's lock set (sorted and
// deduplicated) and returns the resolved addresses for release.
func (b *lockBase) acquire(core int, c txn.Clock, t *txn.Transaction) []uint64 {
	addrs := b.table.SortedAddrs(t.LockIDs)
	b.table.AcquireAll(b.h, core, c, addrs)
	return addrs
}

// release drops the locks in reverse order.
func (b *lockBase) release(core int, c txn.Clock, addrs []uint64) {
	b.table.ReleaseAll(b.h, core, c, addrs)
}

// finish records the committed transaction's statistics and ends it.
func (b *lockBase) finish(core int, c txn.Clock, res *txn.ExecResult, t *htm.PlainTx) {
	t.Commit(b.env.Stats.Core(core), res.Start)
	res.End = c.Now()
	res.Committed = true
}

// Finish implements txn.Runtime.
func (b *lockBase) Finish(core int, c txn.Clock) {
	b.env.Stats.Core(core).FinalCycle = c.Now()
}
