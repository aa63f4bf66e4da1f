package baselines

import (
	"dhtm/internal/memdev"
	"dhtm/internal/txn"
)

// StaleUndoATOM is a deliberately broken ATOM variant used as a test fixture
// for the crashtest differential oracle. It is NOT registered in the design
// registry — internal/crashtest reaches it through Config.Factory.
//
// The bug it seeds is the class the undo baselines are most exposed to (and
// the class a real LogTM-ATOM write-snapshot bug in this repo once fell
// into): a stale pre-image in the undo record. Here the cache controller
// "optimizes" undo logging by caching the pre-image it captured the first
// time it logged a line and reusing it in later transactions instead of
// re-snapshotting coherent memory. The cached image is stale the moment any
// transaction — including the caching core's own — commits to the line, so
// a crash that rolls the later transaction back restores the pre-image from
// *before the earlier committed transaction*, silently erasing its durable
// update.
//
// Crucially, every per-point oracle short of the differential one is blind
// to this: the recovered image is a structurally valid former state, so the
// workload's Verify passes; the prefix oracle rolls back with the same
// poisoned undo records recovery reads, so it agrees with recovery; and a
// second recovery is still a no-op. Only serial re-execution of the
// committed transactions — ground truth no undo record can poison — sees
// the committed write missing.
type StaleUndoATOM struct {
	*ATOM
	// Stale counts the stale pre-images handed out: cached images that
	// differ from coherent memory, each one an undo record the seeded bug
	// actually poisoned. A test built on the fixture needs it above zero.
	Stale int
}

// NewStaleUndoATOM builds the broken fixture: ATOM whose undo pre-images
// come from a per-core cache filled the first time each line is logged.
func NewStaleUndoATOM(env *txn.Env) *StaleUndoATOM {
	a := NewATOM(env)
	s := &StaleUndoATOM{ATOM: a}
	prev := make([]map[uint64]memdev.Line, env.Cfg.NumCores)
	for i := range prev {
		prev[i] = make(map[uint64]memdev.Line)
	}
	a.preImage = func(core int, la uint64) memdev.Line {
		// BUG (seeded): reuse the pre-image cached when this core first
		// logged la instead of re-snapshotting coherent memory. Stale as
		// soon as any transaction has committed to la since.
		fresh := a.h.LineSnapshot(core, la)
		img, ok := prev[core][la]
		if !ok {
			img = fresh
			prev[core][la] = img
		}
		if img != fresh {
			s.Stale++
		}
		return img
	}
	return s
}

// Name implements txn.Runtime.
func (a *StaleUndoATOM) Name() string { return "StaleUndoATOM" }
