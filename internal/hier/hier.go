// Package hier models the on-chip memory hierarchy of the simulated machine:
// per-core private L1 data caches and a shared, inclusive last-level cache
// (LLC) that holds the MESI directory (coherence state, owner and sharer
// vector per line), backed by the persistent-memory controller.
//
// Transactional behaviour is not hard-wired here. The hierarchy exposes the
// exact hook points the paper uses — a forwarded request arriving at an
// owning L1, a write-set line being evicted from the L1, an LLC victim that
// still belongs to somebody's transaction — through the Arbiter interface,
// which each HTM design implements. Lock-based designs plug in NopArbiter and
// get a plain MESI hierarchy.
//
// Sticky state (LogTM's, which DHTM borrows, §III-C) is a write-set line that
// overflowed from its owner's L1 while the directory keeps pointing at the
// owner. The hierarchy records only the directory owner; whether the line
// overflowed is the arbiter's to say (Arbiter.Overflowed), and one rule,
// sticky, combines the two wherever the hierarchy needs it.
package hier

import (
	"fmt"
	"sync"

	"dhtm/internal/cache"
	"dhtm/internal/config"
	"dhtm/internal/memdev"
	"dhtm/internal/stats"
)

// Arbiter is implemented by transactional designs to resolve the events the
// coherence protocol exposes. All callbacks run on the simulation goroutine
// that currently holds the scheduling token.
type Arbiter interface {
	// InTx reports whether core currently has a hardware transaction whose
	// speculative state must be protected (Active or committed-but-not-yet-
	// complete).
	InTx(core int) bool

	// SignatureContains reports whether core's read-set overflow signature
	// may contain addr (false positives allowed, false negatives not).
	SignatureContains(core int, addr uint64) bool

	// OnConflict is invoked when requester's access to addr (write=true for a
	// store/ownership request) conflicts with owner's transaction. The
	// arbiter applies the conflict-resolution policy: it may abort owner's
	// transaction (and return true so the access proceeds), decide there is
	// no real conflict — e.g. owner is committed and merely completing, in
	// which case DHTM writes sentinel records — and return true, or return
	// false meaning the requester must abort its own transaction.
	OnConflict(requester, owner int, addr uint64, write, requesterTx bool, at uint64) bool

	// OnWriteSetEviction is invoked when a line with the transactional write
	// bit set must leave core's L1. Returning true lets the line overflow to
	// the LLC in sticky state (DHTM), after the design added it to the set
	// Overflowed reports; returning false means the transaction was aborted
	// instead (RTM-like designs).
	OnWriteSetEviction(core int, addr uint64, at uint64) bool

	// OnReadSetEviction is invoked when a line with the read bit set silently
	// leaves core's L1; the design adds it to the read-set signature.
	OnReadSetEviction(core int, addr uint64, at uint64)

	// OnLLCTxEviction is invoked when an LLC victim still belongs to core's
	// transaction (sticky overflowed write-set line, or a back-invalidation
	// of a transactional L1 line). The design aborts the transaction — this
	// is DHTM's LLC capacity limit.
	OnLLCTxEviction(core int, addr uint64, at uint64)

	// Overflowed reports whether the line at la is in core's set of
	// write-set lines that overflowed from its L1 to the LLC and have not
	// yet been completed or invalidated.
	Overflowed(core int, la uint64) bool
}

// NopArbiter is the Arbiter for non-transactional (lock-based) designs.
type NopArbiter struct{}

// InTx always reports false.
func (NopArbiter) InTx(int) bool { return false }

// SignatureContains always reports false.
func (NopArbiter) SignatureContains(int, uint64) bool { return false }

// OnConflict always lets the access proceed.
func (NopArbiter) OnConflict(int, int, uint64, bool, bool, uint64) bool { return true }

// OnWriteSetEviction always allows the eviction.
func (NopArbiter) OnWriteSetEviction(int, uint64, uint64) bool { return true }

// OnReadSetEviction does nothing.
func (NopArbiter) OnReadSetEviction(int, uint64, uint64) {}

// OnLLCTxEviction does nothing.
func (NopArbiter) OnLLCTxEviction(int, uint64, uint64) {}

// Overflowed always reports false.
func (NopArbiter) Overflowed(int, uint64) bool { return false }

// Result describes the outcome of one timed hierarchy operation.
type Result struct {
	// Done is the cycle at which the operation completes (data available for
	// loads, globally ordered for stores, durable for flushes/write-backs).
	Done uint64
	// Aborted is set when the requester lost a conflict and must abort its
	// transaction instead of completing the access.
	Aborted bool
	// ConflictWith is the owning core that won the conflict when Aborted.
	ConflictWith int
	// Level records where the access was satisfied: 1 = L1, 2 = LLC, 3 = NVM.
	Level int
}

// Hierarchy is the two-level cache system shared by all designs.
type Hierarchy struct {
	cfg config.Config
	arb Arbiter
	st  *stats.Stats
	// lineMask is cfg.LineSize-1 (a power of two minus one, as cache.New
	// requires): Align and wordIdx read it instead of copying cfg into
	// a value-receiver Config method.
	lineMask uint64

	l1s []*cache.Cache
	llc *cache.Cache
	ctl *memdev.Controller

	// The watch set: bit t of watchMask is set while core t sleeps until its
	// L1 copy of line watchLine[t] may have changed (see Watch).
	watchMask uint64
	watchLine []uint64
	waker     Waker
}

// Waker wakes a core sleeping on a watched line. The engine's clock
// implements it; the hierarchy only needs to say which core to wake.
type Waker interface {
	Wake(core int)
}

// cacheGeom keys the free lists: caches are interchangeable exactly when
// their geometry matches.
type cacheGeom struct{ size, ways, line int }

// cacheFree recycles cache arrays across cells. An 8 MB LLC is a ~14 MB Line
// slab whose allocation and zeroing dominated cell construction; with O(1)
// generation-based Clear, a recycled array is indistinguishable from a fresh
// one, so sweeps reuse arrays instead of re-allocating per cell. It is a
// free list per geometry, not a sync.Pool: a garbage collection does not
// empty it, so whether an array is reused does not depend on GC timing. An
// array is only allocated when its geometry's list is empty, so each list
// holds at most as many arrays as were ever live at once.
var cacheFree = struct {
	sync.Mutex
	lists map[cacheGeom][]*cache.Cache
}{lists: make(map[cacheGeom][]*cache.Cache)}

// newPooledCache returns a cleared cache of the given geometry, recycled when
// one is available.
func newPooledCache(size, ways, line int) *cache.Cache {
	g := cacheGeom{size, ways, line}
	cacheFree.Lock()
	free := cacheFree.lists[g]
	var c *cache.Cache
	if n := len(free); n > 0 {
		c, cacheFree.lists[g] = free[n-1], free[:n-1]
	}
	cacheFree.Unlock()
	if c == nil {
		return cache.New(size, ways, line)
	}
	c.Clear()
	return c
}

// recycleCache returns a cache array to its geometry's free list.
func recycleCache(c *cache.Cache) {
	g := cacheGeom{size: c.Lines() * c.LineSize(), ways: c.Ways(), line: c.LineSize()}
	cacheFree.Lock()
	cacheFree.lists[g] = append(cacheFree.lists[g], c)
	cacheFree.Unlock()
}

// New builds the hierarchy described by cfg on top of the given memory
// controller. The arbiter defaults to NopArbiter until SetArbiter is called.
// Cache arrays are drawn from per-geometry free lists; call Release when
// the hierarchy is done to return them.
func New(cfg config.Config, ctl *memdev.Controller, st *stats.Stats) *Hierarchy {
	h := &Hierarchy{
		cfg:      cfg,
		arb:      NopArbiter{},
		st:       st,
		lineMask: uint64(cfg.LineSize - 1),
		llc:      newPooledCache(cfg.LLCSize, cfg.LLCWays, cfg.LineSize),
		ctl:      ctl,

		watchLine: make([]uint64, cfg.NumCores),
	}
	for i := 0; i < cfg.NumCores; i++ {
		h.l1s = append(h.l1s, newPooledCache(cfg.L1Size, cfg.L1Ways, cfg.LineSize))
	}
	return h
}

// Release returns the hierarchy's cache arrays to the free lists. The
// hierarchy must not be used afterwards.
func (h *Hierarchy) Release() {
	if h.llc == nil {
		return
	}
	recycleCache(h.llc)
	for _, l1 := range h.l1s {
		recycleCache(l1)
	}
	h.llc, h.l1s = nil, nil
}

// SetArbiter installs the transactional design's conflict arbiter.
func (h *Hierarchy) SetArbiter(a Arbiter) {
	if a == nil {
		a = NopArbiter{}
	}
	h.arb = a
}

// Config returns the system configuration.
func (h *Hierarchy) Config() config.Config { return h.cfg }

// Controller returns the persistent-memory controller.
func (h *Hierarchy) Controller() *memdev.Controller { return h.ctl }

// L1 returns core's private L1 cache. Designs flash-clear its transactional
// bits at commit and abort with ForEachTx; the hierarchy sets the bits on
// transactional accesses.
func (h *Hierarchy) L1(core int) *cache.Cache { return h.l1s[core] }

// LLC returns the shared last-level cache.
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// Align returns the line-aligned address for addr.
func (h *Hierarchy) Align(addr uint64) uint64 { return addr &^ h.lineMask }

// Crash discards all volatile state (every cache) while leaving persistent
// memory untouched. It is the failure model used by the recovery tests.
func (h *Hierarchy) Crash() {
	for _, l1 := range h.l1s {
		l1.Clear()
	}
	h.llc.Clear()
}

// DrainClean writes every dirty line in the hierarchy back to persistent
// memory without invalidating it. It is used by non-crashing shutdowns and by
// verification helpers that want the durable image to reflect all committed
// work.
func (h *Hierarchy) DrainClean() {
	// L1 dirty lines propagate to the LLC first, then the LLC flushes.
	for _, l1 := range h.l1s {
		l1.ForEach(func(l *cache.Line) {
			if l.Dirty {
				h.copyToLLC(l)
				l.Dirty = false
			}
		})
	}
	h.llc.ForEach(func(l *cache.Line) {
		if l.Dirty {
			h.ctl.PersistLine(l.Addr, l.Data, memdev.TrafficData)
			l.Dirty = false
		}
	})
}

// copyToLLC merges an L1 line's data into the LLC copy, creating it if the
// inclusive copy was somehow dropped.
func (h *Hierarchy) copyToLLC(l *cache.Line) *cache.Line {
	ll := h.llc.Peek(l.Addr)
	if ll == nil {
		// Re-establish inclusion without timing (only used on untimed paths).
		victim := h.llc.Victim(l.Addr)
		if victim.Valid() && victim.Dirty {
			h.ctl.PersistLine(victim.Addr, victim.Data, memdev.TrafficData)
		}
		ll = h.llc.PlaceAt(victim, l.Addr, cache.Shared, l.Data)
	}
	ll.Data = l.Data
	ll.Dirty = true
	return ll
}

// String summarises occupancy, for debugging.
func (h *Hierarchy) String() string {
	dirty := h.llc.CountIf(func(l *cache.Line) bool { return l.Dirty })
	return fmt.Sprintf("hier{cores=%d llcLines=%d dirty=%d}", len(h.l1s), h.llc.CountIf(func(*cache.Line) bool { return true }), dirty)
}
