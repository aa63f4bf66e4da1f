package hier

import (
	"dhtm/internal/cache"
	"dhtm/internal/memdev"
)

// FlushLine models a clwb issued by core for the line containing addr: the
// most up-to-date copy (L1, then LLC) is written back to persistent memory
// and left in the caches in a clean state. The returned cycle is when the
// data is durable; if no dirty copy exists the flush completes immediately.
func (h *Hierarchy) FlushLine(core int, addr uint64, at uint64) uint64 {
	la := h.Align(addr)
	if l := h.l1s[core].Peek(la); l != nil && l.Dirty {
		done := h.ctl.WriteLine(la, l.Data, at, memdev.TrafficData)
		l.Dirty = false
		if ll := h.llc.Peek(la); ll != nil {
			ll.Data = l.Data
			ll.Dirty = false
		}
		return done
	}
	if ll := h.llc.Peek(la); ll != nil && ll.Dirty {
		done := h.ctl.WriteLine(la, ll.Data, at, memdev.TrafficData)
		ll.Dirty = false
		return done
	}
	return at
}

// CompleteL1Line applies the functional effect of a commit-completion
// write-back whose timing was already reserved at commit: core's L1 copy of
// the line is written to persistent memory and to the inclusive LLC copy, and
// its transactional/dirty bits are cleared. No bandwidth is charged. It
// reports whether the line was present.
func (h *Hierarchy) CompleteL1Line(core int, addr uint64) bool {
	la := h.Align(addr)
	l := h.l1s[core].Peek(la)
	if l == nil || !l.Valid() {
		return false
	}
	h.ctl.PersistLine(la, l.Data, memdev.TrafficData)
	l.W = false
	l.Dirty = false
	if ll := h.llc.Peek(la); ll != nil {
		ll.Data = l.Data
		ll.Dirty = false
	}
	return true
}

// CompleteLLCLine applies the functional effect of completing an overflowed
// write-set line: the LLC copy is written to persistent memory and released
// to a clean, unowned state. No bandwidth is charged. It reports whether the
// line was present.
func (h *Hierarchy) CompleteLLCLine(addr uint64) bool {
	la := h.Align(addr)
	ll := h.llc.Peek(la)
	if ll == nil || !ll.Valid() {
		return false
	}
	h.ctl.PersistLine(la, ll.Data, memdev.TrafficData)
	ll.Dirty = false
	ll.Owner = cache.NoOwner
	ll.Sharers = 0
	ll.State = cache.Shared
	return true
}

// InvalidateLLCLine drops the LLC copy of the line containing addr (the
// overflow-list processing step of DHTM's abort completion). The durable
// pre-transaction value remains in persistent memory.
func (h *Hierarchy) InvalidateLLCLine(addr uint64) {
	la := h.Align(addr)
	if h.watchMask != 0 {
		h.wakeLine(la)
	}
	if ll := h.llc.Peek(la); ll != nil {
		ll.Reset()
	}
}

// InvalidateL1Line drops core's L1 copy of the line containing addr.
func (h *Hierarchy) InvalidateL1Line(core int, addr uint64) {
	la := h.Align(addr)
	if h.watchMask != 0 {
		h.wakeCopy(core, la)
	}
	h.l1s[core].Invalidate(la)
}

// ReleaseOwnership clears any stale directory ownership core holds on the
// line containing addr without touching the data. Designs use it when
// cleaning up after aborts so later accesses are not forwarded to an L1 that
// no longer has the line.
func (h *Hierarchy) ReleaseOwnership(core int, addr uint64) {
	la := h.Align(addr)
	if ll := h.llc.Peek(la); ll != nil && ll.Owner == core {
		ll.Owner = cache.NoOwner
		if ll.State == cache.Modified {
			ll.State = cache.Shared
		}
	}
}

// LineSnapshot returns the most current value of the line containing addr,
// looking first at core's L1, then the LLC, then persistent memory. It is an
// untimed helper used by designs when composing log records.
func (h *Hierarchy) LineSnapshot(core int, addr uint64) memdev.Line {
	la := h.Align(addr)
	if l := h.l1s[core].Peek(la); l != nil && l.Valid() {
		return l.Data
	}
	if ll := h.llc.Peek(la); ll != nil && ll.Valid() {
		return ll.Data
	}
	return h.ctl.Store().ReadLine(la)
}

// PersistLineInPlace writes the given line value directly to persistent
// memory, charging bandwidth. Designs use it for completion work that is not
// tied to a cached copy (e.g. finishing a committed line that has been handed
// to another core).
func (h *Hierarchy) PersistLineInPlace(addr uint64, data memdev.Line, at uint64) uint64 {
	return h.ctl.WriteLine(h.Align(addr), data, at, memdev.TrafficData)
}
