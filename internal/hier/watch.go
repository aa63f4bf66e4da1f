package hier

import "math/bits"

// Watch registers core as sleeping until its L1 copy of the line containing
// addr may have changed: from now until Unwatch, every operation of another
// core (or of design code acting on core's behalf) that can invalidate or
// alter that copy calls w.Wake(core). The set of wake events is a superset —
// a spurious wake only costs the sleeper one more poll — but never misses a
// change, which is what lets a spinning core skip polls that would all have
// hit in its L1 and read the same value.
func (h *Hierarchy) Watch(core int, addr uint64, w Waker) {
	h.watchLine[core] = h.Align(addr)
	h.watchMask |= 1 << uint(core)
	h.waker = w
}

// Unwatch removes core from the watch set.
func (h *Hierarchy) Unwatch(core int) {
	h.watchMask &^= 1 << uint(core)
}

// ReplayHits accounts n L1 hits on the line containing addr that core skipped
// while it slept on it: the hit counter advances by n and, if the line is
// still present, it gets one LRU touch. Only core touches its own L1's LRU
// order, and that order is relative within a set, so one touch leaves the
// set ordered exactly as n touches would.
func (h *Hierarchy) ReplayHits(core int, addr uint64, n uint64) {
	h.st.Core(core).L1Hits += n
	h.l1s[core].Lookup(h.Align(addr))
}

// wakeLine wakes every watcher of line la. Callers check watchMask first, so
// the common case with nobody asleep costs one compare.
func (h *Hierarchy) wakeLine(la uint64) {
	for m := h.watchMask; m != 0; m &= m - 1 {
		if t := bits.TrailingZeros64(m); h.watchLine[t] == la {
			h.waker.Wake(t)
		}
	}
}

// wakeCopy wakes core t if it is watching line la, whose copy in t's L1 is
// about to be invalidated or downgraded.
func (h *Hierarchy) wakeCopy(t int, la uint64) {
	if h.watchMask&(1<<uint(t)) != 0 && h.watchLine[t] == la {
		h.waker.Wake(t)
	}
}

// wakeCore wakes core t if it is watching any line: design code the arbiter
// runs on t's behalf may reach into t's L1.
func (h *Hierarchy) wakeCore(t int) {
	if h.watchMask&(1<<uint(t)) != 0 {
		h.waker.Wake(t)
	}
}
