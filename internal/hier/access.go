package hier

import (
	"dhtm/internal/cache"
	"dhtm/internal/memdev"
)

// Load performs a timed read of the 8-byte word at addr by core. tx marks the
// access as transactional: on a hit the line's read bit is set and conflicts
// are resolved through the arbiter. A Result with Aborted=true means the
// requester lost a conflict and must abort its transaction; the word value is
// then meaningless.
func (h *Hierarchy) Load(core int, addr uint64, at uint64, tx bool) (uint64, Result) {
	la := h.Align(addr)
	l1 := h.l1s[core]
	cs := h.st.Core(core)

	if line := l1.Lookup(la); line != nil {
		cs.L1Hits++
		if tx {
			l1.MarkRead(line)
		}
		return line.Data[h.wordIdx(addr)], Result{Done: at + h.cfg.L1Latency, Level: 1}
	}
	cs.L1Misses++

	line, res := h.fill(core, la, at+h.cfg.L1Latency, false, tx)
	if res.Aborted {
		return 0, res
	}
	if tx {
		l1.MarkRead(line)
	}
	return line.Data[h.wordIdx(addr)], res
}

// Store performs a timed write of the 8-byte word at addr by core. tx marks
// the access as transactional: the write bit is set on the L1 line and
// conflicts are resolved through the arbiter.
func (h *Hierarchy) Store(core int, addr uint64, val uint64, at uint64, tx bool) Result {
	la := h.Align(addr)
	l1 := h.l1s[core]
	cs := h.st.Core(core)

	if line := l1.Lookup(la); line != nil {
		if line.State == cache.Modified {
			cs.L1Hits++
			if tx && !line.W && line.Dirty {
				// First transactional store to a line holding pre-transaction
				// dirty data: write that data back to the LLC first so an
				// abort (which invalidates the speculative L1 copy) cannot
				// lose it. Commercial HTMs perform the same eager write-back.
				h.copyToLLC(line)
			}
			line.Data[h.wordIdx(addr)] = val
			line.Dirty = true
			if tx {
				l1.MarkWrite(line)
			}
			return Result{Done: at + h.cfg.L1Latency, Level: 1}
		}
		// Upgrade: Shared in L1, need exclusive ownership from the directory.
		cs.L1Hits++
		done := at + h.cfg.L1Latency + h.cfg.LLCLatency
		ll := h.llc.Lookup(la)
		if ll == nil {
			// Inclusion was broken only if a back-invalidation raced us, which
			// the sequential simulation prevents; treat defensively as a miss.
			l1.Invalidate(la)
			return h.storeMiss(core, addr, val, at, tx)
		}
		ok, invDone := h.invalidateSharers(core, la, ll, tx, done)
		if !ok {
			return Result{Done: invDone, Aborted: true, ConflictWith: ll.Owner, Level: 2}
		}
		ll.Owner = core
		ll.State = cache.Modified
		ll.Sharers = 0
		ll.AddSharer(core)
		line.State = cache.Modified
		line.Data[h.wordIdx(addr)] = val
		line.Dirty = true
		if tx {
			l1.MarkWrite(line)
		}
		return Result{Done: invDone, Level: 2}
	}
	cs.L1Misses++
	return h.storeMiss(core, addr, val, at, tx)
}

// storeMiss handles a store whose line is absent from the requester's L1.
func (h *Hierarchy) storeMiss(core int, addr uint64, val uint64, at uint64, tx bool) Result {
	la := h.Align(addr)
	line, res := h.fill(core, la, at+h.cfg.L1Latency, true, tx)
	if res.Aborted {
		return res
	}
	line.State = cache.Modified
	line.Data[h.wordIdx(addr)] = val
	line.Dirty = true
	if tx {
		h.l1s[core].MarkWrite(line)
	}
	return res
}

// fill obtains the line at la for core (exclusive if forWrite), resolving
// directory state, forwarding, conflicts and L1/LLC victim handling, and
// installs it in the requester's L1. The returned *cache.Line is the L1 copy.
func (h *Hierarchy) fill(core int, la uint64, at uint64, forWrite, tx bool) (*cache.Line, Result) {
	cs := h.st.Core(core)
	done := at + h.cfg.LLCLatency
	level := 2

	ll := h.llc.Lookup(la)
	if ll == nil {
		cs.LLCMisses++
		var data memdev.Line
		var ready uint64
		data, ready = h.ctl.ReadLine(la, done)
		var abortRes Result
		ll, abortRes = h.llcAllocate(core, la, data, ready)
		if abortRes.Aborted {
			return nil, abortRes
		}
		done = ready
		level = 3
	} else {
		cs.LLCHits++
	}

	// Resolve current ownership.
	owner := ll.Owner
	rereadOwn := false
	switch {
	case owner == core:
		// Either a line this core stickily owns (overflowed write-set line)
		// or stale ownership left behind by a past transaction or silent
		// logic; the data in the LLC is authoritative.
		rereadOwn = h.sticky(ll, core)
	case owner >= 0:
		var res Result
		var ok bool
		ok, res = h.forwardFromOwner(core, owner, la, ll, forWrite, tx, done)
		if !ok {
			return nil, res
		}
		done = res.Done
		// Re-look the LLC line up: the owner's abort may have invalidated a
		// sticky copy, in which case the pre-transactional data must be
		// re-fetched from persistent memory.
		if ll = h.llc.Peek(la); ll == nil || !ll.Valid() {
			data, ready := h.ctl.ReadLine(la, done)
			var abortRes Result
			ll, abortRes = h.llcAllocate(core, la, data, ready)
			if abortRes.Aborted {
				return nil, abortRes
			}
			done = ready
			level = 3
		}
	}

	if forWrite {
		ok, invDone := h.invalidateSharers(core, la, ll, tx, done)
		if !ok {
			return nil, Result{Done: invDone, Aborted: true, ConflictWith: ll.Owner, Level: level}
		}
		done = invDone
		ll.Owner = core
		ll.State = cache.Modified
		ll.Sharers = 0
		ll.AddSharer(core)
	} else {
		if ll.Owner == core {
			// Keep ownership: the line stays part of this core's write set.
		} else {
			ll.Owner = cache.NoOwner
			if ll.State == cache.Modified {
				ll.State = cache.Shared
			}
		}
		ll.AddSharer(core)
	}

	// Install into the requester's L1, handling the L1 victim.
	l1 := h.l1s[core]
	newState := cache.Shared
	if forWrite || ll.Owner == core {
		newState = cache.Modified
	}
	way := l1.Victim(la)
	if way.Valid() {
		h.evictL1Victim(core, way, done)
		if tx && !h.arb.InTx(core) {
			// Making room aborted the requester's own transaction (a
			// capacity or log-overflow abort): nothing may be installed.
			return nil, Result{Done: done, Aborted: true, ConflictWith: core, Level: level}
		}
	}
	line := l1.PlaceAt(way, la, newState, ll.Data)
	if rereadOwn && tx && h.arb.InTx(core) {
		// Re-reading a line this core overflowed (§III-C "reread" corner
		// case): it is part of the write set again, so an abort must
		// invalidate it.
		l1.MarkWrite(line)
	}
	return line, Result{Done: done, Level: level}
}

// sticky reports whether the LLC line ll is in core t's sticky state: the
// directory names t as owner and t's transaction overflowed the line from its
// L1. Neither half suffices alone. The directory owner may be stale, left
// behind by a finished or aborted transaction, and t's overflow set may still
// list a line the directory has since handed to another core.
func (h *Hierarchy) sticky(ll *cache.Line, t int) bool {
	return ll.Owner == t && h.arb.Overflowed(t, ll.Addr)
}

// forwardFromOwner models a Fwd-GetS / Fwd-GetM arriving at the owning core's
// L1. It performs conflict detection (against the owner's L1 bits, or its
// sticky state when the line is not in its L1) and, when the access proceeds,
// transfers data and downgrades or invalidates the owner's copy.
// It returns ok=false when the *requester* must abort.
func (h *Hierarchy) forwardFromOwner(requester, owner int, la uint64, ll *cache.Line, forWrite, tx bool, at uint64) (bool, Result) {
	done := at + h.cfg.LLCLatency // extra hop to the owner and back
	ownerLine := h.l1s[owner].Peek(la)

	conflict := false
	if h.arb.InTx(owner) {
		switch {
		case ownerLine == nil:
			conflict = h.sticky(ll, owner)
		case ownerLine.W:
			conflict = true
		case forWrite && ownerLine.R:
			conflict = true
		}
	}
	if conflict {
		if h.watchMask != 0 {
			h.wakeCore(owner)
		}
		if !h.arb.OnConflict(requester, owner, la, forWrite, tx, done) {
			return false, Result{Done: done, Aborted: true, ConflictWith: owner, Level: 2}
		}
		// The owner either aborted or is merely completing a committed
		// transaction; its L1 state may have changed.
		ownerLine = h.l1s[owner].Peek(la)
	}

	if ownerLine != nil && ownerLine.Valid() {
		if h.watchMask != 0 {
			h.wakeCopy(owner, la)
		}
		if ownerLine.Dirty || ownerLine.W {
			ll.Data = ownerLine.Data
			ll.Dirty = true
		}
		if forWrite {
			ownerLine.Reset()
			ll.RemoveSharer(owner)
		} else {
			ownerLine.State = cache.Shared
			ownerLine.W = false
			ll.AddSharer(owner)
		}
	} else {
		ll.RemoveSharer(owner)
	}
	if ll.Owner == owner {
		ll.Owner = cache.NoOwner
		if ll.State == cache.Modified {
			ll.State = cache.Shared
		}
	}
	return true, Result{Done: done, Level: 2}
}

// invalidateSharers removes every other sharer of la before granting core
// exclusive ownership, detecting conflicts against read sets (L1 read bits or
// the read-set overflow signature) and against the owner when the directory
// still points at one. It returns ok=false when the requester must abort.
func (h *Hierarchy) invalidateSharers(core int, la uint64, ll *cache.Line, tx bool, at uint64) (bool, uint64) {
	done := at
	sent := false
	for t := 0; t < len(h.l1s); t++ {
		if t == core {
			continue
		}
		holds := ll.HasSharer(t) || ll.Owner == t
		if !holds && !(h.arb.InTx(t) && h.arb.SignatureContains(t, la)) {
			continue
		}
		tl := h.l1s[t].Peek(la)
		conflict := false
		if h.arb.InTx(t) {
			switch {
			case tl != nil && (tl.R || tl.W):
				conflict = true
			case tl == nil && h.sticky(ll, t):
				conflict = true
			case tl == nil && h.arb.SignatureContains(t, la):
				conflict = true
			}
		}
		if conflict {
			if h.watchMask != 0 {
				h.wakeCore(t)
			}
			if !h.arb.OnConflict(core, t, la, true, tx, done) {
				return false, done + h.cfg.LLCLatency
			}
			tl = h.l1s[t].Peek(la)
		}
		if tl != nil && tl.Valid() {
			if h.watchMask != 0 {
				h.wakeCopy(t, la)
			}
			if tl.Dirty || tl.W {
				ll.Data = tl.Data
				ll.Dirty = true
			}
			tl.Reset()
		}
		ll.RemoveSharer(t)
		if ll.Owner == t {
			ll.Owner = cache.NoOwner
		}
		sent = true
	}
	if sent {
		done += h.cfg.LLCLatency
	}
	return true, done
}

// llcAllocate installs a line fetched from memory into the LLC, handling the
// LLC victim: back-invalidating L1 copies, aborting transactions whose state
// the victim still carries (the LLC capacity limit), and writing dirty
// victims back to persistent memory. It returns an aborted Result only if the
// *requesting core's own* transaction had to be aborted to make room.
func (h *Hierarchy) llcAllocate(core int, la uint64, data memdev.Line, at uint64) (*cache.Line, Result) {
	victim := h.llc.Victim(la)
	requesterAborted := false
	if victim.Valid() {
		vAddr := victim.Addr
		// Back-invalidate every L1 copy to preserve inclusion.
		for t := 0; t < len(h.l1s); t++ {
			tl := h.l1s[t].Peek(vAddr)
			inTxLine := tl != nil && (tl.R || tl.W)
			if h.arb.InTx(t) && (inTxLine || tl == nil && h.sticky(victim, t)) {
				if h.watchMask != 0 {
					h.wakeCore(t)
				}
				h.arb.OnLLCTxEviction(t, vAddr, at)
				if t == core {
					requesterAborted = true
				}
				tl = h.l1s[t].Peek(vAddr)
			}
			if tl != nil && tl.Valid() {
				if h.watchMask != 0 {
					h.wakeCopy(t, vAddr)
				}
				if tl.Dirty {
					victim.Data = tl.Data
					victim.Dirty = true
				}
				tl.Reset()
			}
		}
		// The abort handlers above may have invalidated the victim already
		// (DHTM invalidates overflowed lines during abort-complete).
		if victim.Valid() && victim.Dirty {
			h.ctl.WriteLine(victim.Addr, victim.Data, at, memdev.TrafficData)
		}
	}
	line := h.llc.PlaceAt(victim, la, cache.Shared, data)
	line.Owner = cache.NoOwner
	if requesterAborted {
		return line, Result{Done: at, Aborted: true, ConflictWith: core, Level: 3}
	}
	return line, Result{}
}

// evictL1Victim handles the replacement of an L1 line: transactional write-set
// lines go through the arbiter (abort or overflow to the LLC in sticky
// state), read-set lines are added to the overflow signature, and ordinary
// dirty lines are written back to the inclusive LLC copy.
func (h *Hierarchy) evictL1Victim(core int, victim *cache.Line, at uint64) {
	vAddr := victim.Addr
	switch {
	case victim.W && h.arb.InTx(core):
		if h.arb.OnWriteSetEviction(core, vAddr, at) {
			// Overflow: data moves to the LLC and the directory is left
			// pointing at this core, which together with the design's overflow
			// set makes the line sticky, so conflicts still reach this core.
			h.st.OverflowedLines++
			ll := h.llc.Peek(vAddr)
			if ll == nil {
				// Inclusion should hold; recreate the copy defensively.
				w := h.llc.Victim(vAddr)
				if w.Valid() && w.Dirty {
					h.ctl.PersistLine(w.Addr, w.Data, memdev.TrafficData)
				}
				ll = h.llc.PlaceAt(w, vAddr, cache.Modified, victim.Data)
			}
			ll.Data = victim.Data
			ll.Dirty = true
			ll.Owner = core
			ll.State = cache.Modified
		}
		// On abort the design already invalidated its write set; either way
		// the way is about to be reused by PlaceAt.
	case victim.R && h.arb.InTx(core):
		h.arb.OnReadSetEviction(core, vAddr, at)
		// The directory keeps this core as a sharer so invalidations still
		// reach it and are checked against the signature.
	case victim.Dirty:
		ll := h.llc.Peek(vAddr)
		if ll == nil {
			h.ctl.PersistLine(vAddr, victim.Data, memdev.TrafficData)
			return
		}
		ll.Data = victim.Data
		ll.Dirty = true
		if ll.Owner == core {
			ll.Owner = cache.NoOwner
		}
	default:
		// Clean, non-transactional line: silent eviction (the sharer bit is
		// conservatively left set; a spurious invalidation later is harmless).
	}
}

// wordShift is log2 of the 8-byte word size.
const wordShift = 3

// wordIdx returns the word offset of addr within its line.
func (h *Hierarchy) wordIdx(addr uint64) int {
	return int((addr & h.lineMask) >> wordShift)
}
