// Package cache implements the set-associative cache arrays used for both the
// private L1 data caches and the shared last-level cache (LLC). L1 lines carry
// the transactional read/write bits of an RTM-like HTM; LLC lines additionally
// carry the directory state (owner, sharer vector, dirty bit). A write-set
// line that overflowed from an L1 keeps the directory owner pointing at the
// overflowing core; which lines overflowed is recorded by the HTM runtime.
package cache

import (
	"fmt"
	"math/bits"

	"dhtm/internal/memdev"
)

// State is the MESI-style coherence state recorded for a line. The simulator
// collapses E into M (an E line that is written becomes M silently, exactly as
// in MESI), so only three states are needed.
type State uint8

const (
	// Invalid marks an unused way.
	Invalid State = iota
	// Shared means one or more cores may hold a read-only copy.
	Shared
	// Modified means a single core owns the line with write permission.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// NoOwner is the directory owner value meaning "no owning core".
const NoOwner = -1

// Line is one cache way.
type Line struct {
	Addr  uint64 // line-aligned address (the full address doubles as the tag)
	State State
	Dirty bool

	// Transactional metadata (meaningful in L1s).
	R bool // read inside the current transaction
	W bool // written inside the current transaction

	// gen is the cache generation the line was installed in. A line whose gen
	// trails the cache's current generation is stale — logically invalid —
	// which lets Clear bump the generation instead of sweeping every way.
	// The field packs into existing padding, so Line does not grow.
	gen uint32

	// Directory metadata (meaningful in the LLC).
	Owner   int    // core owning the line in Modified state, or NoOwner
	Sharers uint64 // bitmask of cores holding a Shared copy

	Data memdev.Line

	lru uint64
}

// Valid reports whether the way holds a line.
func (l *Line) Valid() bool { return l.State != Invalid }

// Reset clears the way back to Invalid.
func (l *Line) Reset() {
	*l = Line{Owner: NoOwner}
}

// HasSharer reports whether core is in the sharer vector.
func (l *Line) HasSharer(core int) bool { return l.Sharers&(1<<uint(core)) != 0 }

// AddSharer adds core to the sharer vector.
func (l *Line) AddSharer(core int) { l.Sharers |= 1 << uint(core) }

// RemoveSharer removes core from the sharer vector.
func (l *Line) RemoveSharer(core int) { l.Sharers &^= 1 << uint(core) }

// Cache is a set-associative array of Lines with LRU replacement.
type Cache struct {
	// slab holds every way, set-major: set s is slab[s*ways : (s+1)*ways].
	slab      []Line
	numSets   int
	ways      int
	lineSize  uint64
	lineShift uint   // log2(lineSize)
	setMask   uint64 // numSets - 1
	tick      uint64
	// gen is the current generation; lines with an older gen are stale (see
	// Line.gen). Stale ways are lazily reset the next time Victim considers
	// them, so no caller ever observes pre-Clear contents.
	gen uint32
	// txSets has one bit per set, set by MarkRead/MarkWrite: a superset of
	// the sets holding a line with R or W, so ForEachTx visits only those.
	txSets []uint64
}

// New builds a cache of sizeBytes capacity with the given associativity and
// line size. sizeBytes must be an exact multiple of ways*lineSize, and both
// lineSize and the resulting number of sets must be powers of two.
func New(sizeBytes, ways, lineSize int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 || sizeBytes%(ways*lineSize) != 0 ||
		!isPow2(lineSize) || !isPow2(sizeBytes/(ways*lineSize)) {
		panic(fmt.Sprintf("cache: invalid geometry size=%d ways=%d line=%d", sizeBytes, ways, lineSize))
	}
	numSets := sizeBytes / (ways * lineSize)
	c := &Cache{
		slab:      make([]Line, numSets*ways),
		numSets:   numSets,
		ways:      ways,
		lineSize:  uint64(lineSize),
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setMask:   uint64(numSets - 1),
		txSets:    make([]uint64, (numSets+63)/64),
	}
	for i := range c.slab {
		c.slab[i].Owner = NoOwner
	}
	return c
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return int(c.lineSize) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Lines returns the total capacity in lines.
func (c *Cache) Lines() int { return c.numSets * c.ways }

// setIndex maps a line address to its set.
func (c *Cache) setIndex(lineAddr uint64) int {
	return int((lineAddr >> c.lineShift) & c.setMask)
}

// set returns the ways of set s.
func (c *Cache) set(s int) []Line {
	return c.slab[s*c.ways : (s+1)*c.ways : (s+1)*c.ways]
}

// Align returns the line-aligned address containing addr.
func (c *Cache) Align(addr uint64) uint64 { return addr &^ (c.lineSize - 1) }

// Lookup returns the line holding addr, bumping its LRU age, or nil on a miss.
func (c *Cache) Lookup(addr uint64) *Line {
	l := c.Peek(addr)
	if l != nil {
		c.tick++
		l.lru = c.tick
	}
	return l
}

// live reports whether the way holds a current-generation line: valid and
// not invalidated by a later Clear.
func (c *Cache) live(l *Line) bool {
	return l.State != Invalid && l.gen == c.gen
}

// Peek returns the line holding addr without disturbing LRU state.
func (c *Cache) Peek(addr uint64) *Line {
	la := c.Align(addr)
	set := c.set(c.setIndex(la))
	for i := range set {
		if c.live(&set[i]) && set[i].Addr == la {
			return &set[i]
		}
	}
	return nil
}

// Victim returns the way that an insertion of addr would evict: an invalid
// way if one exists, otherwise the LRU way of the set. It never returns nil.
// The returned pointer aliases cache storage; callers handle the old contents
// (write-back, overflow, abort) and may then reuse the way via PlaceAt.
func (c *Cache) Victim(addr uint64) *Line {
	la := c.Align(addr)
	set := c.set(c.setIndex(la))
	var victim *Line
	for i := range set {
		if !c.live(&set[i]) {
			// An unused or stale way. Reset stale contents here so callers
			// inspecting the victim (write-back decisions) see an invalid
			// way, exactly as after a sweeping Clear.
			set[i].Reset()
			return &set[i]
		}
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// PlaceAt installs a new line for addr in the given way (obtained from
// Victim), resetting all metadata and marking it most recently used.
func (c *Cache) PlaceAt(way *Line, addr uint64, state State, data memdev.Line) *Line {
	way.Reset()
	way.Addr = c.Align(addr)
	way.State = state
	way.Data = data
	way.gen = c.gen
	c.tick++
	way.lru = c.tick
	return way
}

// Invalidate drops the line containing addr if present.
func (c *Cache) Invalidate(addr uint64) {
	if l := c.Peek(addr); l != nil {
		l.Reset()
	}
}

// ForEach visits every valid line. The callback may mutate the line but must
// not invalidate other lines.
func (c *Cache) ForEach(f func(*Line)) {
	for i := range c.slab {
		if c.live(&c.slab[i]) {
			f(&c.slab[i])
		}
	}
}

// MarkRead sets l's transactional read bit. l must be a way of c.
func (c *Cache) MarkRead(l *Line) {
	l.R = true
	c.markSet(l)
}

// MarkWrite sets l's transactional write bit. l must be a way of c.
func (c *Cache) MarkWrite(l *Line) {
	l.W = true
	c.markSet(l)
}

// markSet records that l's set holds a transactional line.
func (c *Cache) markSet(l *Line) {
	s := c.setIndex(l.Addr)
	c.txSets[s/64] |= 1 << (uint(s) % 64)
}

// txLine reports whether l is a live line carrying a transactional bit.
func (c *Cache) txLine(l *Line) bool {
	return (l.R || l.W) && c.live(l)
}

// ForEachTx visits every valid line with R or W set, in exactly ForEach's
// order (set-major, way-minor), but touches only the sets MarkRead/MarkWrite
// marked: the hardware flash-clears these bits in one step, so the sweep
// should not cost a pass over every way. A set whose lines no longer carry
// either bit after the visit is unmarked. The callback may mutate or reset
// the line but must not mark or invalidate other lines.
func (c *Cache) ForEachTx(f func(*Line)) {
	for wi, word := range c.txSets {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			set := c.set(wi*64 + b)
			keep := false
			for i := range set {
				if !c.txLine(&set[i]) {
					continue
				}
				f(&set[i])
				keep = keep || c.txLine(&set[i])
			}
			if !keep {
				c.txSets[wi] &^= 1 << uint(b)
			}
		}
	}
}

// CountIf returns the number of valid lines satisfying pred.
func (c *Cache) CountIf(pred func(*Line) bool) int {
	n := 0
	c.ForEach(func(l *Line) {
		if pred(l) {
			n++
		}
	})
	return n
}

// Clear invalidates every line (used to model a crash: caches are volatile,
// and pooled caches are cleared before reuse). It does not sweep the ways:
// the generation counter is bumped and stale ways are lazily reset as Victim
// reuses them. Only the one-bit-per-set transactional index is zeroed.
func (c *Cache) Clear() {
	c.gen++
	if c.gen == 0 {
		// Generation counter wrapped (after 2^32 clears): sweep so ancient
		// gen-0 lines cannot alias the fresh generation, then restart at 1.
		for i := range c.slab {
			c.slab[i].Reset()
		}
		c.gen = 1
	}
	clear(c.txSets)
}

// ReadWord returns the word at addr from a line already present; it panics if
// the line is absent, which indicates a simulator bug rather than a program
// error.
func (c *Cache) ReadWord(addr uint64) uint64 {
	l := c.Peek(addr)
	if l == nil {
		panic(fmt.Sprintf("cache: ReadWord on absent line %#x", addr))
	}
	return l.Data[int(addr%c.lineSize)/8]
}

// WriteWord updates the word at addr in a line already present; it panics if
// the line is absent.
func (c *Cache) WriteWord(addr uint64, val uint64) {
	l := c.Peek(addr)
	if l == nil {
		panic(fmt.Sprintf("cache: WriteWord on absent line %#x", addr))
	}
	l.Data[int(addr%c.lineSize)/8] = val
}
