// Package memdev models the byte-addressable persistent memory device: a
// sparse, line-granular backing store holding the durable contents of memory,
// and a memory controller that charges read/write latency and channel
// bandwidth occupancy for every access that reaches the device.
//
// The Store is the only state that survives a simulated crash; caches and any
// in-flight buffers are volatile and are discarded by the hierarchy.
package memdev

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"
	"sync/atomic"
)

// WordsPerLine is the number of 8-byte words in a 64-byte cache line. The
// simulator uses 64-byte lines throughout, matching the paper's configuration.
const WordsPerLine = 8

// LineBytes is the size of a cache line in bytes.
const LineBytes = WordsPerLine * 8

// Line is the data payload of one cache line.
type Line [WordsPerLine]uint64

// Geometry of the store's two-level table. A leaf is one contiguous slab of
// 64 lines (4 KB of data), allocated on first touch; a directory maps 512
// leaves (2 MB of address space) and carries their ownership bits. A first
// write after a Clone that changes a line copies one leaf plus, at most, its
// directory.
const (
	leafLineShift = 6 // 64 lines per leaf
	leafLines     = 1 << leafLineShift
	leafLineMask  = leafLines - 1
	leafByteShift = leafLineShift + 6 // line shift (64 B) + leaf shift
	dirLeafShift  = 9                 // 512 leaves per directory
	dirLeaves     = 1 << dirLeafShift
	dirLeafMask   = dirLeaves - 1
	dirByteShift  = leafByteShift + dirLeafShift
	// rootDirs bounds the directly indexed root table: directories below it
	// — the first 2 GB — live in a grow-on-demand slice (pure array indexing
	// on the hot path), directories at or above it fall back to a sparse map
	// so arbitrary addresses stay legal.
	rootDirs = 1 << (31 - dirByteShift)
)

// leaf is one slab of contiguous lines plus a bitmap of the lines that have
// ever been written. The bitmap preserves the semantics of the original
// map-based store: a line written with all-zero data is "populated" and
// distinguishable from a never-touched (zero-filled) line, so ForEachLine
// and the gob image format are unchanged.
//
// A leaf made by a copy-on-write copy also remembers its first ancestor:
// base is the leaf at the root of its chain of copies (nil for a leaf first
// touched as empty, which is its own root), and changed marks the lines
// written since that root was copied. A leaf is copied only once no store
// may write it in place, so base never changes after the copy, and every
// line outside changed holds base's data and written bit. Two leaves of one
// chain therefore differ at most in the lines either marks changed.
type leaf struct {
	lines   [leafLines]Line
	written [leafLines / 64]uint64
	base    *leaf
	changed [leafLines / 64]uint64
}

// dir is one directory of the table.
type dir struct {
	// owner is the edit token of the one store that may mutate this
	// directory in place; any other store copies it on first write.
	owner  uint64
	leaves [dirLeaves]*leaf
	// owned marks the leaves the owner may mutate in place; the rest are
	// shared with another image and are copied on first write.
	owned [dirLeaves / 64]uint64
}

// emptyDir fills the root-table slots of directories nothing was written to.
// It owns nothing (owner 0 is never a store's token while it writes) and is
// never written: the first write to one of its slots allocates a directory.
var emptyDir dir

// editTokens issues the stores' edit tokens. Token 0 is never issued, so a
// store holding 0 (fresh, just cloned or frozen) owns nothing.
var editTokens atomic.Uint64

// Store is the durable backing store: a sparse, two-level table mapping
// line-aligned addresses to line slabs. Reads of never-written memory return
// zeroes, like freshly allocated persistent memory.
//
// Stores support copy-on-write cloning: Clone shares the root table, the
// directories and the leaves between the two images in O(1), and the first
// write on either side that changes a line copies just the path it touches —
// the root table, one 4 KB directory and one 4 KB leaf. A write that leaves
// an already written line as it is copies nothing, so the leaf stays shared.
// Ownership is an edit token: a directory whose owner matches the store's
// token (and the leaves its owned bits mark) belong to this store alone, and
// Clone un-owns everything on both sides by dropping their tokens. A store
// can additionally be frozen into an immutable snapshot image (Freeze), after
// which writes panic and Clone is safe to call from multiple goroutines
// concurrently.
//
// A store takes the directories and leaves its writes copy or first touch
// from the heap, unless it was made by Arena.CloneIn or cloned from such a
// store: then they come from that arena, and the store lives only until the
// arena's next Reset. Reads of a store after that return undefined data, and
// writes panic.
type Store struct {
	root []*dir          // indexed by directory number, grown on demand
	far  map[uint64]*dir // directories at or above rootDirs (cold fallback)

	// edit is this store's edit token, drawn lazily on the first write after
	// creation or a Clone; 0 owns nothing.
	edit uint64
	// rootShared marks a root table another image also references; the
	// first write copies it. The far map is copied eagerly at Clone.
	rootShared bool
	// frozen marks an immutable snapshot image: writes panic. A frozen store
	// holds token 0, so Clone performs no writes to it and may run
	// concurrently.
	frozen bool

	// arena, when set, supplies the directories and leaves this store's
	// writes allocate; epoch is the arena's epoch when the store was made,
	// and a store whose epoch is behind its arena's is dead.
	arena *Arena
	epoch uint64
}

// NewStore returns an empty persistent-memory image.
func NewStore() *Store {
	return &Store{}
}

// wordIndex returns the word offset of addr within its line.
func wordIndex(addr uint64) uint64 { return (addr >> 3) % WordsPerLine }

// lineSlot returns the line index of addr within its leaf.
func lineSlot(addr uint64) uint64 { return (addr >> 6) & leafLineMask }

// dirAt returns directory i. It is never nil: a directory nothing was
// written to reads as emptyDir, which keeps the read path branch-light
// enough to inline.
func (s *Store) dirAt(i uint64) *dir {
	if i < uint64(len(s.root)) {
		return s.root[i]
	}
	if d := s.far[i]; d != nil {
		return d
	}
	return &emptyDir
}

// leafOf returns the leaf containing addr, or nil if it was never written.
func (s *Store) leafOf(addr uint64) *leaf {
	return s.dirAt(addr >> dirByteShift).leaves[(addr>>leafByteShift)&dirLeafMask]
}

// writable returns the leaf containing addr if this store holds it
// exclusively (as it does its directory), so the caller may mutate it, and
// nil otherwise. It is the write fast path — an owned leaf in an owned root
// directory — three loads and a mask.
func (s *Store) writable(addr uint64) *leaf {
	if i := addr >> dirByteShift; i < uint64(len(s.root)) {
		if d := s.root[i]; d.owner == s.edit {
			j := (addr >> leafByteShift) & dirLeafMask
			if d.owned[j>>6]&(1<<(j&63)) != 0 {
				return d.leaves[j]
			}
		}
	}
	return nil
}

// writtenLine returns the line at addr if a write to this live store could
// leave it unchanged — the line was written before — and nil otherwise
// (never written, or the store is frozen or dead, where every write must
// panic). A write that changes nothing need not copy a shared leaf.
func (s *Store) writtenLine(addr uint64) *Line {
	if l := s.leafOf(addr); l != nil && !s.frozen && !s.dead() && l.isWritten(lineSlot(addr)) {
		return &l.lines[lineSlot(addr)]
	}
	return nil
}

// writableSlow handles the cold write cases: frozen images and stores whose
// arena was reset (panic), shared root tables, directories and leaves (copy
// them), and first-touch allocation.
func (s *Store) writableSlow(addr uint64) *leaf {
	if s.frozen {
		panic(fmt.Sprintf("memdev: write at %#x to frozen store image", addr))
	}
	if s.dead() {
		panic(fmt.Sprintf("memdev: write at %#x to a store whose arena was reset", addr))
	}
	if s.edit == 0 {
		s.edit = editTokens.Add(1)
	}
	i := addr >> dirByteShift
	var d *dir
	if i < rootDirs {
		if s.rootShared || i >= uint64(len(s.root)) {
			s.ownRoot(i)
		}
		d = s.ownDir(s.root[i])
		s.root[i] = d
	} else {
		if s.far == nil {
			s.far = make(map[uint64]*dir)
		}
		d = s.ownDir(s.dirAt(i))
		s.far[i] = d
	}
	j := (addr >> leafByteShift) & dirLeafMask
	w, b := j>>6, uint64(1)<<(j&63)
	if d.owned[w]&b == 0 {
		// A leaf shared with another image is copied (4 KB), keeping its
		// chain's root as base; a first touch gets an empty one.
		src := d.leaves[j]
		l := copyNode(s.arena.leafSlab(), src)
		if src != nil && src.base == nil {
			l.base, l.changed = src, [leafLines / 64]uint64{}
		}
		d.leaves[j] = l
		d.owned[w] |= b
	}
	return d.leaves[j]
}

// ownRoot gives the store a private root table long enough to index
// directory i, from its arena if it has one. Growth doubles the length so
// ascending first touches cost amortized O(1) table copies.
func (s *Store) ownRoot(i uint64) {
	n := uint64(len(s.root))
	if i >= n {
		n = min(max(i+1, 2*n), rootDirs)
	}
	var root []*dir
	if s.arena != nil {
		root = s.arena.roots.next()[:n]
	} else {
		root = make([]*dir, n)
	}
	for j := copy(root, s.root); j < len(root); j++ {
		root[j] = &emptyDir
	}
	s.root = root
	s.rootShared = false
}

// ownDir returns d if this store owns it, or else a private copy (a fresh
// directory for emptyDir) owning none of its leaves yet.
func (s *Store) ownDir(d *dir) *dir {
	if d.owner == s.edit {
		return d
	}
	src := d
	if d == &emptyDir {
		src = nil
	}
	cp := copyNode(s.arena.dirSlab(), src)
	cp.owned = [dirLeaves / 64]uint64{}
	cp.owner = s.edit
	return cp
}

// isWritten reports whether line slot of l has ever been written.
func (l *leaf) isWritten(slot uint64) bool {
	return l.written[slot>>6]&(1<<(slot&63)) != 0
}

// markWritten sets the written and changed bits for the line slot of l.
func (l *leaf) markWritten(slot uint64) {
	w, b := slot>>6, uint64(1)<<(slot&63)
	l.written[w] |= b
	l.changed[w] |= b
}

// ReadWord returns the 8-byte word at addr (addr must be 8-byte aligned).
func (s *Store) ReadWord(addr uint64) uint64 {
	if l := s.leafOf(addr); l != nil {
		return l.lines[lineSlot(addr)][wordIndex(addr)]
	}
	return 0
}

// WriteWord stores an 8-byte word at addr (addr must be 8-byte aligned).
func (s *Store) WriteWord(addr uint64, val uint64) {
	l, slot := s.writable(addr), lineSlot(addr)
	if l == nil {
		if cur := s.writtenLine(addr); cur != nil && cur[wordIndex(addr)] == val {
			return
		}
		l = s.writableSlow(addr)
	}
	l.markWritten(slot)
	l.lines[slot][wordIndex(addr)] = val
}

// ReadLine returns a copy of the line containing addr.
func (s *Store) ReadLine(addr uint64) Line {
	l := s.leafOf(addr)
	if l == nil {
		return Line{}
	}
	return l.lines[lineSlot(addr)]
}

// WriteLine replaces the entire line containing addr.
func (s *Store) WriteLine(addr uint64, data Line) {
	l, slot := s.writable(addr), lineSlot(addr)
	if l == nil {
		if cur := s.writtenLine(addr); cur != nil && *cur == data {
			return
		}
		l = s.writableSlow(addr)
	}
	l.markWritten(slot)
	l.lines[slot] = data
}

// ForEachLine visits every populated line in ascending address order.
// The callback receives a copy of the line data.
func (s *Store) ForEachLine(f func(addr uint64, data Line)) {
	visit := func(i uint64, d *dir) {
		for j, l := range d.leaves {
			if l == nil {
				continue
			}
			base := i<<dirByteShift | uint64(j)<<leafByteShift
			for w, word := range l.written {
				for ; word != 0; word &= word - 1 {
					slot := w<<6 + bits.TrailingZeros64(word)
					f(base+uint64(slot)<<6, l.lines[slot])
				}
			}
		}
	}
	for i, d := range s.root {
		if d != &emptyDir {
			visit(uint64(i), d)
		}
	}
	for _, i := range slices.Sorted(maps.Keys(s.far)) {
		visit(i, s.far[i])
	}
}

// zeroLine stands in, in a Diff walk, for a line a side never wrote.
var zeroLine Line

// Diff walks the union of s's and o's directories and leaves once, in
// ascending address order from address from, and calls f with both sides of
// every line the two stores hold differently — different data, or written
// on one side only — until f returns false. mineWrote says whether s wrote the
// line; a side that never wrote it reads as a zero line. Only leaves the two
// do not share are walked — a shared leaf, the same slab reached from both
// tables, is identical by construction — and whole directories and leaves
// below from are skipped, so comparing two images cloned from a common
// ancestor costs the leaves either side wrote since in the range asked for,
// not the image size. Within a leaf, two copies of one chain compare only
// the lines either changed since the chain's root (see leaf). Both lines are
// read-only views valid only for the call.
func (s *Store) Diff(o *Store, from uint64, f func(addr uint64, mine, theirs *Line, mineWrote bool) bool) {
	// Floors compare shifted indices: an end address of the top directory or
	// leaf would overflow the 64-bit space.
	fromDir := from >> dirByteShift
	for i := fromDir; i < uint64(max(len(s.root), len(o.root))); i++ {
		if !diffDir(i, s.dirAt(i), o.dirAt(i), from, f) {
			return
		}
	}
	if len(s.far)+len(o.far) == 0 {
		return
	}
	far := slices.AppendSeq(slices.Collect(maps.Keys(s.far)), maps.Keys(o.far))
	slices.Sort(far)
	for _, i := range slices.Compact(far) {
		if i >= fromDir && !diffDir(i, s.dirAt(i), o.dirAt(i), from, f) {
			return
		}
	}
}

// diffDir is Diff over directory i, d on the receiver's side and od on the
// other's, and reports whether the walk goes on.
func diffDir(i uint64, d, od *dir, from uint64, f func(addr uint64, mine, theirs *Line, mineWrote bool) bool) bool {
	if d == od {
		return true
	}
	fromLeaf := from >> leafByteShift
	for j := range d.leaves {
		l, ol := d.leaves[j], od.leaves[j]
		if l == ol || i<<dirLeafShift|uint64(j) < fromLeaf {
			continue
		}
		base := i<<dirByteShift | uint64(j)<<leafByteShift
		for w := range leafLines / 64 {
			var mw, ow uint64
			if l != nil {
				mw = l.written[w]
			}
			if ol != nil {
				ow = ol.written[w]
			}
			for word := (mw | ow) & mayDiffer(l, ol, w); word != 0; word &= word - 1 {
				slot := w<<6 + bits.TrailingZeros64(word)
				addr := base + uint64(slot)<<6
				if addr < from {
					continue
				}
				b := uint64(1) << (slot & 63)
				if mw&ow&b != 0 && l.lines[slot] == ol.lines[slot] {
					continue
				}
				mine, theirs := &zeroLine, &zeroLine
				if mw&b != 0 {
					mine = &l.lines[slot]
				}
				if ow&b != 0 {
					theirs = &ol.lines[slot]
				}
				if !f(addr, mine, theirs, mw&b != 0) {
					return false
				}
			}
		}
	}
	return true
}

// mayDiffer returns the lines of word w of leaves l and ol that can differ:
// within one chain of copies only the lines either changed since the
// chain's root, when one leaf is the other's root only the lines the copy
// changed, and otherwise every line.
func mayDiffer(l, ol *leaf, w int) uint64 {
	switch {
	case l == nil || ol == nil:
		return ^uint64(0)
	case l.base == ol:
		return l.changed[w]
	case ol.base == l:
		return ol.changed[w]
	case l.base == ol.base && l.base != nil:
		return l.changed[w] | ol.changed[w]
	}
	return ^uint64(0)
}

// Clone returns an independent image with identical contents in O(1): both
// images share the root table, directories and leaves, and the first write
// on either side copies just what it touches. Cloning a frozen store writes
// nothing to it, so concurrent Clone calls on a frozen image are safe;
// cloning a live store is single-goroutine only (it drops the source's edit
// token so later source writes copy too). The clone shares the source's
// arena, if any. The far map — directories outside the 2 GB simulated
// range — is copied eagerly; it is almost always empty.
func (s *Store) Clone() *Store {
	c := &Store{root: s.root, rootShared: true, arena: s.arena, epoch: s.epoch}
	if len(s.far) > 0 {
		c.far = maps.Clone(s.far)
	}
	// Neither image owns the shared structure any more. A frozen source owns
	// nothing already (and must not be written even transiently).
	if !s.frozen {
		s.edit = 0
		s.rootShared = true
	}
	return c
}

// Freeze turns the store into an immutable snapshot image: any subsequent
// write panics, and Clone may be called concurrently from multiple
// goroutines. Freezing is irreversible — to mutate the contents again, work
// on a Clone.
func (s *Store) Freeze() {
	s.frozen = true
	s.edit = 0
}

// snapshot is the gob wire format for a Store image.
type snapshot struct {
	Addrs []uint64
	Data  []Line
}

// Save serialises the persistent-memory image to w (used by cmd/dhtm-sim to
// produce crash images that cmd/dhtm-recover replays).
func (s *Store) Save(w io.Writer) error {
	var snap snapshot
	s.ForEachLine(func(addr uint64, data Line) {
		snap.Addrs = append(snap.Addrs, addr)
		snap.Data = append(snap.Data, data)
	})
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("memdev: encoding store image: %w", err)
	}
	return nil
}

// Load replaces the store contents with an image previously written by Save.
func (s *Store) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("memdev: decoding store image: %w", err)
	}
	if len(snap.Addrs) != len(snap.Data) {
		return fmt.Errorf("memdev: corrupt store image: %d addresses, %d lines", len(snap.Addrs), len(snap.Data))
	}
	if s.frozen {
		panic("memdev: Load into frozen store image")
	}
	*s = Store{}
	for i, a := range snap.Addrs {
		s.WriteLine(a, snap.Data[i])
	}
	return nil
}

// Equal reports whether two images hold identical contents (zero-filled lines
// are treated as absent). Leaves the two images share are skipped, so the
// cost is the leaves either side wrote since their common ancestor.
func (s *Store) Equal(o *Store) bool {
	eq := true
	s.Diff(o, 0, func(_ uint64, mine, theirs *Line, _ bool) bool {
		eq = *mine == *theirs
		return eq
	})
	return eq
}

// Dump writes a human-readable hex listing of the populated lines, primarily
// for debugging and the dhtm-recover inspection mode.
func (s *Store) Dump(w io.Writer) {
	s.ForEachLine(func(addr uint64, data Line) {
		var b bytes.Buffer
		fmt.Fprintf(&b, "%#016x:", addr)
		for _, wd := range data {
			fmt.Fprintf(&b, " %016x", wd)
		}
		fmt.Fprintln(w, b.String())
	})
}
