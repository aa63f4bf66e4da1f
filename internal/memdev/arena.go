package memdev

// Arena recycles the root tables, directories and leaves of short-lived
// stores: every store made by CloneIn, and every clone of one, takes the
// nodes its writes copy or first touch from the arena instead of the heap,
// and Reset hands all of them out again. Nothing is freed until the arena
// itself is unreachable. The lifetime rule is the caller's to keep: every
// store of an arena is dead at its Reset — a write to one panics, a read
// returns undefined data — so Reset only where none of them is used again.
// An arena, like a live store, belongs to one goroutine at a time.
type Arena struct {
	roots  slab[[rootDirs]*dir] // root tables, each sliced to the length needed
	dirs   slab[dir]
	leaves slab[leaf]
	// epoch counts Resets; a store made in an earlier epoch is dead.
	epoch uint64
}

// slab is one node type's share of an arena: nodes[:used] are handed out,
// the rest are free to recycle.
type slab[T any] struct {
	nodes []*T
	used  int
}

// deadOwner is the owner Reset gives every directory it recycles. No store
// holds it as its edit token, so a dead store's next write misses the owned
// fast path and reaches writableSlow, which panics.
const deadOwner = ^uint64(0)

// CloneIn returns a clone of the frozen image src whose writes — and those
// of its own clones — take their directories and leaves from the arena.
// src keeps its own allocator and is never written, so workers may clone
// one frozen image into their own arenas concurrently.
func (a *Arena) CloneIn(src *Store) *Store {
	if !src.frozen {
		panic("memdev: CloneIn of a live store")
	}
	c := src.Clone()
	c.arena, c.epoch = a, a.epoch
	return c
}

// Reset recycles every node the arena handed out since the last Reset,
// ending the life of every store that took nodes from it or was made by
// CloneIn before the call.
func (a *Arena) Reset() {
	for _, d := range a.dirs.nodes[:a.dirs.used] {
		d.owner = deadOwner
	}
	a.roots.used, a.dirs.used, a.leaves.used = 0, 0, 0
	a.epoch++
}

// Used reports how many root tables, directories and leaves the arena has
// handed out since its last Reset: one per node its stores' writes copied
// or first touched.
func (a *Arena) Used() int { return a.roots.used + a.dirs.used + a.leaves.used }

// dead reports whether the store's arena was Reset since it was made.
func (s *Store) dead() bool { return s.arena != nil && s.epoch != s.arena.epoch }

// dirSlab and leafSlab return the arena's slabs, nil for the heap.
func (a *Arena) dirSlab() *slab[dir] {
	if a == nil {
		return nil
	}
	return &a.dirs
}

func (a *Arena) leafSlab() *slab[leaf] {
	if a == nil {
		return nil
	}
	return &a.leaves
}

// next hands out the slab's next free node as it was left — zero only if
// it is new — growing the slab when none is free.
func (sl *slab[T]) next() *T {
	if sl.used == len(sl.nodes) {
		sl.nodes = append(sl.nodes, new(T))
	}
	sl.used++
	return sl.nodes[sl.used-1]
}

// copyNode returns a node holding *src, or the zero value when src is nil:
// the next node of sl overwritten in full, or a new one from the heap when
// sl is nil.
func copyNode[T any](sl *slab[T], src *T) *T {
	if sl == nil {
		n := new(T)
		if src != nil {
			*n = *src
		}
		return n
	}
	n := sl.next()
	if src != nil {
		*n = *src
	} else {
		var zero T
		*n = zero
	}
	return n
}
