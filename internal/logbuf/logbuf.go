// Package logbuf implements DHTM's log buffer: a small, fully associative
// structure attached to the L1 cache that tracks the addresses of cache lines
// with pending redo-log writes. Keeping a line in the buffer while it is
// still being written coalesces multiple stores into a single log record; an
// entry's eviction is the hardware's conservative prediction of the last
// store to that line, at which point the record is emitted (§III-A).
package logbuf

// Buffer is the fully associative log buffer. Entries are line addresses
// ordered from least to most recently used.
type Buffer struct {
	capacity int
	entries  []uint64 // LRU order: entries[0] is the eviction candidate
}

// New builds a buffer with the given number of entries (64 in the paper's
// default configuration).
func New(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Buffer{capacity: capacity, entries: make([]uint64, 0, capacity)}
}

// Len returns the number of tracked lines.
func (b *Buffer) Len() int { return len(b.entries) }

// Contains reports whether lineAddr is currently tracked.
func (b *Buffer) Contains(lineAddr uint64) bool {
	return b.indexOf(lineAddr) >= 0
}

func (b *Buffer) indexOf(lineAddr uint64) int {
	for i, a := range b.entries {
		if a == lineAddr {
			return i
		}
	}
	return -1
}

// Touch records a store to lineAddr. If the line is already tracked it is
// moved to most-recently-used and nothing is evicted. If the buffer is full,
// the least-recently-used entry is evicted and returned — the caller must
// emit a redo-log record for it. Entries shift within the buffer's fixed
// backing array, so Touch never allocates.
func (b *Buffer) Touch(lineAddr uint64) (evicted uint64, hasEvict bool) {
	if i := b.indexOf(lineAddr); i >= 0 {
		copy(b.entries[i:], b.entries[i+1:])
		b.entries[len(b.entries)-1] = lineAddr
		return 0, false
	}
	if len(b.entries) == b.capacity {
		evicted, hasEvict = b.entries[0], true
		copy(b.entries, b.entries[1:])
		b.entries[len(b.entries)-1] = lineAddr
		return evicted, hasEvict
	}
	b.entries = append(b.entries, lineAddr)
	return evicted, hasEvict
}

// Remove drops lineAddr from the buffer if present, reporting whether it was
// tracked. The L1 cache controller calls this when the corresponding cache
// line is replaced: the record must be emitted before the data leaves the L1.
func (b *Buffer) Remove(lineAddr uint64) bool {
	i := b.indexOf(lineAddr)
	if i < 0 {
		return false
	}
	copy(b.entries[i:], b.entries[i+1:])
	b.entries = b.entries[:len(b.entries)-1]
	return true
}

// Drain returns every tracked line (oldest first) and empties the buffer;
// called at the end of the transaction, when all remaining lines are logged.
// The returned slice aliases the buffer's backing array and is valid only
// until the next Touch.
func (b *Buffer) Drain() []uint64 {
	out := b.entries
	b.entries = b.entries[:0]
	return out
}

// Clear empties the buffer without returning entries (abort path).
func (b *Buffer) Clear() { b.entries = b.entries[:0] }
