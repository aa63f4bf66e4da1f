// Package palloc is the persistent-heap allocator the workloads use to lay
// out their data structures in the simulated persistent address space. It is
// a simple bump allocator: the simulated OS hands each workload a region
// above wal.HeapBase, far away from the durable log region.
//
// Setup-time initialisation writes directly to the backing store (untimed),
// mirroring how the paper's benchmarks populate their data sets before the
// measured region starts.
package palloc

import (
	"fmt"

	"dhtm/internal/memdev"
	"dhtm/internal/wal"
)

// Heap is a bump allocator over the persistent address space.
type Heap struct {
	store *memdev.Store
	next  uint64
	limit uint64
}

// New creates a heap starting at wal.HeapBase.
func New(store *memdev.Store) *Heap {
	return &Heap{store: store, next: wal.HeapBase, limit: wal.HeapBase + (1 << 34)}
}

// Store returns the backing persistent-memory image.
func (h *Heap) Store() *memdev.Store { return h.store }

// Alloc reserves size bytes aligned to align (a power of two) and returns the
// base address. It panics if the heap region is exhausted, which indicates a
// workload configuration error rather than a runtime condition.
func (h *Heap) Alloc(size, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("palloc: alignment %d is not a power of two", align))
	}
	base := (h.next + align - 1) &^ (align - 1)
	if base+size > h.limit {
		panic(fmt.Sprintf("palloc: heap exhausted allocating %d bytes", size))
	}
	h.next = base + size
	return base
}

// AllocWords reserves n 8-byte words (8-byte aligned).
func (h *Heap) AllocWords(n int) uint64 { return h.Alloc(uint64(n)*8, 8) }

// AllocLines reserves n cache lines (line aligned), the natural unit for
// structures whose write-set footprint is being measured.
func (h *Heap) AllocLines(n int) uint64 {
	return h.Alloc(uint64(n)*memdev.LineBytes, memdev.LineBytes)
}

// WriteWord initialises a word directly in persistent memory (untimed setup).
func (h *Heap) WriteWord(addr, val uint64) { h.store.WriteWord(addr, val) }

// ReadWord reads a word directly from persistent memory (untimed setup and
// verification).
func (h *Heap) ReadWord(addr uint64) uint64 { return h.store.ReadWord(addr) }
