package palloc

import (
	"testing"

	"dhtm/internal/memdev"
	"dhtm/internal/wal"
)

// TestAllocAlignmentAndDisjointness checks allocations are aligned, above the
// heap base, and never overlap.
func TestAllocAlignmentAndDisjointness(t *testing.T) {
	h := New(memdev.NewStore())
	type region struct{ base, size uint64 }
	var regions []region
	sizes := []uint64{8, 64, 100, 4096, 24}
	aligns := []uint64{8, 64, 8, 64, 8}
	for i, size := range sizes {
		base := h.Alloc(size, aligns[i])
		if base < wal.HeapBase {
			t.Fatalf("allocation %d below the heap base: %#x", i, base)
		}
		if base%aligns[i] != 0 {
			t.Fatalf("allocation %d not aligned to %d: %#x", i, aligns[i], base)
		}
		for _, r := range regions {
			if base < r.base+r.size && r.base < base+size {
				t.Fatalf("allocation %d overlaps an earlier region", i)
			}
		}
		regions = append(regions, region{base, size})
	}
	if h.next == wal.HeapBase {
		t.Fatalf("the heap reports nothing allocated")
	}
}

// TestLineAndWordHelpers checks the convenience allocators and direct access.
func TestLineAndWordHelpers(t *testing.T) {
	h := New(memdev.NewStore())
	lines := h.AllocLines(3)
	if lines%uint64(memdev.LineBytes) != 0 {
		t.Fatalf("AllocLines not line aligned: %#x", lines)
	}
	words := h.AllocWords(5)
	if words%8 != 0 {
		t.Fatalf("AllocWords not word aligned: %#x", words)
	}
	h.WriteWord(words, 99)
	if h.ReadWord(words) != 99 {
		t.Fatalf("direct setup write not visible")
	}
}
