package memdev

import "testing"

// BenchmarkStoreWriteWord measures the store's word-write hot path over a
// working set resembling a workload heap (sequential lines with re-touches),
// which must not allocate once the pages are populated.
func BenchmarkStoreWriteWord(b *testing.B) {
	b.ReportAllocs()
	s := NewStore()
	const span = 1 << 20 // 1 MB of touched address space
	for a := uint64(0); a < span; a += 8 {
		s.WriteWord(a, a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * 64) % span
		s.WriteWord(addr, uint64(i))
	}
}

// BenchmarkSnapshotClone measures cloning a frozen setup-sized image (16 MB
// of touched lines) and dirtying a small working set, the per-cell cost the
// setup-snapshot cache pays instead of re-running workload Setup.
func BenchmarkSnapshotClone(b *testing.B) {
	b.ReportAllocs()
	img := NewStore()
	const span = 16 << 20 // 16 MB populated image, ~512 pages
	for a := uint64(0); a < span; a += 64 {
		img.WriteWord(a, a)
	}
	img.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := img.Clone()
		// Touch 32 scattered lines — a cell's early writes — so the bench
		// includes the copy-on-write slab copies, not just the table copy.
		for j := uint64(0); j < 32; j++ {
			c.WriteWord((j*(span/32))%span, j)
		}
	}
}

// BenchmarkStoreReadWord measures the read path against the same layout.
func BenchmarkStoreReadWord(b *testing.B) {
	b.ReportAllocs()
	s := NewStore()
	const span = 1 << 20
	for a := uint64(0); a < span; a += 8 {
		s.WriteWord(a, a)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.ReadWord((uint64(i) * 64) % span)
	}
	_ = sink
}

// BenchmarkStoreEqualShared measures comparing two clones of a setup-sized
// image (16 MB of touched lines) that each dirtied the same 32 scattered
// lines — the crash explorer's oracle comparisons. Leaves both clones still
// share are skipped, so the cost tracks the dirtied leaves, not the image.
func BenchmarkStoreEqualShared(b *testing.B) {
	b.ReportAllocs()
	img := NewStore()
	const span = 16 << 20
	for a := uint64(0); a < span; a += 64 {
		img.WriteWord(a, a)
	}
	img.Freeze()
	x, y := img.Clone(), img.Clone()
	for j := uint64(0); j < 32; j++ {
		x.WriteWord((j*(span/32))%span, j)
		y.WriteWord((j*(span/32))%span, j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Equal(y) {
			b.Fatal("equal clones compared unequal")
		}
	}
}
