package memdev

import (
	"bytes"
	"testing"
)

// FuzzStoreLoad feeds arbitrary bytes to Store.Load, which must either
// return an error or yield an image that survives a Save → Load round trip
// unchanged — never panic. The seed corpus in testdata/fuzz/FuzzStoreLoad
// holds valid images (empty, small, geometry edges up to the top of the
// address space, duplicate and unaligned addresses) and broken ones
// (truncated, mismatched lengths, garbage).
func FuzzStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		if err := s.Load(bytes.NewReader(data)); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded image: %v", err)
		}
		r := NewStore()
		if err := r.Load(&buf); err != nil {
			t.Fatalf("Load of a saved image: %v", err)
		}
		if !r.Equal(s) || lineCount(r) != lineCount(s) {
			t.Fatalf("Save → Load round trip changed the image: %d lines, reloaded %d", lineCount(s), lineCount(r))
		}
	})
}
