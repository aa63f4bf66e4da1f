package memdev

import (
	"bytes"
	"sync"
	"testing"
)

// TestCloneCopyOnWriteIsolation checks that writes after a Clone never leak
// in either direction, across word and line granularity and across multiple
// pages.
func TestCloneCopyOnWriteIsolation(t *testing.T) {
	s := NewStore()
	for pg := uint64(0); pg < 4; pg++ {
		base := pg << leafByteShift
		s.WriteWord(base+8, 100+pg)
		s.WriteLine(base+0x400, Line{pg, pg, pg})
	}
	c := s.Clone()

	// Mutate the clone: the original must not move.
	c.WriteWord(8, 999)
	c.WriteLine(0x400, Line{9, 9, 9})
	c.WriteWord(5<<leafByteShift, 1) // page the original never touched
	if got := s.ReadWord(8); got != 100 {
		t.Fatalf("original word moved after clone write: %d", got)
	}
	if got := s.ReadLine(0x400); got != (Line{0, 0, 0}) {
		t.Fatalf("original line moved after clone write: %v", got)
	}
	if s.ReadWord(5<<leafByteShift) != 0 {
		t.Fatalf("clone's fresh page leaked into the original")
	}

	// Mutate the original: the clone must not move either (ownership is
	// dropped on both sides).
	s.WriteWord(1<<leafByteShift+8, 555)
	if got := c.ReadWord(1<<leafByteShift + 8); got != 101 {
		t.Fatalf("original write leaked into the clone: %d", got)
	}

	// Untouched pages still read identically on both sides.
	for pg := uint64(2); pg < 4; pg++ {
		base := pg << leafByteShift
		if s.ReadWord(base+8) != c.ReadWord(base+8) {
			t.Fatalf("untouched page %d diverged", pg)
		}
	}
}

// TestCloneSharesUntouchedSlabs checks the clone is actually lazy: leaves
// and directories are shared until written, and a write copies only the
// touched leaf and its directory.
func TestCloneSharesUntouchedSlabs(t *testing.T) {
	s := NewStore()
	s.WriteWord(0, 1)
	s.WriteWord(1<<leafByteShift, 2)
	s.WriteWord(1<<dirByteShift, 3)
	c := s.Clone()
	if c.leafOf(0) != s.leafOf(0) || c.leafOf(1<<leafByteShift) != s.leafOf(1<<leafByteShift) {
		t.Fatalf("clone deep-copied slabs eagerly")
	}
	c.WriteWord(0, 3)
	if c.leafOf(0) == s.leafOf(0) {
		t.Fatalf("written slab still shared")
	}
	if c.leafOf(1<<leafByteShift) != s.leafOf(1<<leafByteShift) {
		t.Fatalf("untouched slab copied on unrelated write")
	}
	if c.root[1] != s.root[1] {
		t.Fatalf("untouched directory copied on unrelated write")
	}
	if s.ReadWord(0) != 1 || c.ReadWord(0) != 3 {
		t.Fatalf("copy-on-write leaked: source %d, clone %d", s.ReadWord(0), c.ReadWord(0))
	}
}

// TestCloneChainAndCounts checks clone-of-clone isolation and that line
// counts and Equal stay correct across copy-on-write copies.
func TestCloneChainAndCounts(t *testing.T) {
	s := NewStore()
	for i := uint64(0); i < 100; i++ {
		s.WriteWord(i*64, i)
	}
	a := s.Clone()
	b := a.Clone()
	if !s.Equal(a) || !s.Equal(b) {
		t.Fatalf("clones not equal to source")
	}
	if lineCount(a) != lineCount(s) || lineCount(b) != lineCount(s) {
		t.Fatalf("clone line counts diverge: %d %d %d", lineCount(s), lineCount(a), lineCount(b))
	}
	b.WriteWord(100*64, 1) // new line only in b
	if lineCount(b) != lineCount(s)+1 || lineCount(a) != lineCount(s) {
		t.Fatalf("copy-on-write write miscounted lines")
	}
	if s.Equal(b) || !s.Equal(a) {
		t.Fatalf("clone chain isolation broken")
	}
}

// TestFrozenStorePanicsOnWrite checks Freeze makes every mutation path panic
// while reads and Save keep working.
func TestFrozenStorePanicsOnWrite(t *testing.T) {
	s := NewStore()
	s.WriteWord(0x1000, 7)
	s.Freeze()
	if !s.frozen {
		t.Fatalf("not frozen after Freeze")
	}
	if s.ReadWord(0x1000) != 7 {
		t.Fatalf("read broken after Freeze")
	}
	for name, write := range map[string]func(){
		"WriteWord": func() { s.WriteWord(0x1000, 8) },
		"WriteLine": func() { s.WriteLine(0x2000, Line{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on frozen store did not panic", name)
				}
			}()
			write()
		}()
	}
	if s.ReadWord(0x1000) != 7 {
		t.Fatalf("frozen contents moved")
	}
}

// TestFrozenCloneConcurrent clones a frozen image from many goroutines at
// once — the pattern the setup-snapshot cache relies on — and checks every
// clone is independent and correct. Run under -race this proves Clone
// performs no writes to the shared image.
func TestFrozenCloneConcurrent(t *testing.T) {
	img := NewStore()
	for i := uint64(0); i < 1000; i++ {
		img.WriteWord(i*64, i^0xbeef)
	}
	img.Freeze()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				c := img.Clone()
				// Overwrite a goroutine-specific slice of lines.
				for i := uint64(0); i < 50; i++ {
					c.WriteWord((uint64(g)*50+i)*64, uint64(g))
				}
				for i := uint64(0); i < 1000; i++ {
					want := i ^ 0xbeef
					if i >= uint64(g)*50 && i < uint64(g)*50+50 {
						want = uint64(g)
					}
					if got := c.ReadWord(i * 64); got != want {
						t.Errorf("g%d rep%d: word %d = %d, want %d", g, rep, i, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The image itself never moved.
	for i := uint64(0); i < 1000; i++ {
		if img.ReadWord(i*64) != i^0xbeef {
			t.Fatalf("frozen image mutated by concurrent clones")
		}
	}
}

// TestCloneSaveLoadRoundtrip checks gob serialisation still round-trips
// through copy-on-write clones.
func TestCloneSaveLoadRoundtrip(t *testing.T) {
	s := NewStore()
	for i := uint64(0); i < 64; i++ {
		s.WriteWord(0x8000+i*8, i*3)
	}
	c := s.Clone()
	c.WriteWord(0x8000, 42)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored := NewStore()
	if err := restored.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !restored.Equal(c) || restored.Equal(s) {
		t.Fatalf("clone image round-trip mismatch")
	}
}
