package memdev

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// model is the naive reference for a Store: every line ever written, by
// line address.
type model map[uint64]Line

// modelAddr draws an address from the regions where the table's geometry
// has edges: the first leaves, leaf and directory boundaries, the 2 GB edge
// of the root table and far addresses past it, up to the top of the space.
func modelAddr(rng *rand.Rand) uint64 {
	edges := []uint64{
		0,
		1 << leafByteShift,
		1 << dirByteShift,
		3<<dirByteShift - LineBytes,
		rootDirs << dirByteShift, // 2 GB: the first far directory
		rootDirs<<dirByteShift - LineBytes,
		1 << 40,
		1<<64 - 1<<dirByteShift,
	}
	base := edges[rng.Intn(len(edges))]
	off := uint64(rng.Intn(4)) * LineBytes
	if rng.Intn(2) == 0 {
		return base + off + uint64(rng.Intn(WordsPerLine))*8
	}
	return base - off - LineBytes + uint64(rng.Intn(WordsPerLine))*8
}

// lineCount is how many distinct lines st has ever written.
func lineCount(st *Store) int {
	n := 0
	st.ForEachLine(func(uint64, Line) { n++ })
	return n
}

// checkModel compares every read-side view of st with its model.
func checkModel(t *testing.T, st *Store, m model, rng *rand.Rand) {
	t.Helper()
	want := slices.Sorted(maps.Keys(m))
	var got []uint64
	st.ForEachLine(func(addr uint64, data Line) {
		if m[addr] != data {
			t.Fatalf("ForEachLine %#x = %v, model %v", addr, data, m[addr])
		}
		got = append(got, addr)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("ForEachLine visited %x, model %x", got, want)
	}
	for i := 0; i < 16; i++ {
		a := modelAddr(rng)
		la := a &^ (LineBytes - 1)
		if st.ReadLine(a) != m[la] || st.ReadWord(a&^7) != m[la][(a%LineBytes)/8] {
			t.Fatalf("read at %#x disagrees with the model", a)
		}
	}
}

// checkPair checks Equal and the Diff walk of two stores against their
// models.
func checkPair(t *testing.T, a, b *Store, ma, mb model) {
	t.Helper()
	nonZeroSame := func(x, y model) bool {
		for addr, l := range x {
			if l != (Line{}) && y[addr] != l {
				return false
			}
		}
		return true
	}
	if got, want := a.Equal(b), nonZeroSame(ma, mb) && nonZeroSame(mb, ma); got != want {
		t.Fatalf("Equal = %v, model %v", got, want)
	}
	visited := make(map[uint64]bool)
	last, first := uint64(0), true
	a.Diff(b, 0, func(addr uint64, mine, theirs *Line, mineWrote bool) bool {
		if !first && addr <= last {
			t.Fatalf("diff walk out of order: %#x after %#x", addr, last)
		}
		last, first = addr, false
		l, inA := ma[addr]
		ol, inB := mb[addr]
		if *mine != l || *theirs != ol {
			t.Fatalf("diff walk %#x: lines %v / %v, model %v / %v", addr, *mine, *theirs, l, ol)
		}
		if mineWrote != inA {
			t.Fatalf("diff walk %#x: mineWrote %v, model wrote %v", addr, mineWrote, inA)
		}
		if inA == inB && l == ol {
			t.Fatalf("diff walk %#x: visited a line both stores hold alike", addr)
		}
		visited[addr] = true
		return true
	})
	// Completeness: every line the two images hold differently — different
	// data, or written on one side only — must be visited.
	for _, m := range []model{ma, mb} {
		for addr := range m {
			l, inA := ma[addr]
			ol, inB := mb[addr]
			if (inA != inB || l != ol) && !visited[addr] {
				t.Fatalf("diff walk skipped %#x: a %v (%v), b %v (%v)", addr, l, inA, ol, inB)
			}
		}
	}
	checkFloors(t, a, b, slices.Sorted(maps.Keys(visited)))
}

// checkFloors checks that a Diff walk with an address floor visits exactly
// the lines at or above it of the floorless walk all, for floors at and just
// past every visited line and at the geometry's edges up to the top of the
// address space.
func checkFloors(t *testing.T, a, b *Store, all []uint64) {
	t.Helper()
	floors := []uint64{0, 1, 1 << leafByteShift, 1 << dirByteShift, rootDirs << dirByteShift,
		1<<64 - 1<<dirByteShift, 1<<64 - 1<<leafByteShift, 1<<64 - LineBytes, 1<<64 - 1}
	for _, addr := range all {
		floors = append(floors, addr, addr+1, addr&^(1<<leafByteShift-1), addr&^(1<<dirByteShift-1))
	}
	for _, from := range floors {
		var got []uint64
		a.Diff(b, from, func(addr uint64, _, _ *Line, _ bool) bool {
			got = append(got, addr)
			return true
		})
		var want []uint64
		for _, addr := range all {
			if addr >= from {
				want = append(want, addr)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("diff walk from %#x visited %x, want %x", from, got, want)
		}
	}
}

// TestNoOpWriteKeepsLeafShared checks that a write which leaves an already
// written line unchanged copies nothing — on the clone and on its source,
// in the first leaves, at the root table's 2 GB edge and in the top
// directory of the 64-bit space — while a write that changes the line, or
// populates a never-written one, still copies.
func TestNoOpWriteKeepsLeafShared(t *testing.T) {
	for _, addr := range []uint64{0, 1 << leafByteShift, rootDirs << dirByteShift, 1<<64 - 1<<dirByteShift, 1<<64 - LineBytes} {
		// Two more lines of addr's leaf (XOR stays inside it at the top of
		// the space, where adding would wrap around).
		zeroed, unwritten := addr^LineBytes, addr^2*LineBytes
		s := NewStore()
		s.WriteLine(addr, Line{1, 2, 3})
		s.WriteWord(zeroed, 0) // zero data, but written
		c := s.Clone()
		for _, st := range []*Store{c, s} {
			st.WriteWord(addr+8, 2)
			st.WriteLine(addr, Line{1, 2, 3})
			st.WriteWord(zeroed, 0)
			st.WriteLine(zeroed, Line{})
			if c.leafOf(addr) != s.leafOf(addr) || c.dirAt(addr>>dirByteShift) != s.dirAt(addr>>dirByteShift) {
				t.Fatalf("%#x: a no-op write copied a shared leaf", addr)
			}
			if n := lineCount(st); n != 2 {
				t.Fatalf("%#x: no-op writes left %d populated lines, want 2", addr, n)
			}
		}

		// A zero written to a zero-filled line that was never written
		// populates it, so it copies; the clone's image moves, the source's
		// does not.
		c.WriteWord(unwritten, 0)
		if c.leafOf(addr) == s.leafOf(addr) || lineCount(c) != 3 || lineCount(s) != 2 {
			t.Fatalf("%#x: populating a zero line: shared %v, counts %d/%d", addr,
				c.leafOf(addr) == s.leafOf(addr), lineCount(c), lineCount(s))
		}
		c = s.Clone()
		c.WriteWord(addr+8, 7)
		if c.leafOf(addr) == s.leafOf(addr) {
			t.Fatalf("%#x: a changing write left the leaf shared", addr)
		}
		if s.ReadWord(addr+8) != 2 || c.ReadWord(addr+8) != 7 {
			t.Fatalf("%#x: copy-on-write leaked: source %d, clone %d", addr, s.ReadWord(addr+8), c.ReadWord(addr+8))
		}
	}
}

// TestNoOpWriteToFrozenStorePanics checks that freezing still forbids every
// write, including one that would change nothing.
func TestNoOpWriteToFrozenStorePanics(t *testing.T) {
	s := NewStore()
	s.WriteLine(LineBytes, Line{5})
	s.Freeze()
	for name, write := range map[string]func(){
		"WriteWord": func() { s.WriteWord(LineBytes, 5) },
		"WriteLine": func() { s.WriteLine(LineBytes, Line{5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no-op %s to a frozen store did not panic", name)
				}
			}()
			write()
		}()
	}
}

// TestStoreMatchesModel drives random writes (no-op rewrites included),
// clone chains and freezes against the naive map model, checking every
// read-side view after each step, and Diff and Equal against a compare of
// every line. The arena families also clone frozen stores into an arena and
// reset it: the arena's stores — every store cloned from one, too — die at
// the reset, a write to one of them panics, and every store made since
// must read exactly as its model, whatever the recycled nodes held before.
// The Diff checks must meet each kind of unshared leaf pair mayDiffer tells
// apart, with lines that differ.
func TestStoreMatchesModel(t *testing.T) {
	var kinds pairKinds
	for _, family := range []string{"", "arena-"} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprint(family, seed), func(t *testing.T) {
				testStoreModel(t, seed, family != "", &kinds)
			})
		}
	}
	for kind, n := range kinds {
		if n == 0 {
			t.Errorf("no differing leaf pair of kind %d (same root, one the other's root, unrelated) was compared", kind)
		}
	}
}

// pairKinds counts the unshared leaf pairs, both written, whose contents
// differ: [0] copies of one chain, [1] a leaf and its chain's root, [2]
// leaves of different chains.
type pairKinds [3]int

// count adds the leaf pairs of a and b to k.
func (k *pairKinds) count(a, b *Store) {
	for i := range uint64(max(len(a.root), len(b.root))) {
		d, od := a.dirAt(i), b.dirAt(i)
		if d == od {
			continue
		}
		for j, l := range d.leaves {
			ol := od.leaves[j]
			if l == nil || ol == nil || l == ol || l.lines == ol.lines && l.written == ol.written {
				continue
			}
			switch {
			case l.base == ol.base && l.base != nil:
				k[0]++
			case l.base == ol || ol.base == l:
				k[1]++
			default:
				k[2]++
			}
		}
	}
}

// testStoreModel runs one seed of TestStoreMatchesModel.
func testStoreModel(t *testing.T, seed int64, withArena bool, kinds *pairKinds) {
	rng := rand.New(rand.NewSource(seed))
	arena := new(Arena)
	stores := []*Store{NewStore()}
	models := []model{{}}
	inArena := []bool{false}
	ops := 10 // writes, clones and freezes
	if withArena {
		ops = 12 // and CloneIn and Reset
	}
	for step := 0; step < 400; step++ {
		i := rng.Intn(len(stores))
		st, m := stores[i], models[i]
		switch op := rng.Intn(ops); {
		case op < 6 && !st.frozen:
			a := modelAddr(rng)
			la := a &^ (LineBytes - 1)
			l := m[la]
			if len(m) > 0 && rng.Intn(4) == 0 {
				// A no-op write: a written line rewritten with its data.
				addrs := slices.Sorted(maps.Keys(m))
				la = addrs[rng.Intn(len(addrs))]
				if op < 3 {
					st.WriteLine(la, m[la])
				} else {
					w := rng.Intn(WordsPerLine)
					st.WriteWord(la+uint64(w*8), m[la][w])
				}
				break
			}
			if op < 3 {
				var data Line
				if rng.Intn(3) != 0 {
					data[rng.Intn(WordsPerLine)] = rng.Uint64()
				}
				st.WriteLine(a, data)
				l = data
			} else {
				w := rng.Uint64()
				if rng.Intn(4) == 0 {
					w = 0 // zero data still populates the line
				}
				st.WriteWord(a&^7, w)
				l[(a%LineBytes)/8] = w
			}
			m[la] = l
		case op < 8 && len(stores) < 12:
			stores = append(stores, st.Clone())
			models = append(models, maps.Clone(m))
			inArena = append(inArena, inArena[i])
		case op == 8 && !st.frozen:
			st.Freeze()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("write to a frozen store did not panic")
					}
				}()
				st.WriteWord(modelAddr(rng)&^7, 1)
			}()
		case op < 11 && withArena && len(stores) < 12:
			st.Freeze() // CloneIn clones frozen images only
			stores = append(stores, arena.CloneIn(st))
			models = append(models, maps.Clone(m))
			inArena = append(inArena, true)
		case op == 11 && withArena && rng.Intn(3) == 0:
			// Each live store of the arena first writes the word its dead
			// write will target, so it owns that leaf at the Reset.
			var dead []*Store
			var at []uint64
			for j, d := range stores {
				if inArena[j] && !d.frozen {
					a := modelAddr(rng) &^ 7
					d.WriteWord(a, rng.Uint64())
					dead, at = append(dead, d), append(at, a)
				}
			}
			arena.Reset()
			for k, d := range dead {
				checkDeadWritePanics(t, d, at[k])
			}
			var keep []int
			for j := range stores {
				if !inArena[j] {
					keep = append(keep, j)
				}
			}
			stores, models, inArena = pick(stores, keep), pick(models, keep), pick(inArena, keep)
			continue
		}
		checkModel(t, st, m, rng)
		j := rng.Intn(len(stores))
		checkPair(t, st, stores[j], m, models[j])
		checkPair(t, stores[j], st, models[j], m)
		kinds.count(st, stores[j])
	}
}

// checkDeadWritePanics checks that a write at addr to a store whose arena
// was reset panics, even when it would leave the word as it reads.
func checkDeadWritePanics(t *testing.T, st *Store, addr uint64) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("write at %#x to a store whose arena was reset did not panic", addr)
		}
	}()
	st.WriteWord(addr, st.ReadWord(addr))
}

// pick returns the elements of xs at the indices keep.
func pick[T any](xs []T, keep []int) []T {
	out := make([]T, len(keep))
	for i, j := range keep {
		out[i] = xs[j]
	}
	return out
}
