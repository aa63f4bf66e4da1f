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

// checkModel compares every read-side view of st with its model.
func checkModel(t *testing.T, st *Store, m model, rng *rand.Rand) {
	t.Helper()
	if st.LineCount() != len(m) {
		t.Fatalf("LineCount %d, model %d", st.LineCount(), len(m))
	}
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

// checkPair checks Equal and ForEachUnsharedLine of two stores against
// their models.
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
	a.ForEachUnsharedLine(b, func(addr uint64, mine, theirs *Line) bool {
		if !first && addr <= last {
			t.Fatalf("unshared walk out of order: %#x after %#x", addr, last)
		}
		last, first = addr, false
		if l, ok := ma[addr]; !ok || *mine != l {
			t.Fatalf("unshared walk %#x: mine %v, model %v (populated %v)", addr, *mine, l, ok)
		}
		if *theirs != mb[addr] {
			t.Fatalf("unshared walk %#x: theirs %v, model %v", addr, *theirs, mb[addr])
		}
		visited[addr] = true
		return true
	})
	// Completeness: every line of a that b lacks or holds differently must
	// be visited; only lines both images hold identically may be skipped.
	for addr, l := range ma {
		if ol, ok := mb[addr]; (!ok || ol != l) && !visited[addr] {
			t.Fatalf("unshared walk skipped %#x: a %v, b %v (b populated %v)", addr, l, ol, ok)
		}
	}
}

// TestStoreMatchesModel drives random writes, clone chains and freezes
// against the naive map model, checking every read-side view after each
// step.
func TestStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			stores := []*Store{NewStore()}
			models := []model{{}}
			for step := 0; step < 400; step++ {
				i := rng.Intn(len(stores))
				st, m := stores[i], models[i]
				switch op := rng.Intn(10); {
				case op < 6 && !st.Frozen():
					a := modelAddr(rng)
					la := a &^ (LineBytes - 1)
					l := m[la]
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
				case op == 8 && !st.Frozen():
					st.Freeze()
					func() {
						defer func() {
							if recover() == nil {
								t.Fatal("write to a frozen store did not panic")
							}
						}()
						st.WriteWord(modelAddr(rng)&^7, 1)
					}()
				}
				checkModel(t, st, m, rng)
				j := rng.Intn(len(stores))
				checkPair(t, st, stores[j], m, models[j])
				checkPair(t, stores[j], st, models[j], m)
			}
		})
	}
}
