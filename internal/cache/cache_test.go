package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dhtm/internal/memdev"
)

func newSmall() *Cache { return New(4*1024, 4, 64) } // 16 sets, 4 ways

// TestInsertLookup checks the basic place/lookup cycle.
func TestInsertLookup(t *testing.T) {
	c := newSmall()
	way := c.Victim(0x1000)
	if way.Valid() {
		t.Fatalf("victim in an empty cache is valid")
	}
	line := c.PlaceAt(way, 0x1010, Shared, memdev.Line{1, 2, 3})
	if line.Addr != 0x1000 {
		t.Fatalf("placed line address %#x, want line-aligned 0x1000", line.Addr)
	}
	got := c.Lookup(0x1038)
	if got == nil || got.Data[0] != 1 {
		t.Fatalf("lookup of another word in the same line failed")
	}
	if c.Lookup(0x2000) != nil {
		t.Fatalf("lookup of an absent line hit")
	}
}

// TestVictimPrefersInvalidThenLRU checks replacement policy.
func TestVictimPrefersInvalidThenLRU(t *testing.T) {
	c := New(4*64, 4, 64) // a single set with 4 ways
	addrs := []uint64{0x0, 0x1000, 0x2000, 0x3000}
	for _, a := range addrs {
		c.PlaceAt(c.Victim(a), a, Modified, memdev.Line{})
	}
	// Touch everything except 0x1000 so it becomes LRU.
	c.Lookup(0x0)
	c.Lookup(0x2000)
	c.Lookup(0x3000)
	v := c.Victim(0x4000)
	if !v.Valid() || v.Addr != 0x1000 {
		t.Fatalf("victim is %#x, want the LRU line 0x1000", v.Addr)
	}
}

// TestInvalidateAndClear checks invalidation paths.
func TestInvalidateAndClear(t *testing.T) {
	c := newSmall()
	c.PlaceAt(c.Victim(0x40), 0x40, Modified, memdev.Line{9})
	c.Invalidate(0x40)
	if c.Lookup(0x40) != nil {
		t.Fatalf("line still present after Invalidate")
	}
	c.PlaceAt(c.Victim(0x80), 0x80, Shared, memdev.Line{})
	c.Clear()
	if n := c.CountIf(func(*Line) bool { return true }); n != 0 {
		t.Fatalf("%d lines survive Clear", n)
	}
}

// TestWordAccessors checks ReadWord/WriteWord on present lines.
func TestWordAccessors(t *testing.T) {
	c := newSmall()
	c.PlaceAt(c.Victim(0x100), 0x100, Modified, memdev.Line{})
	c.WriteWord(0x118, 77)
	if got := c.ReadWord(0x118); got != 77 {
		t.Fatalf("ReadWord = %d, want 77", got)
	}
}

// TestSharerVector checks the directory bitmap helpers.
func TestSharerVector(t *testing.T) {
	var l Line
	l.AddSharer(3)
	l.AddSharer(5)
	if !l.HasSharer(3) || !l.HasSharer(5) || l.HasSharer(4) {
		t.Fatalf("sharer vector wrong: %b", l.Sharers)
	}
	l.RemoveSharer(3)
	if l.HasSharer(3) {
		t.Fatalf("sharer 3 still present after removal")
	}
}

// TestPropertyCapacityRespected: no matter the insertion sequence, the number
// of valid lines never exceeds the capacity, and a just-inserted line is
// always found until something else in its set evicts it.
func TestPropertyCapacityRespected(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(2*1024, 2, 64) // 16 sets, 2 ways
		for _, a := range addrs {
			addr := uint64(a) * 64
			way := c.Victim(addr)
			c.PlaceAt(way, addr, Shared, memdev.Line{uint64(a)})
			if c.Peek(addr) == nil {
				return false
			}
			if c.CountIf(func(*Line) bool { return true }) > c.Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerationClear checks the O(1) Clear invariants: stale lines are
// unobservable through every read path, Victim hands back stale ways as
// invalid (so write-back decisions see a post-crash cache), and lines placed
// after a Clear behave exactly as in a freshly built cache — including when
// the pre-Clear contents aliased the same addresses.
func TestGenerationClear(t *testing.T) {
	c := New(4*64, 4, 64) // a single set with 4 ways
	addrs := []uint64{0x0, 0x1000, 0x2000, 0x3000}
	for i, a := range addrs {
		l := c.PlaceAt(c.Victim(a), a, Modified, memdev.Line{uint64(i) + 1})
		l.Dirty = true
	}
	c.Clear()

	if c.Peek(0x1000) != nil || c.Lookup(0x2000) != nil {
		t.Fatalf("stale line visible after Clear")
	}
	if n := c.CountIf(func(*Line) bool { return true }); n != 0 {
		t.Fatalf("%d stale lines counted after Clear", n)
	}
	c.ForEach(func(l *Line) { t.Fatalf("ForEach visited stale line %#x", l.Addr) })

	// Victim must treat every stale way as invalid and return it reset, so a
	// caller checking Valid()/Dirty performs no bogus write-back.
	v := c.Victim(0x0)
	if v.Valid() || v.Dirty {
		t.Fatalf("victim after Clear is %+v, want a reset invalid way", v)
	}

	// Refill the same set, re-using addresses from before the Clear: old data
	// must never resurface and capacity must be fully available.
	for i, a := range addrs {
		c.PlaceAt(c.Victim(a), a, Shared, memdev.Line{uint64(i) + 100})
	}
	for i, a := range addrs {
		l := c.Lookup(a)
		if l == nil || l.Data[0] != uint64(i)+100 || l.Dirty {
			t.Fatalf("line %#x after refill = %+v, want fresh contents", a, l)
		}
	}

	// Many clear/refill rounds stay consistent (the generation just climbs).
	for round := 0; round < 1000; round++ {
		c.Clear()
		if c.Peek(0x1000) != nil {
			t.Fatalf("round %d: stale hit", round)
		}
		c.PlaceAt(c.Victim(0x1000), 0x1000, Modified, memdev.Line{uint64(round)})
		if got := c.ReadWord(0x1000); got != uint64(round) {
			t.Fatalf("round %d: read %d", round, got)
		}
	}
}

// checkTxIndex fails if a live line carries R or W while its set is not
// marked: the index must stay a superset of the transactional sets.
func checkTxIndex(t *testing.T, c *Cache, step int) {
	t.Helper()
	for i := range c.slab {
		l := &c.slab[i]
		s := i / c.ways
		if c.txLine(l) && c.txSets[s/64]&(1<<(uint(s)%64)) == 0 {
			t.Fatalf("step %d: line %#x (set %d) has R=%v W=%v but its set is unmarked", step, l.Addr, s, l.R, l.W)
		}
	}
}

// wayOf returns l's index in c's slab.
func wayOf(c *Cache, l *Line) int {
	for i := range c.slab {
		if &c.slab[i] == l {
			return i
		}
	}
	panic("line is not a way of the cache")
}

// sweeps are the callbacks the designs pass to the transactional sweep: a
// plain visit, DHTM's commit (clear R, collect W), the abort (reset W lines,
// clear R) and the HTM baselines' commit (clear both bits).
var sweeps = []func(*Line){
	func(*Line) {},
	func(l *Line) { l.R = false },
	func(l *Line) {
		if l.W {
			l.Reset()
			return
		}
		l.R = false
	},
	func(l *Line) { l.R, l.W = false, false },
}

// TestForEachTxMatchesForEach drives two identical caches through random
// operation sequences: placements, marks, the direct write-bit clears that
// completion and forwarding perform, resets, invalidations and Clear. At every
// sweep, one cache runs ForEachTx and the other ForEach filtered to lines with
// R or W; both must visit the same lines in the same order and end in the
// same state.
func TestForEachTxMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		idx := New(128*2*64, 2, 64) // 128 sets (two bitmap words), 2 ways
		ref := New(128*2*64, 2, 64)
		addr := func() uint64 { return uint64(rng.Intn(1024)) * 64 }
		for step := 0; step < 3000; step++ {
			a := addr()
			op := rng.Intn(100)
			switch {
			case op < 30:
				for _, c := range []*Cache{idx, ref} {
					c.PlaceAt(c.Victim(a), a, Modified, memdev.Line{a})
				}
			case op < 55:
				if idx.Peek(a) != nil {
					idx.MarkRead(idx.Peek(a))
					ref.MarkRead(ref.Peek(a))
				}
			case op < 75:
				if idx.Peek(a) != nil {
					idx.MarkWrite(idx.Peek(a))
					ref.MarkWrite(ref.Peek(a))
				}
			case op < 82:
				// CompleteL1Line and a forwarded downgrade clear W in place.
				if idx.Peek(a) != nil {
					idx.Peek(a).W = false
					ref.Peek(a).W = false
				}
			case op < 86:
				if idx.Peek(a) != nil {
					idx.Peek(a).Reset()
					ref.Peek(a).Reset()
				}
			case op < 89:
				idx.Invalidate(a)
				ref.Invalidate(a)
			case op < 90:
				idx.Clear()
				ref.Clear()
			default:
				f := sweeps[rng.Intn(len(sweeps))]
				var got, want []int
				idx.ForEachTx(func(l *Line) {
					got = append(got, wayOf(idx, l))
					f(l)
				})
				ref.ForEach(func(l *Line) {
					if l.R || l.W {
						want = append(want, wayOf(ref, l))
						f(l)
					}
				})
				if len(got) != len(want) {
					t.Fatalf("round %d step %d: ForEachTx visited %d lines, ForEach %d", round, step, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("round %d step %d: visit %d is way %d, want way %d", round, step, i, got[i], want[i])
					}
				}
			}
			for i := range idx.slab {
				if idx.slab[i] != ref.slab[i] {
					t.Fatalf("round %d step %d: way %d differs: %+v vs %+v", round, step, i, idx.slab[i], ref.slab[i])
				}
			}
			checkTxIndex(t, idx, step)
		}
	}
}

// TestForEachTxUnmarksCleanSets checks that a sweep drops the marks of sets
// left without transactional lines, keeps the others, and that Clear empties
// the index.
func TestForEachTxUnmarksCleanSets(t *testing.T) {
	c := newSmall()
	r := c.PlaceAt(c.Victim(0x40), 0x40, Shared, memdev.Line{})
	w := c.PlaceAt(c.Victim(0x80), 0x80, Modified, memdev.Line{})
	c.MarkRead(r)
	c.MarkWrite(w)
	c.ForEachTx(func(l *Line) { l.R = false }) // DHTM commit: W survives
	if c.txSets[0] != 1<<c.setIndex(0x80) {
		t.Fatalf("index after commit sweep = %b, want only the write line's set", c.txSets[0])
	}
	c.MarkRead(r)
	c.Clear()
	if c.txSets[0] != 0 {
		t.Fatalf("index after Clear = %b, want empty", c.txSets[0])
	}
	n := 0
	c.ForEachTx(func(*Line) { n++ })
	if n != 0 {
		t.Fatalf("ForEachTx visited %d lines after Clear", n)
	}
}

// TestTxIndexZeroAlloc pins the marking and sweeping hot path at zero
// allocations, with a capturing callback shaped like DHTM's commit.
func TestTxIndexZeroAlloc(t *testing.T) {
	c := New(32*1024, 4, 64)
	var lines []*Line
	for i := 0; i < 8; i++ {
		a := uint64(i) * 4096
		lines = append(lines, c.PlaceAt(c.Victim(a), a, Modified, memdev.Line{}))
	}
	pending := make([]uint64, 0, len(lines))
	allocs := testing.AllocsPerRun(100, func() {
		for _, l := range lines {
			c.MarkWrite(l)
		}
		pending = pending[:0]
		c.ForEachTx(func(l *Line) {
			if l.W {
				pending = append(pending, l.Addr)
			}
			l.W = false
		})
	})
	if allocs != 0 || len(pending) != len(lines) {
		t.Fatalf("MarkWrite+ForEachTx: %v allocs, %d lines collected; want 0 allocs, %d lines", allocs, len(pending), len(lines))
	}
}

// TestNewRejectsNonPowerOfTwo checks the geometry precondition setIndex
// relies on.
func TestNewRejectsNonPowerOfTwo(t *testing.T) {
	for _, g := range [][3]int{
		{3 * 4 * 64, 4, 64}, // 3 sets
		{4 * 4 * 96, 4, 96}, // 96-byte lines
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d, %d) did not panic", g[0], g[1], g[2])
				}
			}()
			New(g[0], g[1], g[2])
		}()
	}
}

// BenchmarkL1AbortSweep measures an abort's L1 cleanup on the paper's L1
// geometry (32 KB, 4 ways) with a few marked lines: "index" is the
// transactional sweep, "full" the all-ways sweep it replaced.
func BenchmarkL1AbortSweep(b *testing.B) {
	c := New(32*1024, 4, 64)
	var lines []*Line
	for i := 0; i < 16; i++ {
		a := uint64(i) * 64 * 7
		lines = append(lines, c.PlaceAt(c.Victim(a), a, Modified, memdev.Line{}))
	}
	mark := func() {
		for i, l := range lines {
			if i%2 == 0 {
				c.MarkRead(l)
			} else {
				c.MarkWrite(l)
			}
		}
	}
	// The lines stay resident so every iteration sweeps the same state.
	clearBits := func(l *Line) { l.R, l.W = false, false }
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mark()
			c.ForEachTx(clearBits)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mark()
			c.ForEach(clearBits)
		}
	})
}

// BenchmarkCachePeek measures lookups on the paper's LLC geometry (8 MB,
// 16 ways), half hits and half misses.
func BenchmarkCachePeek(b *testing.B) {
	c := New(8*1024*1024, 16, 64)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		a := uint64(rng.Intn(1<<20)) * 64
		if i%2 == 0 {
			c.PlaceAt(c.Victim(a), a, Shared, memdev.Line{})
		}
		addrs[i] = a
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peekSink = c.Peek(addrs[i%len(addrs)])
	}
}

// peekSink keeps BenchmarkCachePeek's lookups from being optimised away.
var peekSink *Line
