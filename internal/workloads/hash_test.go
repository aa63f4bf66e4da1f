package workloads

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
)

// TestWindowKeyIsBijection enumerates, for every (partition, window) of the
// geometry, i → windowKey over [0, hashSpan·hashKeysPerBucket) and
// requires it to be one to one onto exactly the keys in [1, hashKeySpace]
// whose bucket lies in that window: Next's single draw per key is then
// uniform over the window's keys. It also checks hashBucketInverse inverts
// bucketIndex's multiplier.
func TestWindowKeyIsBijection(t *testing.T) {
	if m := uint64(hashBucketMultiplier); m*hashBucketInverse != 1 {
		t.Fatalf("hashBucketMultiplier × hashBucketInverse = %#x, want 1", m*hashBucketInverse)
	}
	const parts = uint64(partitions)
	if hashSpan*parts*hashWindowsPerPartition != hashBuckets {
		t.Fatalf("geometry %d partitions × %d windows × %d buckets does not tile %d",
			parts, hashWindowsPerPartition, hashSpan, hashBuckets)
	}
	// The window (part·windows + window) of every key in the key space.
	inWindow := make([]int, parts*hashWindowsPerPartition)
	for key := uint64(1); key <= hashKeySpace; key++ {
		inWindow[bucketIndex(key)/hashSpan]++
	}
	seen := make([]bool, hashKeySpace+1)
	for part := uint64(0); part < parts; part++ {
		for window := uint64(0); window < hashWindowsPerPartition; window++ {
			w := part*hashWindowsPerPartition + window
			n := hashSpan * hashKeysPerBucket
			if uint64(inWindow[w]) != n {
				t.Fatalf("window %d/%d holds %d keys, draws range over %d", part, window, inWindow[w], n)
			}
			for i := uint64(0); i < n; i++ {
				key := windowKey(part, window, i)
				if key < 1 || key > hashKeySpace {
					t.Fatalf("window %d/%d: i=%d gives key %d outside [1, %d]", part, window, i, key, hashKeySpace)
				}
				if got := bucketIndex(key) / hashSpan; got != w {
					t.Fatalf("window %d/%d: i=%d gives key %d in window %d", part, window, i, key, got)
				}
				if seen[key] {
					t.Fatalf("window %d/%d: i=%d gives key %d a second time", part, window, i, key)
				}
				seen[key] = true
			}
		}
	}
}

// TestHashSetupMatchesWordByWordBuild checks that Setup's batched line
// writes produce exactly the image, and the written-line set, of inserting
// every key word by word into the heap with the same draws.
func TestHashSetupMatchesWordByWordBuild(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		p := Params{Seed: seed}
		got := palloc.New(memdev.NewStore())
		if err := newHash().Setup(got, p); err != nil {
			t.Fatal(err)
		}

		want := palloc.New(memdev.NewStore())
		h := &hashWL{meta: want.AllocLines(1), buckets: want.AllocLines(hashBuckets)}
		rng := rand.New(rand.NewSource(seed + 1))
		inserted := make(map[uint64]bool)
		for total := 0; total < hashBuckets*hashSlotsPerBucket/2; {
			key := rng.Uint64()%hashKeySpace + 1
			b := h.bucketOf(key)
			cnt, sum := unpackBucketHeader(want.ReadWord(word(b, 0)))
			if inserted[key] || cnt >= hashSlotsPerBucket {
				continue
			}
			want.WriteWord(word(b, 1+int(cnt)), key)
			want.WriteWord(word(b, 0), packBucketHeader(cnt+1, sum+key))
			inserted[key] = true
			total++
		}
		want.WriteWord(word(h.meta, 0), hashBuckets)

		if !got.Store().Equal(want.Store()) {
			t.Fatalf("seed %d: batched Setup image differs from the word-by-word build", seed)
		}
		if g, w := lineCount(got.Store()), lineCount(want.Store()); g != w {
			t.Fatalf("seed %d: Setup wrote %d lines, the word-by-word build %d", seed, g, w)
		}
	}
}

// lineCount is how many distinct lines st has ever written.
func lineCount(st *memdev.Store) int {
	n := 0
	st.ForEachLine(func(uint64, memdev.Line) { n++ })
	return n
}

// TestHashVerifyMatchesFullWalk corrupts one bucket of a post-setup clone
// per error class and requires Verify, which skips the leaves an image
// shares with the set-up baseline, to report exactly the error of a walk
// over the whole table (a hash workload with no baseline). A Save/Load
// round trip of each image, which shares no leaf with the baseline, must be
// caught the same way.
func TestHashVerifyMatchesFullWalk(t *testing.T) {
	heap := palloc.New(memdev.NewStore())
	h := newHash()
	if err := h.Setup(heap, Params{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	full := &hashWL{meta: h.meta, buckets: h.buckets}

	// A bucket in the table's second half with room for one more key, and
	// one in the first half, on another leaf.
	pick := func(from int) (uint64, memdev.Line) {
		for i := from; i < hashBuckets; i++ {
			b := line(h.buckets, i)
			l := h.baseline.ReadLine(b)
			if cnt, _ := unpackBucketHeader(l[0]); cnt >= 2 && cnt < hashSlotsPerBucket {
				return b, l
			}
		}
		t.Fatal("no partly filled bucket")
		return 0, memdev.Line{}
	}
	b, orig := pick(hashBuckets / 2)
	low, lowOrig := pick(0)
	cnt, sum := unpackBucketHeader(orig[0])

	type corruption struct {
		name, want string
		apply      func(st *memdev.Store)
	}
	set := func(l memdev.Line, i int, v uint64) memdev.Line { l[i] = v; return l }
	cases := []corruption{
		{"meta", "bucket count corrupted", func(st *memdev.Store) { st.WriteWord(word(h.meta, 0), 7) }},
		{"count", "exceeds capacity", func(st *memdev.Store) {
			st.WriteLine(b, set(orig, 0, packBucketHeader(hashSlotsPerBucket+1, sum)))
		}},
		{"empty slot", "empty but within count", func(st *memdev.Store) { st.WriteLine(b, set(orig, 1, 0)) }},
		{"wrong bucket", "stored in wrong bucket", func(st *memdev.Store) { st.WriteLine(b, set(orig, 1, orig[1]+1)) }},
		{"checksum", "checksum", func(st *memdev.Store) { st.WriteLine(b, set(orig, 0, packBucketHeader(cnt, sum+1))) }},
		{"beyond count", "beyond count is not empty", func(st *memdev.Store) { st.WriteLine(b, set(orig, int(1+cnt), orig[1])) }},
		{"lowest bucket wins", "checksum", func(st *memdev.Store) {
			st.WriteLine(b, set(orig, 1, 0))
			lc, ls := unpackBucketHeader(lowOrig[0])
			st.WriteLine(low, set(lowOrig, 0, packBucketHeader(lc, ls+1)))
		}},
	}
	check := func(name string, st *memdev.Store, want string) {
		t.Helper()
		got, ref := h.Verify(st), full.Verify(st)
		if want == "" {
			if got != nil || ref != nil {
				t.Fatalf("%s: clean image: Verify %v, full walk %v", name, got, ref)
			}
			return
		}
		if ref == nil || !strings.Contains(ref.Error(), want) {
			t.Fatalf("%s: full walk %v, want an error containing %q", name, ref, want)
		}
		if got == nil || got.Error() != ref.Error() {
			t.Fatalf("%s: Verify %v, full walk %v", name, got, ref)
		}
	}
	reload := func(st *memdev.Store) *memdev.Store {
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out := memdev.NewStore()
		if err := out.Load(&buf); err != nil {
			t.Fatal(err)
		}
		return out
	}
	check("clean", h.baseline.Clone(), "")
	check("clean reloaded", reload(h.baseline), "")
	for _, c := range cases {
		st := h.baseline.Clone()
		c.apply(st)
		check(c.name, st, c.want)
		check(c.name+" reloaded", reload(st), c.want)
	}
}
