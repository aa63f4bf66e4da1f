package workloads

import (
	"math/rand"
	"testing"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
)

// TestKeyInWindowFastPathMatchesPredicate proves the contiguous-range accept
// test used by keyInWindow's fast path is equivalent to the general
// partition+window predicate for every key in the key space, across aligned
// geometries, and that testing the raw draw r (the bucket of r+1) decides
// exactly as testing the key r%hashKeySpace+1 it returns. Equivalence of the
// per-draw accept decision is what guarantees the rng draw sequence — and
// therefore every golden table — is unchanged.
func TestKeyInWindowFastPathMatchesPredicate(t *testing.T) {
	for _, partitions := range []int{1, 2, 4, 8, 16, 32} {
		h := &hashWL{partitions: partitions}
		bucketsPerPart := uint64(hashBuckets / h.partitions)
		if hashBuckets != bucketsPerPart*uint64(h.partitions) || bucketsPerPart%hashWindowsPerPartition != 0 {
			t.Fatalf("partitions=%d: geometry unexpectedly unaligned", partitions)
		}
		span := bucketsPerPart / hashWindowsPerPartition
		for key := uint64(1); key <= hashKeySpace; key++ {
			idx := bucketIndex(key)
			part := h.partitionOf(key)
			window := h.windowOf(key)
			lo := part*bucketsPerPart + window*span
			// The fast path accepts key for (part, window) iff idx-lo < span;
			// the general predicate accepts iff partitionOf/windowOf match.
			// Check both directions: the key is accepted for its own
			// (part, window) and for no adjacent window.
			if idx-lo >= span {
				t.Fatalf("partitions=%d key=%d: fast path rejects its own window (idx=%d lo=%d span=%d)",
					partitions, key, idx, lo, span)
			}
			otherW := (window + 1) % hashWindowsPerPartition
			otherLo := part*bucketsPerPart + otherW*span
			if otherW != window && idx-otherLo < span {
				t.Fatalf("partitions=%d key=%d: fast path accepts window %d, belongs to %d",
					partitions, key, otherW, window)
			}
		}
	}

	// The raw-draw test: r+1 and r%hashKeySpace+1 share a bucket for every
	// r, including the wrap of r+1 at the top of the range.
	raw := []uint64{0, 1, hashKeySpace - 1, hashKeySpace, hashKeySpace + 1, 1<<63 - 1, 1 << 63, 1<<64 - 2, 1<<64 - 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		raw = append(raw, rng.Uint64())
	}
	for _, r := range raw {
		if got, want := bucketIndex(r+1), bucketIndex(r%hashKeySpace+1); got != want {
			t.Fatalf("r=%d: raw draw tests bucket %d, its key lands in bucket %d", r, got, want)
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
		rng := rand.New(rand.NewSource(p.Defaults().Seed + 1))
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
		if g, w := got.Store().LineCount(), want.Store().LineCount(); g != w {
			t.Fatalf("seed %d: Setup wrote %d lines, the word-by-word build %d", seed, g, w)
		}
	}
}
