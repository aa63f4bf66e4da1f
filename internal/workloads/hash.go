package workloads

import (
	"fmt"
	"math/rand"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
)

// hashWL is the "Hash" micro-benchmark: atomic batches of insert/delete
// operations on a bucketised persistent hash table. One transaction inserts
// or deletes ~3 KB worth of entries (the paper's per-transaction data-set
// size); the table itself is much larger so that independent transactions
// mostly touch disjoint buckets.
//
// Layout:
//
//	meta line:  [buckets, 0...]            (static, never written by transactions)
//	bucket i:   one cache line: word 0 = count | keySum<<16,
//	            words 1..7 = keys (0 = empty)
//
// Keeping the count and checksum per bucket (rather than in a global meta
// word) avoids a single hot line that every transaction would write, which
// would serialise the HTM designs artificially; the per-bucket checksum still
// catches torn inserts and deletes after a crash.
type hashWL struct {
	meta       uint64
	buckets    uint64
	opsPerTx   int
	partitions int
}

func newHash() *hashWL { return &hashWL{} }

// Name implements Workload.
func (h *hashWL) Name() string { return "hash" }

// The table geometry.
const (
	// hashBuckets is the table size, a power of two: 1 MB, of which one
	// transaction touches ~3 KB.
	hashBuckets        = 16384
	hashBucketMask     = hashBuckets - 1
	hashSlotsPerBucket = 7
	// hashKeySpace holds keys 1..hashKeySpace, twice the table's slots. It
	// is a multiple of hashBuckets, which keyInWindow's accept test relies
	// on.
	hashKeySpace = hashBuckets * hashSlotsPerBucket * 2
)

// Setup implements Workload. It fills the table half full in a local
// image, then writes each populated bucket with one line write: the same
// memory image and written-line set as storing word by word.
func (h *hashWL) Setup(heap *palloc.Heap, p Params) error {
	p = p.Defaults()
	h.opsPerTx = p.OpsPerTx
	if h.opsPerTx <= 0 {
		h.opsPerTx = 64
	}
	h.partitions = p.Partitions
	h.meta = heap.AllocLines(1)
	h.buckets = heap.AllocLines(hashBuckets)

	rng := rand.New(rand.NewSource(p.Seed + 1))
	buckets := make([]memdev.Line, hashBuckets)
	// Bitset over the (small, dense) key space; a map here dominated setup
	// cost. Keys are 1-based, hence the +1 sizing.
	inserted := make([]uint64, (hashKeySpace+1+63)/64)
	for total := 0; total < hashBuckets*hashSlotsPerBucket/2; {
		key := rng.Uint64()%hashKeySpace + 1
		if inserted[key/64]&(1<<(key%64)) != 0 {
			continue
		}
		b := &buckets[bucketIndex(key)]
		cnt, sum := unpackBucketHeader(b[0])
		if cnt >= hashSlotsPerBucket {
			continue
		}
		b[1+cnt] = key
		b[0] = packBucketHeader(cnt+1, sum+key)
		inserted[key/64] |= 1 << (key % 64)
		total++
	}
	for i, b := range buckets {
		if b[0] != 0 {
			heap.Store().WriteLine(line(h.buckets, i), b)
		}
	}
	heap.WriteWord(word(h.meta, 0), hashBuckets)
	return nil
}

// packBucketHeader packs a bucket's element count and key checksum into one
// word so a single store keeps them consistent.
func packBucketHeader(count, sum uint64) uint64 { return count | sum<<16 }

// unpackBucketHeader is the inverse of packBucketHeader.
func unpackBucketHeader(h uint64) (count, sum uint64) { return h & 0xffff, h >> 16 }

// bucketIndex maps a key to its bucket's index. It depends only on key
// modulo hashBuckets.
func bucketIndex(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) & hashBucketMask }

// bucketOf maps a key to its bucket's line address.
func (h *hashWL) bucketOf(key uint64) uint64 {
	return line(h.buckets, int(bucketIndex(key)))
}

// partitionOf maps a key to the coarse lock partition its bucket belongs to.
func (h *hashWL) partitionOf(key uint64) uint64 {
	return bucketIndex(key) * uint64(h.partitions) / hashBuckets
}

// hashWindowsPerPartition subdivides every lock partition into windows; a
// transaction's keys all fall into one window.
const hashWindowsPerPartition = 8

// windowOf maps a key to its window index within its partition.
func (h *hashWL) windowOf(key uint64) uint64 {
	bucketsPerPart := uint64(hashBuckets / h.partitions)
	return (bucketIndex(key) % bucketsPerPart) * hashWindowsPerPartition / bucketsPerPart
}

// keyInWindow draws a key whose bucket falls inside the given partition and
// window. Rejection sampling here dominates transaction generation (~1/128
// of draws are accepted at the default geometry), so the accept test matters:
// when the partition and window grids align — partitions divides hashBuckets
// and hashWindowsPerPartition divides the partition size, true for every
// power-of-two configuration — the accepted bucket indices form one
// contiguous range and each draw needs a single subtract-and-compare instead
// of four divisions. The test runs on the raw draw r: because hashKeySpace
// is a multiple of hashBuckets, the key r%hashKeySpace+1 lands in the bucket
// of r+1, so the modulo is paid only on accept. The draw and accept
// sequence is provably identical to the general predicate, so golden
// tables do not move.
func (h *hashWL) keyInWindow(rng *rand.Rand, part, window uint64) uint64 {
	bucketsPerPart := uint64(hashBuckets / h.partitions)
	if hashBuckets == bucketsPerPart*uint64(h.partitions) && bucketsPerPart%hashWindowsPerPartition == 0 {
		span := bucketsPerPart / hashWindowsPerPartition
		lo := part*bucketsPerPart + window*span
		for {
			if r := rng.Uint64(); bucketIndex(r+1)-lo < span {
				return r%hashKeySpace + 1
			}
		}
	}
	for {
		key := rng.Uint64()%hashKeySpace + 1
		if h.partitionOf(key) == part && h.windowOf(key) == window {
			return key
		}
	}
}

// Next implements Workload.
func (h *hashWL) Next(core int, rng *rand.Rand) *txn.Transaction {
	// A transaction operates on one small window of the table (the paper's
	// ~3 KB per-transaction data set). The lock-based designs lock the whole
	// coarse-grained partition containing the window, whereas the HTM designs
	// detect conflicts at cache-line granularity, so they only conflict when
	// two cores pick overlapping windows — the concurrency gap the paper
	// attributes to coarse-grained locking (§VI-A).
	part := uint64(rng.Intn(h.partitions))
	window := rng.Uint64() % hashWindowsPerPartition
	// One backing slice per transaction: the keys, then a bitmask of which
	// ops are inserts. Transaction generation runs once per simulated
	// transaction, so the saved allocation is visible in every benchmark.
	maskWords := (h.opsPerTx + 63) / 64
	buf := make([]uint64, h.opsPerTx+maskWords)
	keys, insertMask := buf[:h.opsPerTx], buf[h.opsPerTx:]
	for i := range keys {
		keys[i] = h.keyInWindow(rng, part, window)
		if rng.Intn(2) == 0 {
			insertMask[i/64] |= 1 << (i % 64)
		}
	}
	return &txn.Transaction{
		Label:   "hash-batch",
		LockIDs: []uint64{part},
		Body: func(tx txn.Tx) error {
			for i, key := range keys {
				b := h.bucketOf(key)
				cnt, sum := unpackBucketHeader(tx.Read(word(b, 0)))
				// Locate the key in the bucket.
				found := -1
				for s := 0; s < int(cnt); s++ {
					if tx.Read(word(b, 1+s)) == key {
						found = s
						break
					}
				}
				if insertMask[i/64]&(1<<(i%64)) != 0 {
					if found >= 0 || cnt >= hashSlotsPerBucket {
						continue
					}
					tx.Write(word(b, 1+int(cnt)), key)
					tx.Write(word(b, 0), packBucketHeader(cnt+1, sum+key))
				} else {
					if found < 0 {
						continue
					}
					last := tx.Read(word(b, int(cnt)))
					tx.Write(word(b, 1+found), last)
					tx.Write(word(b, int(cnt)), 0)
					tx.Write(word(b, 0), packBucketHeader(cnt-1, sum-key))
				}
			}
			return nil
		},
	}
}

// Verify implements Workload.
func (h *hashWL) Verify(store *memdev.Store) error {
	if got := store.ReadWord(word(h.meta, 0)); got != hashBuckets {
		return fmt.Errorf("hash: bucket count corrupted: %d != %d", got, hashBuckets)
	}
	for i := 0; i < hashBuckets; i++ {
		b := line(h.buckets, i)
		cnt, sum := unpackBucketHeader(store.ReadWord(word(b, 0)))
		if cnt > hashSlotsPerBucket {
			return fmt.Errorf("hash: bucket %d count %d exceeds capacity", i, cnt)
		}
		var gotSum uint64
		for s := 0; s < int(cnt); s++ {
			key := store.ReadWord(word(b, 1+s))
			if key == 0 {
				return fmt.Errorf("hash: bucket %d slot %d empty but within count %d", i, s, cnt)
			}
			if h.bucketOf(key) != b {
				return fmt.Errorf("hash: key %d stored in wrong bucket %d", key, i)
			}
			gotSum += key
		}
		if gotSum != sum {
			return fmt.Errorf("hash: bucket %d checksum %d != recorded %d", i, gotSum, sum)
		}
		for s := int(cnt); s < hashSlotsPerBucket; s++ {
			if store.ReadWord(word(b, 1+s)) != 0 {
				return fmt.Errorf("hash: bucket %d slot %d beyond count is not empty", i, s)
			}
		}
	}
	return nil
}
