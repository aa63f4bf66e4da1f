package workloads

import (
	"fmt"
	"math/rand"
	"sync"

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
	// span is the number of buckets in one window of one partition.
	span uint64

	// baseline is a frozen clone of the post-setup image, and baselineErr
	// its bucket check, run once on first use. Verify skips every leaf an
	// image still shares with a valid baseline.
	baseline    *memdev.Store
	baselineErr func() error
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
	// hashKeysPerBucket is the number of keys of the key space in each
	// bucket: twice its slots.
	hashKeysPerBucket = hashSlotsPerBucket * 2
	// hashKeySpace holds keys 1..hashKeySpace, hashKeysPerBucket for every
	// bucket.
	hashKeySpace = hashBuckets * hashKeysPerBucket
	// hashBucketMultiplier is bucketIndex's odd multiplier, and
	// hashBucketInverse its inverse modulo 2^64, so
	// bucketIndex(b*hashBucketInverse) == b for every bucket b.
	hashBucketMultiplier = 0x9e3779b97f4a7c15
	hashBucketInverse    = 0xf1de83e19937733d
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
	if hashBuckets%h.partitions != 0 || hashBuckets/h.partitions%hashWindowsPerPartition != 0 {
		return fmt.Errorf("hash: %d partitions of %d windows do not tile %d buckets", h.partitions, hashWindowsPerPartition, hashBuckets)
	}
	h.span = uint64(hashBuckets / h.partitions / hashWindowsPerPartition)
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
	h.baseline = heap.Store().Clone()
	h.baseline.Freeze()
	h.baselineErr = sync.OnceValue(func() error { return h.verifyBuckets(h.baseline, memdev.NewStore()) })
	return nil
}

// packBucketHeader packs a bucket's element count and key checksum into one
// word so a single store keeps them consistent.
func packBucketHeader(count, sum uint64) uint64 { return count | sum<<16 }

// unpackBucketHeader is the inverse of packBucketHeader.
func unpackBucketHeader(h uint64) (count, sum uint64) { return h & 0xffff, h >> 16 }

// bucketIndex maps a key to its bucket's index. It depends only on key
// modulo hashBuckets.
func bucketIndex(key uint64) uint64 { return (key * hashBucketMultiplier) & hashBucketMask }

// bucketOf maps a key to its bucket's line address.
func (h *hashWL) bucketOf(key uint64) uint64 {
	return line(h.buckets, int(bucketIndex(key)))
}

// hashWindowsPerPartition subdivides every lock partition into windows; a
// transaction's keys all fall into one window.
const hashWindowsPerPartition = 8

// windowKey maps i in [0, span·hashKeysPerBucket) one to one onto the keys
// whose bucket falls inside the given partition and window. Partitions and
// windows tile the table, so the window's buckets are the span indices from
// lo, and every bucket b holds exactly hashKeysPerBucket keys: the residue
// b·hashBucketInverse mod hashBuckets plus each multiple of hashBuckets, the
// residue 0 standing in for the key hashKeySpace. i picks key
// i%hashKeysPerBucket of bucket lo+i/hashKeysPerBucket.
func (h *hashWL) windowKey(part, window, i uint64) uint64 {
	lo := (part*hashWindowsPerPartition + window) * h.span
	key := (lo+i/hashKeysPerBucket)*hashBucketInverse&hashBucketMask + i%hashKeysPerBucket*hashBuckets
	if key == 0 {
		return hashKeySpace
	}
	return key
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
	// One draw per key, uniform over the window's keys.
	windowKeys := int64(h.span * hashKeysPerBucket)
	for i := range keys {
		keys[i] = h.windowKey(part, window, uint64(rng.Int63n(windowKeys)))
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

// Verify implements Workload. Every invariant is local to one bucket line,
// a line never written reads as an empty (valid) bucket, and a line that
// reads as it does in a valid baseline is valid, so only the bucket lines
// the image wrote and holds differently from the baseline are checked — in
// ascending order, so the first failing bucket is the one a walk over the
// whole table would report.
func (h *hashWL) Verify(store *memdev.Store) error {
	if got := store.ReadWord(word(h.meta, 0)); got != hashBuckets {
		return fmt.Errorf("hash: bucket count corrupted: %d != %d", got, hashBuckets)
	}
	ref := h.baseline
	if ref == nil || h.baselineErr() != nil {
		ref = memdev.NewStore()
	}
	return h.verifyBuckets(store, ref)
}

// verifyBuckets checks every bucket line store wrote and holds differently
// from ref, in ascending address order, and returns the first violation.
func (h *hashWL) verifyBuckets(store, ref *memdev.Store) error {
	var err error
	end := line(h.buckets, hashBuckets)
	store.Diff(ref, h.buckets, func(addr uint64, b, _ *memdev.Line, written bool) bool {
		if addr >= end {
			return false // lines ascend: no bucket line follows
		}
		if !written {
			return true // never written: an empty bucket
		}
		err = h.checkBucket(addr, b)
		return err == nil
	})
	return err
}

// checkBucket checks the invariants of the bucket line b at address addr.
func (h *hashWL) checkBucket(addr uint64, b *memdev.Line) error {
	i := (addr - h.buckets) / memdev.LineBytes
	cnt, sum := unpackBucketHeader(b[0])
	if cnt > hashSlotsPerBucket {
		return fmt.Errorf("hash: bucket %d count %d exceeds capacity", i, cnt)
	}
	var gotSum uint64
	for s, key := range b[1 : 1+cnt] {
		if key == 0 {
			return fmt.Errorf("hash: bucket %d slot %d empty but within count %d", i, s, cnt)
		}
		if h.bucketOf(key) != addr {
			return fmt.Errorf("hash: key %d stored in wrong bucket %d", key, i)
		}
		gotSum += key
	}
	if gotSum != sum {
		return fmt.Errorf("hash: bucket %d checksum %d != recorded %d", i, gotSum, sum)
	}
	for s := cnt; s < hashSlotsPerBucket; s++ {
		if b[1+s] != 0 {
			return fmt.Errorf("hash: bucket %d slot %d beyond count is not empty", i, s)
		}
	}
	return nil
}
