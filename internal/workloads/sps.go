package workloads

import (
	"fmt"
	"math/rand"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
)

// spsWL is the "SPS" micro-benchmark: atomic batches of random swaps between
// entries of a large persistent array (one transaction touches ~3 KB of it,
// the paper's per-transaction data-set size). The invariant is that swaps permute
// the array, so its element sum and sum of squares never change.
//
// Layout:
//
//	meta line: [elements, sum, sumSquares, 0...]
//	array:     elements consecutive 8-byte words
type spsWL struct {
	meta     uint64
	array    uint64
	elements int
	opsPerTx int
}

func newSPS() *spsWL { return &spsWL{} }

// Name implements Workload.
func (s *spsWL) Name() string { return "sps" }

// Setup implements Workload.
func (s *spsWL) Setup(heap *palloc.Heap, p Params) error {
	s.elements = 131072 // 1 MB array; one transaction swaps ~3 KB of it
	s.opsPerTx = p.OpsPerTx
	if s.opsPerTx <= 0 {
		s.opsPerTx = 24
	}
	s.meta = heap.AllocLines(1)
	s.array = heap.AllocWords(s.elements)

	rng := rand.New(rand.NewSource(p.Seed + 2))
	var sum, sumSq uint64
	for i := 0; i < s.elements; i++ {
		v := rng.Uint64()%512 + 1
		heap.WriteWord(word(s.array, i), v)
		sum += v
		sumSq += v * v
	}
	heap.WriteWord(word(s.meta, 0), uint64(s.elements))
	heap.WriteWord(word(s.meta, 1), sum)
	heap.WriteWord(word(s.meta, 2), sumSq)
	return nil
}

// Next implements Workload.
func (s *spsWL) Next(core int, rng *rand.Rand) *txn.Transaction {
	// All swaps of a transaction stay within one small window of the array
	// (the paper's ~3 KB per-transaction data set). Lock-based designs lock
	// the whole coarse partition containing the window; HTM designs detect
	// conflicts at line granularity, so two transactions in the same
	// partition but different windows proceed concurrently.
	type swap struct{ i, j int }
	const windows = 8
	part := rng.Intn(partitions)
	span := s.elements / partitions
	winSpan := span / windows
	base := part*span + rng.Intn(windows)*winSpan
	swaps := make([]swap, s.opsPerTx)
	for k := range swaps {
		swaps[k] = swap{i: base + rng.Intn(winSpan), j: base + rng.Intn(winSpan)}
	}
	return &txn.Transaction{
		Label:   "sps-batch",
		LockIDs: []uint64{uint64(part)},
		Body: func(tx txn.Tx) error {
			for _, sw := range swaps {
				ai, aj := word(s.array, sw.i), word(s.array, sw.j)
				vi := tx.Read(ai)
				vj := tx.Read(aj)
				tx.Write(ai, vj)
				tx.Write(aj, vi)
			}
			return nil
		},
	}
}

// Verify implements Workload.
func (s *spsWL) Verify(store *memdev.Store) error {
	wantSum := store.ReadWord(word(s.meta, 1))
	wantSq := store.ReadWord(word(s.meta, 2))
	var sum, sumSq uint64
	for i := 0; i < s.elements; i++ {
		v := store.ReadWord(word(s.array, i))
		if v == 0 {
			return fmt.Errorf("sps: element %d is zero (lost by a torn swap)", i)
		}
		sum += v
		sumSq += v * v
	}
	if sum != wantSum {
		return fmt.Errorf("sps: element sum %d != initial sum %d", sum, wantSum)
	}
	if sumSq != wantSq {
		return fmt.Errorf("sps: element sum of squares %d != initial %d", sumSq, wantSq)
	}
	return nil
}
