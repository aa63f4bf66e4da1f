package workloads

import (
	"fmt"
	"math/rand"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
)

// queueWL is the "Queue" micro-benchmark: atomic batches of enqueue/dequeue
// operations on a fixed-capacity circular queue of 128-byte entries laid out
// in persistent memory (NVHeaps-style, ~3 KB data set).
//
// Layout:
//
//	meta line:   [head, tail, count, sum, capacity, 0, 0, 0]
//	entry i:     two cache lines; word 0 = value, word 1 = valid flag,
//	             words 2..15 = payload derived from the value.
type queueWL struct {
	meta     uint64
	entries  uint64
	capacity int
	opsPerTx int
}

func newQueue() *queueWL { return &queueWL{} }

// Name implements Workload.
func (q *queueWL) Name() string { return "queue" }

const queueEntryLines = 2

// Setup implements Workload.
func (q *queueWL) Setup(heap *palloc.Heap, p Params) error {
	q.capacity = 24 // 24 entries x 128 B ~= 3 KB
	q.opsPerTx = p.OpsPerTx
	if q.opsPerTx <= 0 {
		q.opsPerTx = 36
	}
	q.meta = heap.AllocLines(1)
	q.entries = heap.AllocLines(q.capacity * queueEntryLines)

	// Start half full so both operations are immediately possible.
	rng := rand.New(rand.NewSource(p.Seed))
	var sum uint64
	initial := q.capacity / 2
	for i := 0; i < initial; i++ {
		v := rng.Uint64()%1000 + 1
		base := q.entryAddr(i)
		heap.WriteWord(base, v)
		heap.WriteWord(base+8, 1)
		for w := 2; w < 16; w++ {
			heap.WriteWord(base+uint64(w)*8, v+uint64(w))
		}
		sum += v
	}
	heap.WriteWord(word(q.meta, 0), 0)                  // head
	heap.WriteWord(word(q.meta, 1), uint64(initial))    // tail
	heap.WriteWord(word(q.meta, 2), uint64(initial))    // count
	heap.WriteWord(word(q.meta, 3), sum)                // sum of live values
	heap.WriteWord(word(q.meta, 4), uint64(q.capacity)) // capacity
	return nil
}

// entryAddr returns the base address of entry i.
func (q *queueWL) entryAddr(i int) uint64 {
	return q.entries + uint64(i)*queueEntryLines*uint64(memdev.LineBytes)
}

// Next implements Workload.
func (q *queueWL) Next(core int, rng *rand.Rand) *txn.Transaction {
	ops := make([]uint64, q.opsPerTx)
	for i := range ops {
		ops[i] = rng.Uint64()%1000 + 1
	}
	enqueueFirst := rng.Intn(2) == 0
	return &txn.Transaction{
		Label: "queue-batch",
		// The queue is a single coarse-grained partition: every transaction
		// takes the same lock under the lock-based designs.
		LockIDs: []uint64{0},
		Body: func(tx txn.Tx) error {
			head := tx.Read(word(q.meta, 0))
			tail := tx.Read(word(q.meta, 1))
			count := tx.Read(word(q.meta, 2))
			sum := tx.Read(word(q.meta, 3))
			cap64 := uint64(q.capacity)
			for i, v := range ops {
				enq := (i%2 == 0) == enqueueFirst
				if enq && count == cap64 {
					enq = false
				}
				if !enq && count == 0 {
					enq = true
				}
				if enq {
					base := q.entryAddr(int(tail))
					tx.Write(base, v)
					tx.Write(base+8, 1)
					for w := 2; w < 16; w++ {
						tx.Write(base+uint64(w)*8, v+uint64(w))
					}
					tail = (tail + 1) % cap64
					count++
					sum += v
				} else {
					base := q.entryAddr(int(head))
					val := tx.Read(base)
					tx.Write(base+8, 0)
					head = (head + 1) % cap64
					count--
					sum -= val
				}
			}
			tx.Write(word(q.meta, 0), head)
			tx.Write(word(q.meta, 1), tail)
			tx.Write(word(q.meta, 2), count)
			tx.Write(word(q.meta, 3), sum)
			return nil
		},
	}
}

// Verify implements Workload.
func (q *queueWL) Verify(store *memdev.Store) error {
	head := store.ReadWord(word(q.meta, 0))
	tail := store.ReadWord(word(q.meta, 1))
	count := store.ReadWord(word(q.meta, 2))
	sum := store.ReadWord(word(q.meta, 3))
	cap64 := store.ReadWord(word(q.meta, 4))
	if cap64 != uint64(q.capacity) {
		return fmt.Errorf("queue: capacity corrupted: %d != %d", cap64, q.capacity)
	}
	if head >= cap64 || tail >= cap64 || count > cap64 {
		return fmt.Errorf("queue: pointers out of range head=%d tail=%d count=%d", head, tail, count)
	}
	if (head+count)%cap64 != tail {
		return fmt.Errorf("queue: head=%d + count=%d inconsistent with tail=%d", head, count, tail)
	}
	var liveSum uint64
	for i := uint64(0); i < count; i++ {
		idx := int((head + i) % cap64)
		base := q.entryAddr(idx)
		if store.ReadWord(base+8) != 1 {
			return fmt.Errorf("queue: live entry %d not marked valid", idx)
		}
		liveSum += store.ReadWord(base)
	}
	if liveSum != sum {
		return fmt.Errorf("queue: live sum %d != recorded sum %d", liveSum, sum)
	}
	return nil
}
