package workloads

import (
	"fmt"
	"math/rand"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
)

// btreeWL is the "BTree" micro-benchmark: atomic batches of insert/delete
// operations on a two-level persistent B-tree (a root index node over sorted
// leaf nodes), ~3 KB of data. Leaves split on overflow and are recycled
// through a free list when they drain, so the structure keeps a stable
// footprint over long runs.
//
// Layout (each node is two cache lines = 16 words):
//
//	meta line: [keyCount, keySum, rootChildren, freeHead, nodesUsed, capacity]
//	root node: word 0 = count, words 1..15 = separators, words 16..31 = children
//	leaf node: word 0 = count, words 1..15 = keys, words 17..31 = values
//	           (word 16 = next-free link while the leaf is on the free list)
type btreeWL struct {
	meta     uint64
	root     uint64
	nodes    uint64
	capacity int
	opsPerTx int
	keySpace uint64
}

func newBTree() *btreeWL { return &btreeWL{} }

// Name implements Workload.
func (b *btreeWL) Name() string { return "btree" }

const (
	btreeNodeLines = 4
	btreeMaxKeys   = 15
	btreeMaxKids   = 16
	// Word offsets within a node: keys occupy words 1..btreeMaxKeys, the
	// child pointers (root) or the free-list link (leaf) start at
	// btreeChildOff, and the per-key values start at btreeValOff.
	btreeChildOff = btreeMaxKeys + 1
	btreeValOff   = btreeMaxKeys + 2
)

// Setup implements Workload.
func (b *btreeWL) Setup(heap *palloc.Heap, p Params) error {
	b.capacity = 14 // 14 leaves x 256 B + root + meta; one transaction touches ~3 KB
	b.opsPerTx = p.OpsPerTx
	if b.opsPerTx <= 0 {
		b.opsPerTx = 32
	}
	b.keySpace = 640
	b.meta = heap.AllocLines(1)
	b.root = heap.AllocLines(btreeNodeLines)
	b.nodes = heap.AllocLines(b.capacity * btreeNodeLines)

	// Pre-split the key space across several leaves and fill them halfway.
	leaves := 10
	rng := rand.New(rand.NewSource(p.Seed + 3))
	var count, sum uint64
	for i := 0; i < leaves; i++ {
		leaf := b.nodeAddr(i + 1)
		lo := uint64(i) * b.keySpace / uint64(leaves)
		hi := uint64(i+1) * b.keySpace / uint64(leaves)
		n := 0
		for k := lo; k < hi && n < btreeMaxKeys/2+2; k++ {
			if rng.Intn(4) != 0 {
				continue
			}
			heap.WriteWord(word(leaf, 1+n), k+1)
			heap.WriteWord(word(leaf, btreeValOff+n), (k+1)*3)
			n++
			count++
			sum += k + 1
		}
		heap.WriteWord(word(leaf, 0), uint64(n))
		// Root: child i covers keys < separator i.
		heap.WriteWord(word(b.root, btreeChildOff+i), uint64(i+1))
		if i < leaves-1 {
			heap.WriteWord(word(b.root, 1+i), hi+1)
		}
	}
	heap.WriteWord(word(b.root, 0), uint64(leaves-1))
	// Free list links the unused nodes.
	freeHead := uint64(0)
	for i := b.capacity; i > leaves; i-- {
		heap.WriteWord(word(b.nodeAddr(i), btreeChildOff), freeHead)
		freeHead = uint64(i)
	}
	heap.WriteWord(word(b.meta, 0), count)
	heap.WriteWord(word(b.meta, 1), sum)
	heap.WriteWord(word(b.meta, 2), uint64(leaves))
	heap.WriteWord(word(b.meta, 3), freeHead)
	heap.WriteWord(word(b.meta, 4), uint64(leaves))
	heap.WriteWord(word(b.meta, 5), uint64(b.capacity))
	return nil
}

// nodeAddr returns the base address of node id (1-based; 0 means nil).
func (b *btreeWL) nodeAddr(id int) uint64 {
	return b.nodes + uint64(id-1)*btreeNodeLines*uint64(memdev.LineBytes)
}

// Next implements Workload.
func (b *btreeWL) Next(core int, rng *rand.Rand) *txn.Transaction {
	keys := make([]uint64, b.opsPerTx)
	inserts := make([]bool, b.opsPerTx)
	for i := range keys {
		keys[i] = rng.Uint64()%b.keySpace + 1
		inserts[i] = rng.Intn(2) == 0
	}
	return &txn.Transaction{
		Label: "btree-batch",
		// The tree is protected by a single coarse lock partition plus one
		// per root child span; the root child index of each key decides it.
		LockIDs: b.lockIDs(keys),
		Body: func(tx txn.Tx) error {
			for i, key := range keys {
				var err error
				if inserts[i] {
					_, err = b.insert(tx, key)
				} else {
					_, err = b.remove(tx, key)
				}
				if err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// lockIDs derives the coarse lock partitions a batch touches from the key
// ranges of the root's children.
func (b *btreeWL) lockIDs(keys []uint64) []uint64 {
	set := make(map[uint64]struct{})
	// Splits and frees touch the root and the free list, so partition 0 is
	// always taken (conservative coarse locking, as in the paper's setup).
	set[0] = struct{}{}
	for _, k := range keys {
		set[1+(k*partitions)/(b.keySpace+2)] = struct{}{}
	}
	out := make([]uint64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}

// findLeaf walks the root to the leaf covering key, returning the leaf node
// id and its child slot in the root.
func (b *btreeWL) findLeaf(tx txn.Tx, key uint64) (leafID int, slot int) {
	seps := int(tx.Read(word(b.root, 0)))
	slot = seps
	for i := 0; i < seps; i++ {
		if key < tx.Read(word(b.root, 1+i)) {
			slot = i
			break
		}
	}
	return int(tx.Read(word(b.root, btreeChildOff+slot))), slot
}

// insert adds key to the tree; it returns +1 if the key count grew, 0 if the
// key already existed or no space was available.
func (b *btreeWL) insert(tx txn.Tx, key uint64) (int, error) {
	leafID, slot := b.findLeaf(tx, key)
	if leafID == 0 {
		return 0, fmt.Errorf("btree: root slot %d has no leaf", slot)
	}
	leaf := b.nodeAddr(leafID)
	n := int(tx.Read(word(leaf, 0)))
	pos := 0
	for pos < n {
		k := tx.Read(word(leaf, 1+pos))
		if k == key {
			return 0, nil
		}
		if k > key {
			break
		}
		pos++
	}
	if n < btreeMaxKeys {
		for i := n; i > pos; i-- {
			tx.Write(word(leaf, 1+i), tx.Read(word(leaf, i)))
			tx.Write(word(leaf, btreeValOff+i), tx.Read(word(leaf, btreeValOff+i-1)))
		}
		tx.Write(word(leaf, 1+pos), key)
		tx.Write(word(leaf, btreeValOff+pos), key*3)
		tx.Write(word(leaf, 0), uint64(n+1))
		return 1, nil
	}
	// Leaf is full: split it if the root and the free list allow.
	rootSeps := int(tx.Read(word(b.root, 0)))
	freeHead := tx.Read(word(b.meta, 3))
	if rootSeps >= btreeMaxKeys || freeHead == 0 {
		return 0, nil
	}
	newID := int(freeHead)
	newLeaf := b.nodeAddr(newID)
	tx.Write(word(b.meta, 3), tx.Read(word(newLeaf, btreeChildOff)))
	// Move the upper half of the keys to the new leaf.
	half := (n + 1) / 2
	moved := 0
	for i := half; i < n; i++ {
		tx.Write(word(newLeaf, 1+moved), tx.Read(word(leaf, 1+i)))
		tx.Write(word(newLeaf, btreeValOff+moved), tx.Read(word(leaf, btreeValOff+i)))
		tx.Write(word(leaf, 1+i), 0)
		tx.Write(word(leaf, btreeValOff+i), 0)
		moved++
	}
	tx.Write(word(newLeaf, 0), uint64(moved))
	tx.Write(word(newLeaf, btreeChildOff), 0)
	tx.Write(word(leaf, 0), uint64(half))
	separator := tx.Read(word(newLeaf, 1))
	// Shift root separators/children right of slot and link the new leaf.
	for i := rootSeps; i > slot; i-- {
		tx.Write(word(b.root, 1+i), tx.Read(word(b.root, i)))
	}
	for i := rootSeps + 1; i > slot+1; i-- {
		tx.Write(word(b.root, btreeChildOff+i), tx.Read(word(b.root, btreeChildOff+i-1)))
	}
	tx.Write(word(b.root, 1+slot), separator)
	tx.Write(word(b.root, btreeChildOff+slot+1), uint64(newID))
	tx.Write(word(b.root, 0), uint64(rootSeps+1))
	tx.Write(word(b.meta, 2), tx.Read(word(b.meta, 2))+1)
	// Retry the insertion into whichever half now covers the key.
	return b.insert(tx, key)
}

// remove deletes key from its leaf; it returns -1 if a key was removed.
// A leaf that drains completely is unlinked from the root and recycled
// through the free list (unless it is the last remaining leaf).
func (b *btreeWL) remove(tx txn.Tx, key uint64) (int, error) {
	leafID, slot := b.findLeaf(tx, key)
	if leafID == 0 {
		return 0, fmt.Errorf("btree: root slot %d has no leaf", slot)
	}
	leaf := b.nodeAddr(leafID)
	n := int(tx.Read(word(leaf, 0)))
	pos := -1
	for i := 0; i < n; i++ {
		if tx.Read(word(leaf, 1+i)) == key {
			pos = i
			break
		}
	}
	if pos < 0 {
		return 0, nil
	}
	for i := pos; i < n-1; i++ {
		tx.Write(word(leaf, 1+i), tx.Read(word(leaf, 2+i)))
		tx.Write(word(leaf, btreeValOff+i), tx.Read(word(leaf, btreeValOff+i+1)))
	}
	tx.Write(word(leaf, n), 0)
	tx.Write(word(leaf, btreeValOff+n-1), 0)
	tx.Write(word(leaf, 0), uint64(n-1))

	rootSeps := int(tx.Read(word(b.root, 0)))
	if n-1 > 0 || rootSeps == 0 {
		return -1, nil
	}
	// The leaf drained: unlink it from the root and recycle it.
	for i := slot; i < rootSeps; i++ {
		tx.Write(word(b.root, btreeChildOff+i), tx.Read(word(b.root, btreeChildOff+i+1)))
	}
	// Remove the separator adjacent to the dropped child.
	sepToDrop := slot
	if sepToDrop >= rootSeps {
		sepToDrop = rootSeps - 1
	}
	for i := sepToDrop; i < rootSeps-1; i++ {
		tx.Write(word(b.root, 1+i), tx.Read(word(b.root, 2+i)))
	}
	tx.Write(word(b.root, rootSeps), 0)
	tx.Write(word(b.root, btreeChildOff+rootSeps), 0)
	tx.Write(word(b.root, 0), uint64(rootSeps-1))
	tx.Write(word(leaf, btreeChildOff), tx.Read(word(b.meta, 3)))
	tx.Write(word(b.meta, 3), uint64(leafID))
	tx.Write(word(b.meta, 2), tx.Read(word(b.meta, 2))-1)
	return -1, nil
}

// Verify implements Workload. The key count and sum are not maintained inside
// transactions (a single hot meta line would artificially serialise the HTM
// designs); the atomicity invariants are structural: sorted leaves, keys
// within their separator ranges, counts within bounds, no partially applied
// splits or unlinks (which would leave the root/leaf counts inconsistent),
// and a consistent root-children count.
func (b *btreeWL) Verify(store *memdev.Store) error {
	children := store.ReadWord(word(b.meta, 2))
	seps := store.ReadWord(word(b.root, 0))
	if children != seps+1 {
		return fmt.Errorf("btree: root has %d separators but %d children recorded", seps, children)
	}
	var gotCount, gotSum uint64
	for slot := uint64(0); slot <= seps; slot++ {
		leafID := store.ReadWord(word(b.root, btreeChildOff+int(slot)))
		if leafID == 0 || leafID > uint64(b.capacity) {
			return fmt.Errorf("btree: root slot %d holds invalid leaf id %d", slot, leafID)
		}
		var lo uint64
		if slot > 0 {
			lo = store.ReadWord(word(b.root, int(slot)))
		}
		hi := ^uint64(0)
		if slot < seps {
			hi = store.ReadWord(word(b.root, 1+int(slot)))
		}
		leaf := b.nodeAddr(int(leafID))
		n := store.ReadWord(word(leaf, 0))
		if n > btreeMaxKeys {
			return fmt.Errorf("btree: leaf %d key count %d exceeds capacity", leafID, n)
		}
		var prev uint64
		for i := 0; i < int(n); i++ {
			k := store.ReadWord(word(leaf, 1+i))
			if k == 0 {
				return fmt.Errorf("btree: leaf %d slot %d empty within count", leafID, i)
			}
			if k <= prev {
				return fmt.Errorf("btree: leaf %d keys not strictly sorted", leafID)
			}
			if k < lo || k >= hi {
				return fmt.Errorf("btree: leaf %d key %d outside separator range [%d,%d)", leafID, k, lo, hi)
			}
			if v := store.ReadWord(word(leaf, btreeValOff+i)); v != k*3 {
				return fmt.Errorf("btree: leaf %d key %d has torn value %d", leafID, k, v)
			}
			prev = k
			gotCount++
			gotSum += k
		}
	}
	_ = gotCount
	_ = gotSum
	return nil
}
