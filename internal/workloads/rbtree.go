package workloads

import (
	"fmt"
	"math/rand"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
)

// rbtreeWL is the "RBTree" micro-benchmark: atomic batches of insert/delete
// operations on a persistent red-black tree (one transaction touches ~3 KB
// of nodes; the tree itself holds ~1k nodes). Inserts perform
// the full red-black fix-up (recolouring and rotations) through the
// transactional interface; deletes tombstone the node's value so the tree's
// balance invariants are preserved structurally and can be verified exactly.
//
// Layout (one cache line per node; node ids are 1-based, 0 is nil):
//
//	meta line: [liveCount, liveSum, rootID, nodesUsed, capacity, 0...]
//	node:      [key, live, colour(1=red), left, right, parent, 0, 0]
type rbtreeWL struct {
	meta     uint64
	nodes    uint64
	capacity int
	opsPerTx int
	keySpace uint64
}

func newRBTree() *rbtreeWL { return &rbtreeWL{} }

// Name implements Workload.
func (r *rbtreeWL) Name() string { return "rbtree" }

// Field offsets within a node line (in words).
const (
	rbKey = iota
	rbLive
	rbColour
	rbLeft
	rbRight
	rbParent
)

const rbRed, rbBlack = uint64(1), uint64(0)

// Setup implements Workload.
func (r *rbtreeWL) Setup(heap *palloc.Heap, p Params) error {
	r.capacity = 16384 // 1 MB of nodes; one transaction touches ~3 KB of them
	r.opsPerTx = p.OpsPerTx
	if r.opsPerTx <= 0 {
		r.opsPerTx = 36
	}
	r.keySpace = uint64(r.capacity + r.capacity/2)
	r.meta = heap.AllocLines(1)
	r.nodes = heap.AllocLines(r.capacity)
	heap.WriteWord(word(r.meta, 4), uint64(r.capacity))

	// Populate half the key space through the same insertion code the
	// transactions use, via an untimed direct view of the store.
	dtx := txn.DirectTx{Store: heap.Store()}
	rng := rand.New(rand.NewSource(p.Seed + 4))
	inserted := 0
	for inserted < r.capacity/2 {
		key := rng.Uint64()%r.keySpace + 1
		delta, err := r.insert(dtx, key)
		if err != nil {
			return err
		}
		if delta > 0 {
			inserted++
			heap.WriteWord(word(r.meta, 0), heap.ReadWord(word(r.meta, 0))+1)
			heap.WriteWord(word(r.meta, 1), heap.ReadWord(word(r.meta, 1))+key)
		}
	}
	return nil
}

// nodeAddr returns the line address of node id (1-based).
func (r *rbtreeWL) nodeAddr(id uint64) uint64 {
	return line(r.nodes, int(id-1))
}

// field helpers --------------------------------------------------------------

func (r *rbtreeWL) get(tx txn.Tx, id uint64, f int) uint64 {
	return tx.Read(word(r.nodeAddr(id), f))
}

func (r *rbtreeWL) set(tx txn.Tx, id uint64, f int, v uint64) {
	tx.Write(word(r.nodeAddr(id), f), v)
}

func (r *rbtreeWL) colourOf(tx txn.Tx, id uint64) uint64 {
	if id == 0 {
		return rbBlack
	}
	return r.get(tx, id, rbColour)
}

// rotateLeft / rotateRight are the standard red-black rotations expressed
// over the transactional node fields.
func (r *rbtreeWL) rotateLeft(tx txn.Tx, x uint64) {
	y := r.get(tx, x, rbRight)
	yl := r.get(tx, y, rbLeft)
	r.set(tx, x, rbRight, yl)
	if yl != 0 {
		r.set(tx, yl, rbParent, x)
	}
	xp := r.get(tx, x, rbParent)
	r.set(tx, y, rbParent, xp)
	if xp == 0 {
		tx.Write(word(r.meta, 2), y)
	} else if r.get(tx, xp, rbLeft) == x {
		r.set(tx, xp, rbLeft, y)
	} else {
		r.set(tx, xp, rbRight, y)
	}
	r.set(tx, y, rbLeft, x)
	r.set(tx, x, rbParent, y)
}

func (r *rbtreeWL) rotateRight(tx txn.Tx, x uint64) {
	y := r.get(tx, x, rbLeft)
	yr := r.get(tx, y, rbRight)
	r.set(tx, x, rbLeft, yr)
	if yr != 0 {
		r.set(tx, yr, rbParent, x)
	}
	xp := r.get(tx, x, rbParent)
	r.set(tx, y, rbParent, xp)
	if xp == 0 {
		tx.Write(word(r.meta, 2), y)
	} else if r.get(tx, xp, rbRight) == x {
		r.set(tx, xp, rbRight, y)
	} else {
		r.set(tx, xp, rbLeft, y)
	}
	r.set(tx, y, rbRight, x)
	r.set(tx, x, rbParent, y)
}

// insert adds key (or revives a tombstoned node). It returns +1 when the live
// count grew, 0 when the key was already live or no node was available.
func (r *rbtreeWL) insert(tx txn.Tx, key uint64) (int, error) {
	root := tx.Read(word(r.meta, 2))
	var parent uint64
	cur := root
	left := false
	for cur != 0 {
		k := r.get(tx, cur, rbKey)
		switch {
		case key == k:
			if r.get(tx, cur, rbLive) == 1 {
				return 0, nil
			}
			r.set(tx, cur, rbLive, 1)
			return 1, nil
		case key < k:
			parent, cur, left = cur, r.get(tx, cur, rbLeft), true
		default:
			parent, cur, left = cur, r.get(tx, cur, rbRight), false
		}
	}
	used := tx.Read(word(r.meta, 3))
	capacity := tx.Read(word(r.meta, 4))
	if used >= capacity {
		return 0, nil
	}
	id := used + 1
	tx.Write(word(r.meta, 3), id)
	r.set(tx, id, rbKey, key)
	r.set(tx, id, rbLive, 1)
	r.set(tx, id, rbColour, rbRed)
	r.set(tx, id, rbLeft, 0)
	r.set(tx, id, rbRight, 0)
	r.set(tx, id, rbParent, parent)
	if parent == 0 {
		tx.Write(word(r.meta, 2), id)
	} else if left {
		r.set(tx, parent, rbLeft, id)
	} else {
		r.set(tx, parent, rbRight, id)
	}
	r.fixInsert(tx, id)
	return 1, nil
}

// fixInsert restores the red-black properties after inserting node z as red.
func (r *rbtreeWL) fixInsert(tx txn.Tx, z uint64) {
	for {
		zp := r.get(tx, z, rbParent)
		if zp == 0 || r.colourOf(tx, zp) == rbBlack {
			break
		}
		zpp := r.get(tx, zp, rbParent)
		if zpp == 0 {
			break
		}
		if r.get(tx, zpp, rbLeft) == zp {
			uncle := r.get(tx, zpp, rbRight)
			if r.colourOf(tx, uncle) == rbRed {
				r.set(tx, zp, rbColour, rbBlack)
				r.set(tx, uncle, rbColour, rbBlack)
				r.set(tx, zpp, rbColour, rbRed)
				z = zpp
				continue
			}
			if r.get(tx, zp, rbRight) == z {
				z = zp
				r.rotateLeft(tx, z)
				zp = r.get(tx, z, rbParent)
				zpp = r.get(tx, zp, rbParent)
			}
			r.set(tx, zp, rbColour, rbBlack)
			r.set(tx, zpp, rbColour, rbRed)
			r.rotateRight(tx, zpp)
		} else {
			uncle := r.get(tx, zpp, rbLeft)
			if r.colourOf(tx, uncle) == rbRed {
				r.set(tx, zp, rbColour, rbBlack)
				r.set(tx, uncle, rbColour, rbBlack)
				r.set(tx, zpp, rbColour, rbRed)
				z = zpp
				continue
			}
			if r.get(tx, zp, rbLeft) == z {
				z = zp
				r.rotateRight(tx, z)
				zp = r.get(tx, z, rbParent)
				zpp = r.get(tx, zp, rbParent)
			}
			r.set(tx, zp, rbColour, rbBlack)
			r.set(tx, zpp, rbColour, rbRed)
			r.rotateLeft(tx, zpp)
		}
	}
	root := tx.Read(word(r.meta, 2))
	if root != 0 {
		r.set(tx, root, rbColour, rbBlack)
	}
}

// remove tombstones the node holding key; it returns -1 when a live key was
// removed.
func (r *rbtreeWL) remove(tx txn.Tx, key uint64) int {
	cur := tx.Read(word(r.meta, 2))
	for cur != 0 {
		k := r.get(tx, cur, rbKey)
		switch {
		case key == k:
			if r.get(tx, cur, rbLive) == 0 {
				return 0
			}
			r.set(tx, cur, rbLive, 0)
			return -1
		case key < k:
			cur = r.get(tx, cur, rbLeft)
		default:
			cur = r.get(tx, cur, rbRight)
		}
	}
	return 0
}

// Next implements Workload.
func (r *rbtreeWL) Next(core int, rng *rand.Rand) *txn.Transaction {
	// The batch operates on one small key window inside one coarse key-range
	// partition (the paper's ~3 KB per-transaction data set). The lock-based
	// designs lock the whole partition (plus partition 0, which covers the
	// tree-wide root pointer and node allocator); the HTM designs conflict
	// only on the tree paths the windows actually share.
	const windows = 8
	keys := make([]uint64, r.opsPerTx)
	inserts := make([]bool, r.opsPerTx)
	part := uint64(rng.Intn(partitions))
	span := r.keySpace / partitions
	winSpan := span / windows
	if winSpan == 0 {
		winSpan = 1
	}
	base := part*span + uint64(rng.Intn(windows))*winSpan
	for i := range keys {
		keys[i] = base + rng.Uint64()%winSpan + 1
		inserts[i] = rng.Intn(2) == 0
	}
	lockIDs := []uint64{0, 1 + part}
	return &txn.Transaction{
		Label:   "rbtree-batch",
		LockIDs: lockIDs,
		Body: func(tx txn.Tx) error {
			for i, key := range keys {
				if inserts[i] {
					if _, err := r.insert(tx, key); err != nil {
						return err
					}
				} else {
					r.remove(tx, key)
				}
			}
			return nil
		},
	}
}

// Verify implements Workload: binary-search-tree ordering and the red-black
// colouring rules (root black, no red node with a red child, equal black
// height on every root-to-nil path). A torn insertion — a node linked in but
// the fix-up rotations or recolouring only partially applied — violates one
// of these structural properties and is detected here. The global live
// count/sum is deliberately not maintained inside transactions to avoid an
// artificial hot line.
func (r *rbtreeWL) Verify(store *memdev.Store) error {
	dtx := txn.DirectTx{Store: store}
	root := store.ReadWord(word(r.meta, 2))
	if root == 0 {
		return nil
	}
	if r.colourOf(dtx, root) != rbBlack {
		return fmt.Errorf("rbtree: root %d is red", root)
	}
	var liveCount, liveSum uint64
	var walk func(id uint64, lo, hi uint64) (int, error)
	walk = func(id uint64, lo, hi uint64) (int, error) {
		if id == 0 {
			return 1, nil
		}
		if id > store.ReadWord(word(r.meta, 3)) {
			return 0, fmt.Errorf("rbtree: node id %d beyond allocated nodes", id)
		}
		key := r.get(dtx, id, rbKey)
		if key <= lo || (hi != 0 && key >= hi) {
			return 0, fmt.Errorf("rbtree: node %d key %d violates BST range (%d,%d)", id, key, lo, hi)
		}
		colour := r.colourOf(dtx, id)
		left, right := r.get(dtx, id, rbLeft), r.get(dtx, id, rbRight)
		if colour == rbRed {
			if r.colourOf(dtx, left) == rbRed || r.colourOf(dtx, right) == rbRed {
				return 0, fmt.Errorf("rbtree: red node %d has a red child", id)
			}
		}
		if r.get(dtx, id, rbLive) == 1 {
			liveCount++
			liveSum += key
		}
		lh, err := walk(left, lo, key)
		if err != nil {
			return 0, err
		}
		rh, err := walk(right, key, hi)
		if err != nil {
			return 0, err
		}
		if lh != rh {
			return 0, fmt.Errorf("rbtree: node %d has unequal black heights %d/%d", id, lh, rh)
		}
		if colour == rbBlack {
			lh++
		}
		return lh, nil
	}
	if _, err := walk(root, 0, 0); err != nil {
		return err
	}
	_ = liveCount
	_ = liveSum
	return nil
}
