package workloads

import (
	"fmt"
	"math/rand"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
)

// sdgWL is the "SDG" micro-benchmark: atomic batches of edge insertions and
// deletions in a scalable (bounded-degree) undirected graph held in
// persistent memory; one transaction updates ~3 KB worth of adjacency lists. Its invariants are symmetry of the adjacency
// lists and consistency of the global edge count with the vertex degrees.
//
// Layout:
//
//	meta line:  [edgeCount, vertices, 0...]
//	vertex v:   one cache line: word 0 = degree, words 1..7 = neighbour+1
type sdgWL struct {
	meta     uint64
	vertices uint64
	numVerts int
	opsPerTx int
}

func newSDG() *sdgWL { return &sdgWL{} }

// Name implements Workload.
func (g *sdgWL) Name() string { return "sdg" }

const sdgMaxDegree = 7

// Setup implements Workload.
func (g *sdgWL) Setup(heap *palloc.Heap, p Params) error {
	g.numVerts = 16384 // 1 MB adjacency store; one transaction touches ~3 KB
	g.opsPerTx = p.OpsPerTx
	if g.opsPerTx <= 0 {
		g.opsPerTx = 44
	}
	g.meta = heap.AllocLines(1)
	g.vertices = heap.AllocLines(g.numVerts)

	// Seed a sparse ring so deletions find edges immediately.
	var edges uint64
	for v := 0; v < g.numVerts; v++ {
		u := (v + 1) % g.numVerts
		if g.setupHasEdge(heap, v, u) {
			continue
		}
		g.setupAddHalfEdge(heap, v, u)
		g.setupAddHalfEdge(heap, u, v)
		edges++
	}
	heap.WriteWord(word(g.meta, 0), edges)
	heap.WriteWord(word(g.meta, 1), uint64(g.numVerts))
	return nil
}

func (g *sdgWL) vertexAddr(v int) uint64 { return line(g.vertices, v) }

func (g *sdgWL) setupHasEdge(heap *palloc.Heap, v, u int) bool {
	base := g.vertexAddr(v)
	deg := heap.ReadWord(word(base, 0))
	for s := 0; s < int(deg); s++ {
		if heap.ReadWord(word(base, 1+s)) == uint64(u)+1 {
			return true
		}
	}
	return false
}

func (g *sdgWL) setupAddHalfEdge(heap *palloc.Heap, v, u int) {
	base := g.vertexAddr(v)
	deg := heap.ReadWord(word(base, 0))
	heap.WriteWord(word(base, 1+int(deg)), uint64(u)+1)
	heap.WriteWord(word(base, 0), deg+1)
}

// Next implements Workload.
func (g *sdgWL) Next(core int, rng *rand.Rand) *txn.Transaction {
	// Every edge of the batch connects vertices of one small window of one
	// coarse partition (the paper's ~3 KB per-transaction data set). The
	// lock-based designs lock the whole partition; the HTM designs only
	// conflict when two cores pick overlapping windows.
	type op struct {
		u, v   int
		insert bool
	}
	const windows = 8
	part := rng.Intn(partitions)
	span := g.numVerts / partitions
	winSpan := span / windows
	base := part*span + rng.Intn(windows)*winSpan
	ops := make([]op, g.opsPerTx)
	for i := range ops {
		u := base + rng.Intn(winSpan)
		v := base + rng.Intn(winSpan)
		for v == u {
			v = base + rng.Intn(winSpan)
		}
		ops[i] = op{u: u, v: v, insert: rng.Intn(2) == 0}
	}
	lockIDs := []uint64{uint64(part)}

	findNeighbour := func(tx txn.Tx, base uint64, deg uint64, target uint64) int {
		for s := 0; s < int(deg); s++ {
			if tx.Read(word(base, 1+s)) == target {
				return s
			}
		}
		return -1
	}
	removeNeighbour := func(tx txn.Tx, base uint64, deg uint64, slot int) {
		last := tx.Read(word(base, int(deg)))
		tx.Write(word(base, 1+slot), last)
		tx.Write(word(base, int(deg)), 0)
		tx.Write(word(base, 0), deg-1)
	}

	return &txn.Transaction{
		Label:   "sdg-batch",
		LockIDs: lockIDs,
		Body: func(tx txn.Tx) error {
			for _, o := range ops {
				ub, vb := g.vertexAddr(o.u), g.vertexAddr(o.v)
				udeg := tx.Read(word(ub, 0))
				vdeg := tx.Read(word(vb, 0))
				uslot := findNeighbour(tx, ub, udeg, uint64(o.v)+1)
				if o.insert {
					if uslot >= 0 || udeg >= sdgMaxDegree || vdeg >= sdgMaxDegree {
						continue
					}
					tx.Write(word(ub, 1+int(udeg)), uint64(o.v)+1)
					tx.Write(word(ub, 0), udeg+1)
					tx.Write(word(vb, 1+int(vdeg)), uint64(o.u)+1)
					tx.Write(word(vb, 0), vdeg+1)
				} else {
					if uslot < 0 {
						continue
					}
					vslot := findNeighbour(tx, vb, vdeg, uint64(o.u)+1)
					if vslot < 0 {
						return fmt.Errorf("sdg: asymmetric edge %d-%d observed", o.u, o.v)
					}
					removeNeighbour(tx, ub, udeg, uslot)
					removeNeighbour(tx, vb, vdeg, vslot)
				}
			}
			return nil
		},
	}
}

// Verify implements Workload. The global edge count is intentionally not
// maintained inside transactions (it would be an artificial hot line that
// serialises every transaction); symmetry of the adjacency lists is the
// atomicity invariant — a torn edge insertion or deletion leaves one
// half-edge behind and is detected here.
func (g *sdgWL) Verify(store *memdev.Store) error {
	var degreeSum uint64
	for v := 0; v < g.numVerts; v++ {
		base := g.vertexAddr(v)
		deg := store.ReadWord(word(base, 0))
		if deg > sdgMaxDegree {
			return fmt.Errorf("sdg: vertex %d degree %d exceeds maximum", v, deg)
		}
		degreeSum += deg
		for s := 0; s < int(deg); s++ {
			nb := store.ReadWord(word(base, 1+s))
			if nb == 0 || nb > uint64(g.numVerts) {
				return fmt.Errorf("sdg: vertex %d has invalid neighbour slot %d", v, s)
			}
			u := int(nb - 1)
			// Symmetry: u must also list v.
			ub := g.vertexAddr(u)
			udeg := store.ReadWord(word(ub, 0))
			found := false
			for t := 0; t < int(udeg); t++ {
				if store.ReadWord(word(ub, 1+t)) == uint64(v)+1 {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("sdg: edge %d-%d not symmetric", v, u)
			}
		}
	}
	if degreeSum%2 != 0 {
		return fmt.Errorf("sdg: odd degree sum %d implies a dangling half-edge", degreeSum)
	}
	return nil
}
