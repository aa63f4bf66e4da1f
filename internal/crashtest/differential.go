package crashtest

import (
	"fmt"
	"strings"

	"dhtm/internal/memdev"
	"dhtm/internal/runner"
	"dhtm/internal/snapshot"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
	"dhtm/internal/workloads"
)

// The differential oracle. Every crash-safe design promises the same thing:
// after recovery, NVM holds exactly the effects of the transactions whose
// commit markers persisted, in their serialization order, and nothing else.
// That promise has a design-independent ground truth — re-execute exactly
// those transactions, serially, on a store that never saw any transactional
// machinery — and the oracle holds each recovered image to it. Two design
// properties make the replay well-defined:
//
//   - The commit-marker activation order of the persist trace *is* a valid
//     serialization order: every design appends the commit record while still
//     holding its conflict-detection claim on the write set (locks for the
//     undo baselines, read/write bits for DHTM), so a dependent transaction
//     cannot commit-persist before its dependency.
//   - Transaction bodies are deterministic functions of (core, rank): the
//     drive loop generates each core's stream from a seed-derived RNG, so the
//     j-th committed txid of a thread (txids ascend per thread) is the j-th
//     generated transaction, re-generable without running any design.
//
// Disagreement with the replay is a durability bug even when the workload's
// own Verify passes — Verify checks structural invariants, which stale but
// self-consistent data satisfies. Reports additionally carry a digest of the
// recovered heap per committed sequence, so CrossCheck can compare designs
// against each other directly: differential runs derive their seed without
// the design name, giving every design the identical transaction stream.

// diffCtx is the per-exploration state of the differential oracle: the
// prepared workload snapshot and the re-generated transaction streams.
type diffCtx struct {
	prep *snapshot.Prepared
	gen  [][]*txn.Transaction // [core][rank]
	// base is a frozen clone of the post-setup snapshot and baseDigest its
	// heap digest, the starting point of every incremental digest.
	base       *memdev.Store
	baseDigest uint64
}

// newDiffCtx regenerates the workload's transaction streams and checks the
// full trace satisfies the oracle's preconditions: every generated
// transaction committed, per thread in ascending txid order. A design or
// workload that aborts transactions for good would need a rank mapping the
// trace alone cannot provide.
func (c Config) newDiffCtx(runSeed int64, trace []traceEvent) (*diffCtx, error) {
	_, prep, err := c.prepare(runSeed)
	if err != nil {
		return nil, err
	}
	dc := &diffCtx{prep: prep, gen: make([][]*txn.Transaction, c.Cores), base: prep.NewStore()}
	dc.base.Freeze()
	dc.baseDigest = heapDigest(dc.base)
	for core := 0; core < c.Cores; core++ {
		next := workloads.Stream(prep.Workload, prep.Params, core)
		for i := 0; i < c.TxPerCore; i++ {
			dc.gen[core] = append(dc.gen[core], next())
		}
	}
	info, err := parseTrace(trace)
	if err != nil {
		return nil, fmt.Errorf("crashtest: differential oracle: %w", err)
	}
	counts := make(map[int]int)
	for _, k := range info.commits {
		counts[k.thread]++
	}
	for core := 0; core < c.Cores; core++ {
		if counts[core] != c.TxPerCore {
			return nil, fmt.Errorf("crashtest: differential oracle: thread %d committed %d of %d transactions — the oracle requires every transaction to commit",
				core, counts[core], c.TxPerCore)
		}
	}
	if _, err := dc.replay(info.commits); err != nil {
		return nil, fmt.Errorf("crashtest: differential oracle: full trace fails preconditions: %w", err)
	}
	return dc, nil
}

// replay serially re-executes the committed sequence on a fresh copy of the
// post-setup store and returns the resulting image.
func (d *diffCtx) replay(commits []txKey) (*memdev.Store, error) {
	next := make(map[int]int)
	last := make(map[int]uint64)
	st := d.prep.NewStore()
	dtx := txn.DirectTx{Store: st}
	for _, k := range commits {
		if id, ok := last[k.thread]; ok && k.txid <= id {
			return nil, fmt.Errorf("thread %d commit activations out of txid order (%d after %d)", k.thread, k.txid, id)
		}
		last[k.thread] = k.txid
		r := next[k.thread]
		next[k.thread]++
		if k.thread < 0 || k.thread >= len(d.gen) || r >= len(d.gen[k.thread]) {
			return nil, fmt.Errorf("thread %d committed more transactions than the drive loop generates", k.thread)
		}
		if err := d.gen[k.thread][r].Body(dtx); err != nil {
			return nil, fmt.Errorf("serial re-execution of thread %d rank %d failed: %w", k.thread, r, err)
		}
	}
	return st, nil
}

// commitKey canonicalizes a committed sequence for the report's digest table:
// "thread:txid" pairs in commit-marker activation order. Distinct designs are
// only comparable where these keys coincide — the same transactions committed
// in the same serialization order.
func commitKey(commits []txKey) string {
	if len(commits) == 0 {
		return "-"
	}
	var b strings.Builder
	for i, k := range commits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", k.thread, k.txid)
	}
	return b.String()
}

// heapDigest summarizes the workload-visible heap (lines at or above
// wal.HeapBase) order-independently: XOR of per-line mixes, so all-zero lines
// that only one design ever touched cannot perturb it.
func heapDigest(st *memdev.Store) uint64 {
	var d uint64
	st.ForEachLine(func(addr uint64, data memdev.Line) {
		d ^= lineMix(addr, &data)
	})
	return d
}

// digest returns heapDigest(st) for an image cloned from the post-setup
// snapshot, incrementally: the digest is an XOR of per-line mixes, so
// st's digest is the base's with the mixes of every line in leaves the two
// images do not share swapped out (base's side) and in (st's side). Shared
// leaves cancel exactly.
func (d *diffCtx) digest(st *memdev.Store) uint64 {
	dg := d.baseDigest
	mix := func(addr uint64, mine, _ *memdev.Line) bool {
		dg ^= lineMix(addr, mine)
		return true
	}
	d.base.ForEachUnsharedLine(st, mix)
	st.ForEachUnsharedLine(d.base, mix)
	return dg
}

// lineMix is one line's contribution to a heap digest: 0 outside the heap
// and for all-zero lines.
func lineMix(addr uint64, data *memdev.Line) uint64 {
	if addr < wal.HeapBase || *data == (memdev.Line{}) {
		return 0
	}
	h := runner.Mix64(addr)
	for _, w := range data {
		h = runner.Mix64(h ^ w)
	}
	return h
}

// CrossCheck compares differential reports across designs: runs that share a
// workload shape and run seed must produce the same recovered heap digest for
// every committed sequence they both observed. It is the cross-design half of
// the differential oracle — the per-point replay check catches a design
// diverging from ground truth; this catches two designs diverging from each
// other even if both sweeps were sampled at different points.
func CrossCheck(reports []*Report) error {
	type origin struct {
		design string
		digest string
	}
	groups := make(map[string]map[string]origin)
	for _, r := range reports {
		if r == nil || !r.Differential || len(r.CommitDigests) == 0 {
			continue
		}
		gk := fmt.Sprintf("%s|%d|%d|%d|%d", r.Workload, r.Cores, r.TxPerCore, r.OpsPerTx, r.RunSeed)
		m := groups[gk]
		if m == nil {
			m = make(map[string]origin)
			groups[gk] = m
		}
		for ck, dg := range r.CommitDigests {
			prev, ok := m[ck]
			if !ok {
				m[ck] = origin{design: r.Design, digest: dg}
				continue
			}
			if prev.digest != dg {
				return fmt.Errorf("crashtest: differential oracle: designs %s and %s disagree on the recovered heap for committed sequence [%s] (%s workload: digests %s vs %s)",
					prev.design, r.Design, ck, r.Workload, prev.digest, dg)
			}
		}
	}
	return nil
}
