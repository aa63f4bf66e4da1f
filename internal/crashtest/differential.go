package crashtest

import (
	"fmt"
	"strings"

	"dhtm/internal/memdev"
	"dhtm/internal/runner"
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
// self-consistent data satisfies. Reports additionally carry the replay's
// heap digest for every committed sequence their passing images recovered
// to, the table CrossCheck compares across designs: differential runs derive
// their seed without the design name, giving every design the identical
// transaction stream.

// diffCtx is the differential oracle's ground truth for one exploration: the
// serial re-execution of the run's whole committed sequence, frozen after
// every commit. Every crash point's committed sequence is a prefix of the
// run's, so replays[m], the image after the first m commits, is the
// reference of every point that holds m of them; digests[m] is its
// heapDigest and keys[m] the canonical "thread:txid,..." form of those m
// commits, the report's digest table key. It is built before judging starts
// and read-only after.
type diffCtx struct {
	replays []*memdev.Store
	digests []uint64
	keys    []string
}

// newDiffCtx re-executes run's committed sequence serially, in
// commit-marker activation order, on a clone of the post-setup store, and
// checks the oracle's preconditions on the way: every generated transaction
// committed, per thread in ascending txid order. A design or workload that
// aborts transactions for good would need a rank mapping the trace alone
// cannot provide.
func (c Config) newDiffCtx(run *pass) (*diffCtx, error) {
	info, err := run.txs.prefix(len(run.trace))
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
	// streams[core] yields the core's transactions in the order the drive
	// loop generated them, so its r-th call is rank r.
	streams := make([]func() *txn.Transaction, c.Cores)
	for core := range streams {
		streams[core] = workloads.Stream(run.prep.Workload, run.prep.Params, core)
	}
	st := run.prep.NewStore()
	dc := &diffCtx{
		replays: []*memdev.Store{frozenClone(st)},
		digests: []uint64{heapDigest(st)},
		keys:    []string{"-"},
	}
	next := make(map[int]int)
	last := make(map[int]uint64)
	dtx := txn.DirectTx{Store: st}
	var key strings.Builder
	fail := func(format string, a ...any) error {
		return fmt.Errorf("crashtest: differential oracle: full trace fails preconditions: "+format, a...)
	}
	for _, k := range info.commits {
		if id, ok := last[k.thread]; ok && k.txid <= id {
			return nil, fail("thread %d commit activations out of txid order (%d after %d)", k.thread, k.txid, id)
		}
		last[k.thread] = k.txid
		r := next[k.thread]
		next[k.thread]++
		if k.thread < 0 || k.thread >= c.Cores || r >= c.TxPerCore {
			return nil, fail("thread %d committed more transactions than the drive loop generates", k.thread)
		}
		if err := streams[k.thread]().Body(dtx); err != nil {
			return nil, fail("serial re-execution of thread %d rank %d failed: %w", k.thread, r, err)
		}
		img := frozenClone(st)
		dg := advanceDigest(dc.digests[len(dc.digests)-1], dc.replays[len(dc.replays)-1], img)
		if key.Len() > 0 {
			key.WriteByte(',')
		}
		fmt.Fprintf(&key, "%d:%d", k.thread, k.txid)
		dc.replays = append(dc.replays, img)
		dc.digests = append(dc.digests, dg)
		dc.keys = append(dc.keys, key.String())
	}
	return dc, nil
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

// advanceDigest returns img's heapDigest given dg, the heapDigest of prev.
// The digest is an XOR of per-line mixes, so the lines the two images hold
// differently swap prev's mixes out and img's in; lines they share cost
// nothing.
func advanceDigest(dg uint64, prev, img *memdev.Store) uint64 {
	img.Diff(prev, wal.HeapBase, func(addr uint64, mine, theirs *memdev.Line, _ bool) bool {
		dg ^= lineMix(addr, mine) ^ lineMix(addr, theirs)
		return true
	})
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
// workload shape and run seed must carry the same heap digest for every
// committed sequence they both observed. The digests are those of the
// design-independent serial replay, which every passing image matched, so
// within one run seed a disagreement can only come from the replay itself
// (a nondeterministic workload); CrossCheck restates the per-image oracle
// across reports rather than adding a check of its own.
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
