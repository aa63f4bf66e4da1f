package runner

import (
	"container/list"
	"context"
	"sync"

	"dhtm/internal/engine"
	"dhtm/internal/obs"
	"dhtm/internal/workloads"
)

// DefaultMemoEntries bounds DefaultMemo. A full eight-experiment campaign is
// about a hundred cells; 4096 keeps many campaigns resident while bounding
// memory to a few MB of counters.
const DefaultMemoEntries = 4096

// DefaultMemo is the process-wide cell memo that harness grids read through,
// so cells repeated across experiments and scenario grids simulate once per
// process. Its counters land in obs.Default under the
// dhtm_resultstore_* families.
var DefaultMemo = NewMemo(obs.Default, DefaultMemoEntries)

// Memo answers repeated cells from memory. A cell's result is a pure
// function of its Key() and seed for a given simulator binary, and a memo
// lives no longer than its process, so the pair is a complete cache key.
// The memo is a bounded LRU. Failed simulations are never cached. Concurrent
// requests for a cell the memo does not yet hold each simulate it; the
// results are identical, and the first one stored is kept.
//
// The key does not cover the ExecFunc, so a memo must only ever be handed
// one executor.
type Memo struct {
	capacity int

	mu    sync.Mutex
	lru   *list.List // of *memoEntry, most recently used first
	byKey map[memoKey]*list.Element

	hits, misses, computes *obs.Counter
}

// memoKey addresses one result.
type memoKey struct {
	cell string
	seed int64
}

type memoEntry struct {
	key memoKey
	res workloads.RunResult
}

// MemoMetrics are a memo's monotone counters. Computes counts the
// simulations that actually ran.
type MemoMetrics struct {
	MemHits  uint64 `json:"mem_hits"`
	Misses   uint64 `json:"misses"`
	Computes uint64 `json:"computes"`
}

// NewMemo returns an empty memo of the given capacity whose counters live in
// reg.
func NewMemo(reg *obs.Registry, capacity int) *Memo {
	return &Memo{
		capacity: capacity,
		lru:      list.New(),
		byKey:    make(map[memoKey]*list.Element),
		hits: reg.Counter("dhtm_resultstore_hits_total",
			"Cells answered from the memo without simulating, by cache tier.", obs.L("tier", "mem")),
		misses: reg.Counter("dhtm_resultstore_misses_total",
			"Cells the memo did not hold, by cache tier.", obs.L("tier", "mem")),
		computes: reg.Counter("dhtm_resultstore_computes_total",
			"Cell simulations the memo ran."),
	}
}

// Metrics returns a snapshot of the counters.
func (m *Memo) Metrics() MemoMetrics {
	return MemoMetrics{
		MemHits:  m.hits.Value(),
		Misses:   m.misses.Value(),
		Computes: m.computes.Value(),
	}
}

// Run is runner.Run with every cell read through the memo: a held cell is
// answered without simulating (Result.Cached).
func (m *Memo) Run(ctx context.Context, plan Plan, exec ExecFunc, opts Options) (*ResultSet, error) {
	return run(ctx, plan, exec, opts, m)
}

// get returns the seeded cell's result, simulating it with exec on a miss.
// The bool reports that this caller's simulation was avoided. The result's
// Stats are always a private snapshot.
func (m *Memo) get(cell Cell, exec ExecFunc) (workloads.RunResult, bool, error) {
	k := memoKey{cell: cell.Key(), seed: cell.Seed}
	m.mu.Lock()
	if el, ok := m.byKey[k]; ok {
		m.lru.MoveToFront(el)
		res := el.Value.(*memoEntry).res
		m.mu.Unlock()
		m.hits.Inc()
		return detach(res), true, nil
	}
	m.mu.Unlock()

	m.misses.Inc()
	m.computes.Inc()
	res, err := exec(cell)
	if err != nil {
		return workloads.RunResult{}, false, err
	}
	res = detach(res)
	m.mu.Lock()
	m.putLocked(k, withoutTrace(res))
	m.mu.Unlock()
	return detach(res), false, nil
}

// putLocked inserts a result as the most recently used entry, evicting the
// least recently used ones beyond capacity. The caller holds m.mu. If a
// concurrent caller already stored k, its entry is kept: both simulated the
// same deterministic cell.
func (m *Memo) putLocked(k memoKey, res workloads.RunResult) {
	if el, ok := m.byKey[k]; ok {
		m.lru.MoveToFront(el)
		return
	}
	m.byKey[k] = m.lru.PushFront(&memoEntry{key: k, res: res})
	for m.lru.Len() > m.capacity {
		last := m.lru.Back()
		m.lru.Remove(last)
		delete(m.byKey, last.Value.(*memoEntry).key)
	}
}

// withoutTrace drops the phase trace, probe timeline and scheduling counts,
// which describe one concrete simulation, not the later lookups a held
// result answers.
func withoutTrace(res workloads.RunResult) workloads.RunResult {
	res.Phases = nil
	res.Timeline = nil
	res.Sched = engine.Counts{}
	return res
}

// detach deep-copies the result's Stats so the memo, concurrent readers and
// callers never alias each other's counters.
func detach(res workloads.RunResult) workloads.RunResult {
	if res.Stats != nil {
		res.Stats = res.Stats.Snapshot()
	}
	return res
}
