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
// so cells repeated across experiments, sweeps and dhtm-serve jobs simulate
// once per process. Its counters land in obs.Default under the
// dhtm_resultstore_* families.
var DefaultMemo = newMemo(obs.Default, DefaultMemoEntries)

// Memo answers repeated cells from memory. A cell's result is a pure
// function of its Key() and seed for a given simulator binary, and a memo
// lives no longer than its process, so the pair is a complete cache key.
// The memo is a bounded LRU with singleflight: concurrent requests for the
// same cell share one simulation. Failed simulations are never cached.
//
// The key does not cover the ExecFunc, so a memo must only ever be handed
// one executor.
type Memo struct {
	capacity int

	mu     sync.Mutex
	lru    *list.List // of *memoEntry, most recently used first
	byKey  map[memoKey]*list.Element
	flight map[memoKey]*flight

	hits, misses, computes, shared *obs.Counter
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

// flight is one in-progress simulation; waiters block on done and then
// read res and err.
type flight struct {
	done chan struct{}
	res  workloads.RunResult
	err  error
}

// MemoMetrics are a memo's monotone counters. Computes counts the
// simulations that actually ran; Shared counts callers that waited on
// another caller's in-flight simulation instead of starting their own.
type MemoMetrics struct {
	MemHits  uint64 `json:"mem_hits"`
	Misses   uint64 `json:"misses"`
	Computes uint64 `json:"computes"`
	Shared   uint64 `json:"shared"`
}

// newMemo returns a memo of the given capacity whose counters live in reg.
func newMemo(reg *obs.Registry, capacity int) *Memo {
	return &Memo{
		capacity: capacity,
		lru:      list.New(),
		byKey:    make(map[memoKey]*list.Element),
		flight:   make(map[memoKey]*flight),
		hits: reg.Counter("dhtm_resultstore_hits_total",
			"Cells answered from the memo without simulating, by cache tier.", obs.L("tier", "mem")),
		misses: reg.Counter("dhtm_resultstore_misses_total",
			"Cells the memo did not hold, by cache tier.", obs.L("tier", "mem")),
		computes: reg.Counter("dhtm_resultstore_computes_total",
			"Cell simulations the memo ran."),
		shared: reg.Counter("dhtm_resultstore_shared_total",
			"Callers that waited on another caller's in-flight simulation."),
	}
}

// Metrics returns a snapshot of the counters.
func (m *Memo) Metrics() MemoMetrics {
	return MemoMetrics{
		MemHits:  m.hits.Value(),
		Misses:   m.misses.Value(),
		Computes: m.computes.Value(),
		Shared:   m.shared.Value(),
	}
}

// Run is runner.Run with every cell read through the memo: a held cell is
// answered without simulating (Result.Cached), and concurrent requests for
// the same cell, within or across plans, simulate it once.
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
	if f, ok := m.flight[k]; ok {
		m.mu.Unlock()
		m.shared.Inc()
		<-f.done
		if f.err != nil {
			return workloads.RunResult{}, false, f.err
		}
		return withoutTrace(detach(f.res)), true, nil
	}
	f := &flight{done: make(chan struct{})}
	m.flight[k] = f
	m.mu.Unlock()

	m.misses.Inc()
	m.computes.Inc()
	res, err := exec(cell)
	if err == nil {
		res = detach(res)
	}
	f.res, f.err = res, err

	m.mu.Lock()
	delete(m.flight, k)
	if err == nil {
		m.putLocked(k, withoutTrace(res))
	}
	m.mu.Unlock()
	close(f.done)

	if err != nil {
		return workloads.RunResult{}, false, err
	}
	return detach(res), false, nil
}

// putLocked inserts a result as the most recently used entry, evicting the
// least recently used ones beyond capacity. The caller holds m.mu and no
// entry for k exists: a key has an entry or a flight, never both.
func (m *Memo) putLocked(k memoKey, res workloads.RunResult) {
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
