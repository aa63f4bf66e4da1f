// Package resultstore_test checks, from outside the runner package, the
// result-store contract of runner.DefaultMemo: the process-wide memo that
// harness grids, scenarios and dhtm-serve jobs read through, whose counters
// are exported as the dhtm_resultstore_* metric families and the
// /api/v1/store endpoint. The store lives in memory only, so every check
// here goes through the public Memo.Run and Memo.Metrics.
//
// The tests share DefaultMemo and its counters, so each addresses its own
// cells (a distinct workload name) and asserts counter deltas. None of them
// runs in parallel with another.
package resultstore_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhtm/internal/obs"
	"dhtm/internal/runner"
	"dhtm/internal/workloads"
)

var memo = runner.DefaultMemo

// commitsExec returns an ExecFunc that counts its calls and reports the
// cell's OpsPerTx as its commit count, so a result names the cell it came
// from.
func commitsExec(calls *atomic.Int64) runner.ExecFunc {
	return func(c runner.Cell) (workloads.RunResult, error) {
		calls.Add(1)
		return workloads.RunResult{Design: c.Design, Workload: c.Workload, Committed: uint64(c.OpsPerTx)}, nil
	}
}

// plan builds a plan of the given cells, each with an ID of its own.
func plan(cells ...runner.Cell) runner.Plan {
	p := runner.Plan{Name: "resultstore"}
	for i, c := range cells {
		c.ID = fmt.Sprintf("c%d", i)
		p.Add(c)
	}
	return p
}

// runOne runs a one-cell plan through the memo and returns its result.
func runOne(t *testing.T, cell runner.Cell, exec runner.ExecFunc) runner.Result {
	t.Helper()
	rs, err := memo.Run(context.Background(), plan(cell), exec, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rs.Results[0]
}

// delta returns the counter movement between two metric snapshots.
func delta(before, after runner.MemoMetrics) runner.MemoMetrics {
	return runner.MemoMetrics{
		MemHits:  after.MemHits - before.MemHits,
		Misses:   after.Misses - before.Misses,
		Computes: after.Computes - before.Computes,
		Shared:   after.Shared - before.Shared,
	}
}

// TestMissOnUnknownKey checks that a cell the memo never saw is a miss: it
// simulates, is not reported cached, and moves the miss and compute counters
// by one each.
func TestMissOnUnknownKey(t *testing.T) {
	before := memo.Metrics()
	var calls atomic.Int64
	r := runOne(t, runner.Cell{Design: "DHTM", Workload: "unknown", OpsPerTx: 5, Seed: 1}, commitsExec(&calls))
	if r.Err != nil || r.Cached || calls.Load() != 1 || r.Run.Committed != 5 {
		t.Fatalf("unknown cell: err=%v cached=%v calls=%d commits=%d", r.Err, r.Cached, calls.Load(), r.Run.Committed)
	}
	if got := delta(before, memo.Metrics()); got != (runner.MemoMetrics{Misses: 1, Computes: 1}) {
		t.Fatalf("metric delta = %+v, want one miss and one compute", got)
	}
}

// TestMemoryOnlyStore checks that a result lives in memory for the rest of
// the process: a second run of the same cell, even with an executor that
// would fail, is answered from the memo without simulating.
func TestMemoryOnlyStore(t *testing.T) {
	cell := runner.Cell{Design: "DHTM", Workload: "memonly", OpsPerTx: 9, Seed: 1}
	var calls atomic.Int64
	if r := runOne(t, cell, commitsExec(&calls)); r.Err != nil || r.Cached {
		t.Fatalf("first run: err=%v cached=%v", r.Err, r.Cached)
	}
	before := memo.Metrics()
	r := runOne(t, cell, func(runner.Cell) (workloads.RunResult, error) {
		t.Error("held cell simulated again")
		return workloads.RunResult{}, errors.New("unreachable")
	})
	if r.Err != nil || !r.Cached || r.Run.Committed != 9 {
		t.Fatalf("held cell: err=%v cached=%v commits=%d, want cached 9", r.Err, r.Cached, r.Run.Committed)
	}
	if got := delta(before, memo.Metrics()); got != (runner.MemoMetrics{MemHits: 1}) {
		t.Fatalf("metric delta = %+v, want exactly one memory hit", got)
	}
}

// TestDistinctKeysDoNotCollide checks that cells differing in one key term,
// or only in their seed, are held apart: each is simulated once and each
// later lookup returns its own result.
func TestDistinctKeysDoNotCollide(t *testing.T) {
	cells := []runner.Cell{
		{Design: "DHTM", Workload: "collide", Cores: 8, Seed: 1},
		{Design: "DHTM", Workload: "collide", Cores: 8, Seed: 2}, // same key, other seed
		{Design: "ATOM", Workload: "collide", Cores: 8, Seed: 1},
		{Design: "DHTM", Workload: "collide", Cores: 4, Seed: 1},
	}
	var calls atomic.Int64
	exec := func(runner.Cell) (workloads.RunResult, error) {
		return workloads.RunResult{Committed: uint64(calls.Add(1))}, nil
	}
	for pass := 0; pass < 2; pass++ {
		for i, c := range cells {
			r := runOne(t, c, exec)
			if r.Err != nil || r.Run.Committed != uint64(i+1) || r.Cached != (pass == 1) {
				t.Fatalf("pass %d cell %d: err=%v cached=%v result %d, want %d",
					pass, i, r.Err, r.Cached, r.Run.Committed, i+1)
			}
		}
	}
	if calls.Load() != int64(len(cells)) {
		t.Fatalf("%d simulations, want one per distinct cell (%d)", calls.Load(), len(cells))
	}
}

// TestGetOrComputeSingleflight piles many sweeps onto one cell while its
// simulation is held open: exactly one simulation runs, every sweep gets its
// result, and only the leader reports it uncached.
func TestGetOrComputeSingleflight(t *testing.T) {
	cell := runner.Cell{Design: "DHTM", Workload: "singleflight", Seed: 7}
	const n = 32
	before := memo.Metrics()
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	exec := func(runner.Cell) (workloads.RunResult, error) {
		close(started) // only one simulation may run: a second close panics
		calls.Add(1)
		<-release // hold the flight open until every sweep has piled in
		return workloads.RunResult{Committed: 11}, nil
	}
	var wg sync.WaitGroup
	results := make([]runner.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := memo.Run(context.Background(), plan(cell), exec, runner.Options{Parallel: 1})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = rs.Results[0]
		}(i)
	}
	<-started
	for delta(before, memo.Metrics()).Shared < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("simulation ran %d times, want exactly once", calls.Load())
	}
	leaders := 0
	for i, r := range results {
		if r.Err != nil || r.Run.Committed != 11 {
			t.Fatalf("sweep %d: err %v, %d commits", i, r.Err, r.Run.Committed)
		}
		if !r.Cached {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d sweeps report their own simulation, want 1", leaders)
	}
	if got := delta(before, memo.Metrics()); got.Computes != 1 || got.Shared != n-1 {
		t.Fatalf("metric delta = %+v, want computes=1 shared=%d", got, n-1)
	}
}

// TestComputeErrorsAreNotCached checks that a failed simulation reaches its
// sweep but leaves nothing behind, so a retry simulates again.
func TestComputeErrorsAreNotCached(t *testing.T) {
	cell := runner.Cell{Design: "DHTM", Workload: "errors", Seed: 3}
	boom := errors.New("boom")
	r := runOne(t, cell, func(runner.Cell) (workloads.RunResult, error) {
		return workloads.RunResult{}, boom
	})
	if !errors.Is(r.Err, boom) || r.Cached {
		t.Fatalf("failed cell: err=%v cached=%v, want the simulation's error", r.Err, r.Cached)
	}
	r = runOne(t, cell, func(runner.Cell) (workloads.RunResult, error) {
		return workloads.RunResult{Committed: 4}, nil
	})
	if r.Err != nil || r.Cached || r.Run.Committed != 4 {
		t.Fatalf("retry after error: err=%v cached=%v commits=%d", r.Err, r.Cached, r.Run.Committed)
	}
}

// TestLRUEviction checks the capacity bound of DefaultMemo: once
// DefaultMemoEntries newer cells are held, the least recently used cell is
// evicted and simulates again, while a recently used one stays.
func TestLRUEviction(t *testing.T) {
	var calls atomic.Int64
	exec := commitsExec(&calls)
	a := runner.Cell{Design: "a", Workload: "lru", Seed: 1}
	b := runner.Cell{Design: "b", Workload: "lru", Seed: 1}
	runOne(t, a, exec)
	runOne(t, b, exec)
	if r := runOne(t, a, exec); !r.Cached { // a is now more recent than b
		t.Fatalf("cell a not held right after it ran")
	}
	fill := make([]runner.Cell, runner.DefaultMemoEntries-1)
	for i := range fill {
		fill[i] = runner.Cell{Design: fmt.Sprintf("f%d", i), Workload: "lru", Seed: 1}
	}
	if _, err := memo.Run(context.Background(), plan(fill...), exec, runner.Options{Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	// a and the fillers are exactly DefaultMemoEntries cells, all more
	// recent than b, so b alone of the three was evicted.
	if r := runOne(t, a, exec); !r.Cached {
		t.Fatalf("recent cell evicted out of order")
	}
	if r := runOne(t, b, exec); r.Cached {
		t.Fatalf("memo resurrected an evicted cell")
	}
	if want := int64(2 + len(fill) + 1); calls.Load() != want {
		t.Fatalf("%d simulations, want %d (a, b, the fillers, then b again)", calls.Load(), want)
	}
}

// TestTierMetricLabels checks the exposition of the store's counters: the
// memory tier is labelled tier="mem", and no series of the deleted disk tier
// remains.
func TestTierMetricLabels(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		cell := runner.Cell{Design: "DHTM", Workload: "labels", Seed: 1}
		var calls atomic.Int64
		runOne(t, cell, commitsExec(&calls)) // miss
		runOne(t, cell, commitsExec(&calls)) // hit
		m := memo.Metrics()

		var buf strings.Builder
		if err := obs.Default.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		for _, want := range []string{
			fmt.Sprintf(`dhtm_resultstore_hits_total{tier="mem"} %d`, m.MemHits),
			fmt.Sprintf(`dhtm_resultstore_misses_total{tier="mem"} %d`, m.Misses),
			fmt.Sprintf(`dhtm_resultstore_computes_total %d`, m.Computes),
		} {
			if !strings.Contains(text, want+"\n") {
				t.Errorf("exposition missing %q\n%s", want, text)
			}
		}
		for _, absent := range []string{`tier="disk"`, "dhtm_resultstore_read_seconds", "dhtm_resultstore_write_seconds"} {
			if strings.Contains(text, absent) {
				t.Errorf("memory-only store exposes %s\n%s", absent, text)
			}
		}
	})
}
