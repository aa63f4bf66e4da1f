package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/stats"
	"dhtm/internal/workloads"
)

// fakeExec returns an ExecFunc whose result encodes the cell's identity and
// seed, so tests can check ordering and seeding without running a simulator.
func fakeExec(calls *atomic.Int64) ExecFunc {
	return func(c Cell) (workloads.RunResult, error) {
		calls.Add(1)
		st := stats.New(1)
		st.Core(0).Commits = uint64(c.Seed % 1000)
		st.Core(0).FinalCycle = 100
		return workloads.RunResult{
			Design:    c.Design,
			Workload:  c.Workload,
			Stats:     st,
			Committed: uint64(c.Seed % 1000),
			Cycles:    100,
		}, nil
	}
}

// grid builds an n-cell plan with distinct designs.
func grid(n int) Plan {
	p := Plan{Name: "test"}
	for i := 0; i < n; i++ {
		p.Add(Cell{ID: fmt.Sprintf("d%d/w", i), Design: fmt.Sprintf("d%d", i), Workload: "w", TxPerCore: 4})
	}
	return p
}

// TestRunExecutesEveryCellInPlanOrder checks that results land in plan
// order at any parallelism, with every cell executed exactly once.
func TestRunExecutesEveryCellInPlanOrder(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		var calls atomic.Int64
		rs, err := Run(context.Background(), grid(9), fakeExec(&calls), Options{Parallel: par})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if calls.Load() != 9 {
			t.Fatalf("parallel=%d: executed %d cells, want 9", par, calls.Load())
		}
		for i, r := range rs.Results {
			if want := fmt.Sprintf("d%d/w", i); r.Cell.ID != want {
				t.Fatalf("parallel=%d: result %d is cell %q, want %q", par, i, r.Cell.ID, want)
			}
			if r.Err != nil {
				t.Fatalf("parallel=%d: cell %d failed: %v", par, i, r.Err)
			}
		}
	}
}

// TestDerivedSeedsAreContentAddressed checks that per-cell seeds depend only
// on the cell's semantic fields and the base seed — never on plan position
// or parallelism — so parallel sweeps reproduce serial ones.
func TestDerivedSeedsAreContentAddressed(t *testing.T) {
	c := Cell{ID: "a", Design: "DHTM", Workload: "hash", TxPerCore: 8}
	if DeriveSeed(1, c) != DeriveSeed(1, c) {
		t.Fatalf("seed derivation is not deterministic")
	}
	if DeriveSeed(1, c) == DeriveSeed(2, c) {
		t.Fatalf("base seed does not influence derived seeds")
	}
	other := c
	other.Workload = "queue"
	if DeriveSeed(1, c) == DeriveSeed(1, other) {
		t.Fatalf("distinct cells derived the same seed")
	}
	// The ID is addressing, not identity: renaming a cell keeps its seed.
	renamed := c
	renamed.ID = "b"
	if DeriveSeed(1, c) != DeriveSeed(1, renamed) {
		t.Fatalf("cell ID leaked into seed derivation")
	}
	// Spelling out a default override hashes like leaving it unset.
	spelled := c
	spelled.Overrides = Overrides{BandwidthScale: 1.0, LogBufferEntries: config.Default().LogBufferEntries}
	if DeriveSeed(1, c) != DeriveSeed(1, spelled) {
		t.Fatalf("default-valued override changed the derived seed")
	}
	buf := c
	buf.Overrides = Overrides{LogBufferEntries: 4}
	if DeriveSeed(1, c) == DeriveSeed(1, buf) {
		t.Fatalf("log-buffer override did not change the derived seed")
	}
	set := c
	set.Overrides = Overrides{ConflictPolicy: config.RequesterWins}
	if DeriveSeed(1, c) == DeriveSeed(1, set) {
		t.Fatalf("conflict-policy override did not change the derived seed")
	}

	// The same cell run at different parallelism gets the same seed.
	for _, par := range []int{1, 8} {
		var calls atomic.Int64
		rs, err := Run(context.Background(), Plan{Name: "p", Cells: []Cell{c}}, fakeExec(&calls), Options{Parallel: par, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rs.Results[0].Cell.Seed, DeriveSeed(7, c); got != want {
			t.Fatalf("parallel=%d: seed %d, want %d", par, got, want)
		}
	}
}

// TestExplicitSeedIsRespected checks that a cell pinning its own seed wins
// over derivation.
func TestExplicitSeedIsRespected(t *testing.T) {
	var calls atomic.Int64
	p := Plan{Name: "p", Cells: []Cell{{ID: "a", Design: "d", Workload: "w", Seed: 123}}}
	rs, err := Run(context.Background(), p, fakeExec(&calls), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Results[0].Cell.Seed != 123 {
		t.Fatalf("explicit seed overwritten: got %d", rs.Results[0].Cell.Seed)
	}
}

// TestErrorsAreCollectedNotFailFast checks that one failing cell neither
// aborts the sweep nor hides sibling results.
func TestErrorsAreCollectedNotFailFast(t *testing.T) {
	boom := errors.New("boom")
	exec := func(c Cell) (workloads.RunResult, error) {
		if c.ID == "d1/w" {
			return workloads.RunResult{}, boom
		}
		return workloads.RunResult{Committed: 1, Cycles: 1}, nil
	}
	rs, err := Run(context.Background(), grid(3), exec, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Results[1].Err == nil || !errors.Is(rs.Results[1].Err, boom) {
		t.Fatalf("failing cell's error lost: %v", rs.Results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if rs.Results[i].Err != nil {
			t.Fatalf("sibling cell %d failed: %v", i, rs.Results[i].Err)
		}
	}
	if rs.Err() == nil || !errors.Is(rs.Err(), boom) {
		t.Fatalf("ResultSet.Err did not surface the failure: %v", rs.Err())
	}
	if _, err := rs.Run("d1/w"); err == nil {
		t.Fatalf("Run on a failed cell returned no error")
	}
	if _, err := rs.Run("nope"); err == nil {
		t.Fatalf("Run on a missing cell returned no error")
	}
	if _, err := rs.Run("d0/w"); err != nil {
		t.Fatalf("Run on a good cell failed: %v", err)
	}
}

// TestProgressReportsEveryCell checks the progress callback fires once per
// cell with a monotonically increasing done count.
func TestProgressReportsEveryCell(t *testing.T) {
	var calls atomic.Int64
	var events int
	last := 0
	_, err := Run(context.Background(), grid(7), fakeExec(&calls), Options{Parallel: 4, Progress: func(ev ProgressEvent) {
		events++
		if ev.Done != last+1 || ev.Total != 7 {
			t.Errorf("progress event out of order: done=%d total=%d after %d", ev.Done, ev.Total, last)
		}
		last = ev.Done
	}})
	if err != nil {
		t.Fatal(err)
	}
	if events != 7 {
		t.Fatalf("progress fired %d times, want 7", events)
	}
}

// TestPlanValidation rejects ambiguous plans.
func TestPlanValidation(t *testing.T) {
	dup := Plan{Name: "dup", Cells: []Cell{{ID: "a", Design: "d", Workload: "w"}, {ID: "a", Design: "e", Workload: "w"}}}
	if _, err := Run(context.Background(), dup, fakeExec(new(atomic.Int64)), Options{}); err == nil {
		t.Fatalf("duplicate cell IDs accepted")
	}
	anon := Plan{Name: "anon", Cells: []Cell{{Design: "d", Workload: "w"}}}
	if _, err := Run(context.Background(), anon, fakeExec(new(atomic.Int64)), Options{}); err == nil {
		t.Fatalf("empty cell ID accepted")
	}
}

// TestResultStatsAreSnapshotted checks that a result's Stats share nothing
// with what the exec function returned.
func TestResultStatsAreSnapshotted(t *testing.T) {
	src := stats.New(1)
	src.Core(0).Commits = 5
	exec := func(Cell) (workloads.RunResult, error) {
		return workloads.RunResult{Stats: src}, nil
	}
	rs, err := Run(context.Background(), grid(1), exec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src.Core(0).Commits = 99
	if rs.Results[0].Run.Stats.Core(0).Commits != 5 {
		t.Fatalf("result stats alias the exec function's Stats")
	}
}

// TestForEachCoversEveryIndexConcurrently checks the raw fan-out primitive:
// every index runs exactly once, at any worker-pool size (including larger
// than n and the GOMAXPROCS default), each on a worker in range whose calls
// never overlap and whose indices ascend, and an empty range is a no-op.
// The first call of every worker waits for all of them, so they overlap.
func TestForEachCoversEveryIndexConcurrently(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var hits [37]int32
		pool := workers
		if pool <= 0 {
			pool = runtime.GOMAXPROCS(0)
		}
		pool = min(pool, len(hits))
		last, busy := make([]int, pool), make([]atomic.Bool, pool)
		for w := range last {
			last[w] = -1
		}
		var first sync.WaitGroup
		first.Add(pool)
		ForEach(context.Background(), len(hits), workers, func(w, i int) {
			atomic.AddInt32(&hits[i], 1)
			ok := w < pool && !busy[w].Swap(true) && i > last[w]
			if ok {
				last[w] = i
			} else {
				t.Errorf("workers=%d: index %d on worker %d, out of range, busy or not ascending", workers, i, w)
			}
			if i < pool {
				first.Done()
				first.Wait()
			}
			if ok {
				busy[w].Store(false)
			}
		})
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
	ForEach(context.Background(), 0, 4, func(int, int) { t.Fatalf("fn called for an empty range") })
}

// TestRunCancellation checks clean cancellation: in-flight cells finish and
// report normally, never-started cells carry ErrCancelled (with their
// derived seed filled in, for resumption), and the result set still covers
// the whole plan.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	exec := func(c Cell) (workloads.RunResult, error) {
		if c.ID == "d0/w" {
			close(started)
			cancel()
		}
		return workloads.RunResult{Design: c.Design}, nil
	}
	// One worker: cell 0 cancels mid-flight, cells 1 and 2 must be skipped.
	rs, err := Run(ctx, grid(3), exec, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	first := rs.Results[0]
	if first.Err != nil || first.Run.Design != "d0" {
		t.Fatalf("in-flight cell did not finish cleanly: %+v", first)
	}
	for i := 1; i < 3; i++ {
		r := rs.Results[i]
		if !errors.Is(r.Err, ErrCancelled) || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("cell %d: err = %v, want ErrCancelled wrapping context.Canceled", i, r.Err)
		}
		if r.Cell.Seed == 0 {
			t.Fatalf("cancelled cell %d lost its derived seed", i)
		}
	}
	if rs.Err() == nil {
		t.Fatalf("cancelled sweep reports no error")
	}
}

// TestForEachStopsDispatchOnCancel checks the primitive's contract directly.
func TestForEachStopsDispatchOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	dispatched := ForEach(ctx, 1000, 1, func(int, int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if got := ran.Load(); got >= 1000 {
		t.Fatalf("cancellation did not stop dispatch (%d ran)", got)
	}
	if int(ran.Load()) != dispatched {
		t.Fatalf("dispatched %d but ran %d", dispatched, ran.Load())
	}
}

// TestCellConfig pins the one cell-to-machine mapping: Table III plus the
// cell's core count and overrides, and an error — never a silent default —
// for a negative cell field or override, an unknown conflict policy or an
// invalid machine.
func TestCellConfig(t *testing.T) {
	def := config.Default()
	with := func(edit func(*config.Config)) config.Config {
		c := def
		edit(&c)
		return c
	}
	cases := []struct {
		name    string
		cell    Cell
		want    config.Config
		wantErr string
	}{
		{"plain", Cell{Design: "DHTM", Workload: "hash"}, def, ""},
		{"cores", Cell{Cores: 4}, with(func(c *config.Config) { c.NumCores = 4 }), ""},
		{"logbuf", Cell{Overrides: Overrides{LogBufferEntries: 16}}, with(func(c *config.Config) { c.LogBufferEntries = 16 }), ""},
		{"bw", Cell{Overrides: Overrides{BandwidthScale: 2}}, with(func(c *config.Config) { c.BandwidthScale = 2 }), ""},
		{"policy", Cell{Overrides: Overrides{ConflictPolicy: config.RequesterWins}}, with(func(c *config.Config) { c.ConflictPolicy = config.RequesterWins }), ""},
		{"negative cores", Cell{Cores: -3}, config.Config{}, "core count -3 is negative"},
		{"negative tx", Cell{TxPerCore: -5}, config.Config{}, "transactions per core -5 is negative"},
		{"negative ops", Cell{OpsPerTx: -4}, config.Config{}, "operations per transaction -4 is negative"},
		{"negative logbuf", Cell{Overrides: Overrides{LogBufferEntries: -3}}, config.Config{}, "log-buffer entries override -3 is negative"},
		{"negative bw", Cell{Overrides: Overrides{BandwidthScale: -1}}, config.Config{}, "bandwidth scale override -1 is negative"},
		{"unknown policy", Cell{Overrides: Overrides{ConflictPolicy: 7}}, config.Config{}, "unknown conflict policy 7"},
		{"too many cores", Cell{Cores: config.MaxCores + 1}, config.Config{}, "exceeds the limit"},
	}
	for _, tc := range cases {
		got, err := tc.cell.Config()
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case got != tc.want:
			t.Errorf("%s: Config() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// BenchmarkCellKey measures Key, which runs on every memo lookup and seed
// derivation.
func BenchmarkCellKey(b *testing.B) {
	c := Cell{Design: "DHTM", Workload: "hash", Cores: 8, TxPerCore: 24,
		Overrides: Overrides{LogBufferEntries: 16, BandwidthScale: 2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Key()
	}
}
