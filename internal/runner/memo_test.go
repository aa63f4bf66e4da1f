package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhtm/internal/config"
	"dhtm/internal/obs"
	"dhtm/internal/workloads"
)

// testMemo is a memo with private counters, so assertions see exactly this
// test's lookups.
func testMemo(capacity int) *Memo { return newMemo(obs.NewRegistry(), capacity) }

// TestRunReadsThroughStore checks the read-through layer: a cold sweep
// simulates every cell, a warm sweep of the same plan answers every cell
// from the memo with identical results and zero simulations, and a
// different base seed addresses different results.
func TestRunReadsThroughStore(t *testing.T) {
	m := testMemo(DefaultMemoEntries)

	var cold atomic.Int64
	rs1, err := m.Run(context.Background(), grid(4), fakeExec(&cold), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Load() != 4 {
		t.Fatalf("cold sweep simulated %d cells, want 4", cold.Load())
	}
	for _, r := range rs1.Results {
		if r.Cached {
			t.Fatalf("cold sweep reported a cache hit: %+v", r.Cell)
		}
	}

	var warm atomic.Int64
	rs2, err := m.Run(context.Background(), grid(4), fakeExec(&warm), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Load() != 0 {
		t.Fatalf("warm sweep simulated %d cells, want 0", warm.Load())
	}
	if got := m.Metrics(); got != (MemoMetrics{MemHits: 4, Misses: 4, Computes: 4}) {
		t.Fatalf("metrics = %+v, want 4 hits, 4 misses, 4 computes", got)
	}
	for i := range rs2.Results {
		if !rs2.Results[i].Cached {
			t.Fatalf("warm cell %d not marked cached", i)
		}
		if !reflect.DeepEqual(rs1.Results[i].Run, rs2.Results[i].Run) {
			t.Fatalf("warm cell %d differs from cold run:\n%+v\nvs\n%+v",
				i, rs1.Results[i].Run, rs2.Results[i].Run)
		}
		if rs1.Results[i].Run.Stats == rs2.Results[i].Run.Stats {
			t.Fatalf("warm cell %d aliases the cold run's Stats", i)
		}
	}

	var reseeded atomic.Int64
	if _, err := m.Run(context.Background(), grid(4), fakeExec(&reseeded), Options{Seed: 8}); err != nil {
		t.Fatal(err)
	}
	if reseeded.Load() != 4 {
		t.Fatalf("different seed reused held results (%d simulated)", reseeded.Load())
	}
}

// TestRunNeverMemoizes checks that plain Run simulates every cell even when
// the same plan ran through DefaultMemo before: a caller's own ExecFunc is
// never answered from the memo.
func TestRunNeverMemoizes(t *testing.T) {
	var memoized, plain atomic.Int64
	if _, err := DefaultMemo.Run(context.Background(), grid(3), fakeExec(&memoized), Options{Seed: 99}); err != nil {
		t.Fatal(err)
	}
	rs, err := Run(context.Background(), grid(3), fakeExec(&plain), Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Load() != 3 {
		t.Fatalf("Run simulated %d of 3 cells", plain.Load())
	}
	for _, r := range rs.Results {
		if r.Cached {
			t.Fatalf("Run reported cell %s cached", r.Cell.ID)
		}
	}
}

// TestConcurrentSweepsSimulateOnce checks that two concurrent runs of the
// same plan through one memo simulate each cell exactly once between them,
// and that only the simulating sweep reports a cell uncached.
func TestConcurrentSweepsSimulateOnce(t *testing.T) {
	m := testMemo(DefaultMemoEntries)
	var sims atomic.Int64
	slow := func(c Cell) (workloads.RunResult, error) {
		sims.Add(1)
		time.Sleep(5 * time.Millisecond) // widen the race window
		return workloads.RunResult{Design: c.Design, Committed: uint64(c.Seed)}, nil
	}
	const n = 6
	var wg sync.WaitGroup
	sets := make([]*ResultSet, 2)
	for s := range sets {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rs, err := m.Run(context.Background(), grid(n), slow, Options{Seed: 7, Parallel: 3})
			if err != nil {
				t.Error(err)
				return
			}
			sets[s] = rs
		}(s)
	}
	wg.Wait()
	if sims.Load() != n {
		t.Fatalf("concurrent sweeps simulated %d cells, want exactly %d", sims.Load(), n)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(sets[0].Results[i].Run, sets[1].Results[i].Run) {
			t.Fatalf("cell %d: the two sweeps disagree", i)
		}
		if sets[0].Results[i].Cached == sets[1].Results[i].Cached {
			t.Fatalf("cell %d: cached=%v in both sweeps, want exactly one to report its own simulation", i, sets[0].Results[i].Cached)
		}
	}
	// Every lookup that did not simulate was a hit or joined a flight.
	if got := m.Metrics(); got.Computes != n || got.MemHits+got.Shared != n {
		t.Fatalf("metrics = %+v, want %d computes and %d hits or shared", got, n, n)
	}
}

// TestMemoStripsExecutionDetail checks that a held result answers later
// lookups without the phase trace and scheduling counts of the simulation
// that produced it, while the simulating caller keeps them.
func TestMemoStripsExecutionDetail(t *testing.T) {
	m := testMemo(DefaultMemoEntries)
	cell := Cell{Design: "DHTM", Workload: "hash", Seed: 5}
	exec := func(Cell) (workloads.RunResult, error) {
		res := workloads.RunResult{Committed: 2, Phases: &obs.CellTrace{}}
		res.Phases.Add(obs.PhaseRun, time.Millisecond)
		res.Sched.Switches = 9
		return res, nil
	}
	first, _, _ := m.get(cell, exec)
	if first.Phases == nil || first.Sched.Switches != 9 {
		t.Fatalf("simulating caller lost its execution detail: %+v", first)
	}
	held, avoided, _ := m.get(cell, exec)
	if !avoided || held.Phases != nil || held.Sched.Switches != 0 || held.Committed != 2 {
		t.Fatalf("held result: avoided=%v %+v", avoided, held)
	}
}

// TestKeyCoversEveryField changes every Cell field except ID and Seed, one
// at a time, including each Overrides field, and requires Key to change:
// the memo answers cells by Key, so a field without a key term would serve
// one cell's result for another. Each base value differs from the config
// default, because a cell that spells out a default keys like one that
// leaves it unset.
func TestKeyCoversEveryField(t *testing.T) {
	def := config.Default()
	base := Cell{
		ID: "id", Design: "DHTM", Workload: "hash", Cores: 4, TxPerCore: 8, OpsPerTx: 3, Seed: 9,
		Overrides: Overrides{
			LogBufferEntries: def.LogBufferEntries + 1,
			BandwidthScale:   def.BandwidthScale * 2,
			ConflictPolicy:   def.ConflictPolicy + 1,
		},
	}
	want := base.Key()
	var visit func(path string, v reflect.Value)
	visit = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			if name == "ID" || name == "Seed" {
				continue
			}
			if f.Kind() == reflect.Struct {
				visit(name+".", f)
				continue
			}
			old := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() * 3)
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("%s: kind %s has no perturbation; extend this test", name, f.Kind())
			}
			if base.Key() == want {
				t.Errorf("changing %s leaves Key() at %q", name, want)
			}
			f.Set(old)
		}
	}
	visit("", reflect.ValueOf(&base).Elem())
	if base.Key() != want {
		t.Fatalf("perturbations were not undone: %q, want %q", base.Key(), want)
	}
}

// TestMissOnUnknownKey checks that a cell the memo never held is a miss: it
// simulates, is not reported avoided, and moves the miss and compute
// counters by one each.
func TestMissOnUnknownKey(t *testing.T) {
	m := testMemo(DefaultMemoEntries)
	var calls atomic.Int64
	res, avoided, err := m.get(Cell{Design: "DHTM", Workload: "unknown", Seed: 5}, fakeExec(&calls))
	if err != nil || avoided || calls.Load() != 1 || res.Committed != 5 {
		t.Fatalf("unknown cell: err=%v avoided=%v calls=%d commits=%d", err, avoided, calls.Load(), res.Committed)
	}
	if got := m.Metrics(); got != (MemoMetrics{Misses: 1, Computes: 1}) {
		t.Fatalf("metrics = %+v, want one miss and one compute", got)
	}
}

// TestComputeErrorsAreNotCached checks that a failed simulation reaches its
// caller but leaves nothing behind, so a retry simulates again.
func TestComputeErrorsAreNotCached(t *testing.T) {
	m := testMemo(DefaultMemoEntries)
	cell := Cell{Design: "DHTM", Workload: "errors", Seed: 3}
	boom := errors.New("boom")
	_, avoided, err := m.get(cell, func(Cell) (workloads.RunResult, error) { return workloads.RunResult{}, boom })
	if !errors.Is(err, boom) || avoided {
		t.Fatalf("failed cell: err=%v avoided=%v, want the simulation's error", err, avoided)
	}
	var calls atomic.Int64
	res, avoided, err := m.get(cell, fakeExec(&calls))
	if err != nil || avoided || res.Committed != 3 {
		t.Fatalf("retry after error: err=%v avoided=%v commits=%d", err, avoided, res.Committed)
	}
}

// TestLRUEviction checks the capacity bound: once a memo holds more cells
// than its capacity, the least recently used one is evicted and simulates
// again, while a recently used one stays.
func TestLRUEviction(t *testing.T) {
	m := testMemo(3)
	var calls atomic.Int64
	for i, step := range []struct {
		design string
		held   bool
	}{
		{"a", false}, {"b", false}, {"a", true}, // a is now more recent than b
		{"c", false}, {"d", false}, // a fourth cell evicts b, the least recently used
		{"a", true}, {"b", false},
	} {
		_, avoided, err := m.get(Cell{Design: step.design, Workload: "lru", Seed: 1}, fakeExec(&calls))
		if err != nil || avoided != step.held {
			t.Fatalf("step %d (cell %s): err=%v held=%v, want held=%v", i, step.design, err, avoided, step.held)
		}
	}
}

// TestTierMetricLabels checks DefaultMemo's exposition in obs.Default: its
// counters are the dhtm_resultstore_* families, the memory tier is labelled
// tier="mem", and no series of the deleted disk tier remains.
func TestTierMetricLabels(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		cell := Cell{Design: "DHTM", Workload: "labels", Seed: 1}
		var calls atomic.Int64
		DefaultMemo.get(cell, fakeExec(&calls)) // miss
		DefaultMemo.get(cell, fakeExec(&calls)) // hit
		m := DefaultMemo.Metrics()

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
				t.Errorf("memory-only memo exposes %s\n%s", absent, text)
			}
		}
	})
}
