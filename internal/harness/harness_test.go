package harness

import (
	"context"
	"strings"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
	"dhtm/internal/txn"
)

// TestNewRuntimeKnowsEveryDesign checks the design factory.
func TestNewRuntimeKnowsEveryDesign(t *testing.T) {
	for _, d := range Designs() {
		cfg := config.Default()
		cfg.NumCores = 2
		env, err := txn.NewEnv(cfg)
		if err != nil {
			t.Fatalf("env: %v", err)
		}
		rt, err := registry.NewRuntime(env, d)
		if err != nil {
			t.Fatalf("NewRuntime(%s): %v", d, err)
		}
		if rt.Name() == "" {
			t.Errorf("design %s has an empty name", d)
		}
	}
	if _, err := registry.NewRuntime(nil, "nonsense"); err == nil {
		t.Errorf("unknown design accepted")
	}
}

// TestExecuteSmallRun checks the Execute plumbing end to end on a tiny run.
func TestExecuteSmallRun(t *testing.T) {
	res, err := Execute(runner.Cell{Design: DesignDHTM, Workload: "sps", Cores: 2, TxPerCore: 2})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Committed != 4 {
		t.Fatalf("committed %d transactions, want 4", res.Committed)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("non-positive throughput")
	}
}

// TestFallbackCellCountsReadSet: NP sends TPC-C's L1-exceeding write sets to
// the software fallback, and Table IV's read-set column must still count
// what those fallback commits read.
func TestFallbackCellCountsReadSet(t *testing.T) {
	res, err := Execute(runner.Cell{Design: DesignNP, Workload: "tpcc", Cores: 2, TxPerCore: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.Snapshot()
	var fallbacks uint64
	for i := range s.Cores {
		fallbacks += s.Cores[i].Fallbacks
	}
	if fallbacks == 0 {
		t.Fatal("no NP tpcc transaction fell back; the test no longer exercises the fallback")
	}
	if got := s.MeanReadSetLines(); got <= 0 {
		t.Fatalf("mean read set %.1f lines with %d fallback commits, want > 0", got, fallbacks)
	}
}

// TestExperimentsRegistered checks every experiment is findable and that the
// quickest one renders a well-formed table.
func TestExperimentsRegistered(t *testing.T) {
	ids := []string{"table4", "fig5", "table5", "fig6", "table6", "table7", "durability", "ablation"}
	for _, id := range ids {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Errorf("bogus experiment found")
	}
}

// TestParallelSweepIsDeterministic is the contract the runner refactor must
// keep: a parallel sweep renders byte-identical tables to a serial one,
// because every cell simulates an isolated system with a content-derived
// seed and reducers assemble results by cell ID, not completion order.
func TestParallelSweepIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fig5 quick grid twice")
	}
	e, ok := Find("fig5")
	if !ok {
		t.Fatal("fig5 not registered")
	}
	render := func(parallel int) string {
		var sb strings.Builder
		runMemoFree(t, e, Options{Quick: true, Parallel: parallel, Seed: 7}).Render(&sb)
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("parallel output diverged from serial:\n--- parallel=1 ---\n%s--- parallel=8 ---\n%s", serial, parallel)
	}
}

// runMemoFree runs an experiment with every cell simulated — runner.Run
// with plain Execute, bypassing runner.DefaultMemo — so a comparison
// against it can never be satisfied by a memo hit.
func runMemoFree(t *testing.T, e Experiment, o Options) *Table {
	t.Helper()
	rs, err := runner.Run(context.Background(), e.Plan(o), Execute, o.runnerOptions())
	if err == nil {
		err = rs.Err()
	}
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	tbl, err := e.Reduce(o, rs)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	return tbl
}

// TestExperimentPlansAreValid checks every experiment's grid has unique,
// addressable cell IDs at both scales.
func TestExperimentPlansAreValid(t *testing.T) {
	for _, e := range Experiments() {
		for _, o := range []Options{{Quick: true}, {}} {
			p := e.Plan(o)
			if err := p.Validate(); err != nil {
				t.Errorf("%s: %v", e.ID, err)
			}
			if len(p.Cells) == 0 {
				t.Errorf("%s: empty plan", e.ID)
			}
		}
	}
}

// TestTableCSV checks the machine-readable CSV rendering.
func TestTableCSV(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "experiment,a,bb\nX,1,2\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

// TestTableRender checks table formatting.
func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"X — demo", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
