package harness

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"dhtm/internal/runner"
)

// TestQuickCampaignTablesGolden renders every experiment of the quick
// campaign at seed 1 and compares the text with a golden file. Unlike
// TestFig5CellGolden (one DHTM cell that never falls back), the quick
// campaign drives every HTM design through its software fallback, so this is
// the byte-identical guard for the shared HTM runtime's retry loop, abort
// sweep and fallback path. Regenerate with
// `go test -run QuickCampaignTablesGolden -update ./internal/harness`.
func TestQuickCampaignTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick campaign")
	}
	o := Options{Quick: true, Seed: 1}
	var buf bytes.Buffer
	for _, e := range Experiments() {
		tab, err := e.Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tab.Render(&buf)
	}
	checkGolden(t, "quick_tables.golden.txt", buf.Bytes())
}

// campaignRuns gives every run of TestQuickCampaignSimulatesEachCellOnce a
// base seed no earlier run of the process used, so none of its cells can
// already be in the process-wide memo (go test -count=N reruns in-process).
var campaignRuns atomic.Int64

// TestQuickCampaignSimulatesEachCellOnce runs the whole quick campaign in
// one process, as dhtm-bench does, and requires the memo to simulate each
// distinct (Key, Seed) pair exactly once and answer every repeat, with
// tables byte-identical to a memo-free run of the same campaign.
func TestQuickCampaignSimulatesEachCellOnce(t *testing.T) {
	o := Options{Quick: true, Seed: 100 + campaignRuns.Add(1)}
	before := runner.DefaultMemo.Metrics()
	distinct := make(map[string]bool)
	cells := 0
	var memo, plain bytes.Buffer
	for _, e := range Experiments() {
		rs, err := e.RunGrid(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs.Results {
			distinct[fmt.Sprintf("%s|%d", r.Cell.Key(), r.Cell.Seed)] = true
			cells++
		}
		tab, err := e.Reduce(o, rs)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tab.Render(&memo)
		runMemoFree(t, e, o).Render(&plain)
	}
	after := runner.DefaultMemo.Metrics()
	if len(distinct) == cells {
		t.Fatalf("the quick campaign repeats no cell, so this test checks nothing")
	}
	if got := after.Computes - before.Computes; got != uint64(len(distinct)) {
		t.Errorf("memo simulated %d cells, want one per distinct cell: %d", got, len(distinct))
	}
	if got := after.MemHits - before.MemHits; got != uint64(cells-len(distinct)) {
		t.Errorf("memo answered %d cells, want the %d repeats", got, cells-len(distinct))
	}
	if !bytes.Equal(memo.Bytes(), plain.Bytes()) {
		t.Fatalf("memo tables differ from a memo-free run:\n--- memo ---\n%s--- memo-free ---\n%s", memo.Bytes(), plain.Bytes())
	}
}
