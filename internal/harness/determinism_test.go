package harness

import (
	"testing"

	"dhtm/internal/runner"
)

// TestFig5CellGolden runs one quick fig5 cell (DHTM on hash, the paper's
// headline configuration) and compares its statistics against golden
// values. Any change to the engine's scheduling order, the store's contents,
// the WAL's timing model or the designs' set bookkeeping shows up here as a
// cycle or traffic drift — this is the regression guard for the
// byte-identical-output invariant.
func TestFig5CellGolden(t *testing.T) {
	cell := runner.Cell{ID: "DHTM/hash", Design: DesignDHTM, Workload: "hash", TxPerCore: 8}
	cell.Seed = runner.DeriveSeed(0, cell)
	if cell.Seed != 878558520214723900 {
		t.Fatalf("derived seed = %d, want 878558520214723900 (seed derivation changed; golden values below are stale)", cell.Seed)
	}
	res, err := Execute(cell)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.Snapshot()

	check := func(name string, got, want uint64) {
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("TotalCommits", s.TotalCommits(), 64)
	check("TotalAborts", s.TotalAborts(), 0)
	check("TotalCycles", s.TotalCycles(), 323114)
	check("LogBytes", s.LogBytes, 162032)
	check("DataWriteBytes", s.DataWriteBytes, 116352)
	check("DataReadBytes", s.DataReadBytes, 195264)
	// 1,818 redo records, then a commit and a complete record for each of
	// the 64 commits.
	check("LogRecords", s.LogRecords, 1946)
	check("SentinelRecords", s.SentinelRecords, 0)

	wantFinal := []uint64{323114, 298000, 288220, 294730, 314042, 307280, 301027, 318854}
	if len(s.Cores) != len(wantFinal) {
		t.Fatalf("run used %d cores, want %d", len(s.Cores), len(wantFinal))
	}
	for i, want := range wantFinal {
		if got := s.Cores[i].FinalCycle; got != want {
			t.Errorf("core %d FinalCycle = %d, want %d", i, got, want)
		}
	}
}
