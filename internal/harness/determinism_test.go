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
	check("TotalAborts", s.TotalAborts(), 13)
	check("TotalCycles", s.TotalCycles(), 317575)
	check("LogBytes", s.LogBytes, 158008)
	check("DataWriteBytes", s.DataWriteBytes, 113088)
	check("DataReadBytes", s.DataReadBytes, 185088)
	check("LogRecords", s.LogRecords, 1848)
	check("SentinelRecords", s.SentinelRecords, 8)

	wantFinal := []uint64{278337, 308295, 298818, 302091, 317575, 292464, 287238, 311467}
	if len(s.Cores) != len(wantFinal) {
		t.Fatalf("run used %d cores, want %d", len(s.Cores), len(wantFinal))
	}
	for i, want := range wantFinal {
		if got := s.Cores[i].FinalCycle; got != want {
			t.Errorf("core %d FinalCycle = %d, want %d", i, got, want)
		}
	}
}
