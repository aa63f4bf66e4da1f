package harness

import (
	"reflect"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// TestCellRerunsStandalone checks the promise of runner.DeriveSeed that any
// sweep cell re-runs on its own: Execute (a snapshot clone of the cell's
// post-setup image) and a fresh machine built from Cell.Config and driven
// by workloads.Run — dhtm-sim's path — must commit the same transactions in
// the same cycles with equal Stats, for a plain cell and for one cell per
// override and per workload knob. The cells share one seed and each knob
// must move the cycle count, so the comparison cannot pass with a knob
// dropped on both paths.
func TestCellRerunsStandalone(t *testing.T) {
	var plainCycles uint64
	cases := []struct {
		name string
		edit func(*runner.Cell)
	}{
		{"plain", func(*runner.Cell) {}},
		{"logbuf", func(c *runner.Cell) { c.Overrides.LogBufferEntries = 16 }},
		{"bw", func(c *runner.Cell) { c.Overrides.BandwidthScale = 2 }},
		{"requester-wins", func(c *runner.Cell) { c.Overrides.ConflictPolicy = config.RequesterWins }},
		{"ops", func(c *runner.Cell) { c.OpsPerTx = 3 }},
	}
	for _, tc := range cases {
		cell := runner.Cell{ID: tc.name, Design: DesignDHTM, Workload: "queue", Cores: 2, TxPerCore: 8, Seed: 7}
		tc.edit(&cell)

		got, err := Execute(cell)
		if err != nil {
			t.Fatalf("%s: Execute: %v", tc.name, err)
		}
		cfg, err := cell.Config()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		env, err := txn.NewEnv(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rt, err := registry.NewRuntime(env, cell.Design)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		w, err := registry.NewWorkload(cell.Workload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p := workloads.Params{Cores: cfg.NumCores, Seed: cell.Seed, OpsPerTx: cell.OpsPerTx}
		want, err := workloads.Run(env, rt, w, p, cell.TxPerCore, true)
		if err != nil {
			t.Fatalf("%s: standalone run: %v", tc.name, err)
		}
		if got.Committed != want.Committed || got.Cycles != want.Cycles || !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s: Execute gives %d commits in %d cycles, the standalone re-run %d in %d\n%+v\nvs\n%+v",
				tc.name, got.Committed, got.Cycles, want.Committed, want.Cycles, got.Stats, want.Stats)
		}
		if tc.name == "plain" {
			plainCycles = got.Cycles
		} else if got.Cycles == plainCycles {
			t.Errorf("%s: %d cycles, the same as the plain cell", tc.name, got.Cycles)
		}
	}
}
