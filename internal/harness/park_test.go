package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dhtm/internal/obs"
	"dhtm/internal/probe"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// TestParkingMatchesTracedRun checks that parking spinning cores changes
// nothing simulated. A traced run (sampler installed) must poll every spin
// iteration, because its probes read hit counters mid-run; an untraced run
// parks. Both must produce identical Stats and cycles for every lock-taking
// design on a contended micro-benchmark, on TPC-C and on TATP, and every
// design must actually park somewhere, so the comparison is not vacuous.
func TestParkingMatchesTracedRun(t *testing.T) {
	traced := ExecuteWith(probe.Config{Interval: 5000})
	for _, d := range []string{DesignSO, DesignATOM, DesignLogTMATOM, DesignDHTM, DesignNP, DesignSdTM} {
		var parks uint64
		for _, w := range []string{"hash", "tpcc", "tatp"} {
			cell := runner.Cell{ID: d + "/" + w, Design: d, Workload: w, Cores: 8, TxPerCore: 4, Seed: 11}
			plain, err := Execute(cell)
			if err != nil {
				t.Fatalf("%s: %v", cell.ID, err)
			}
			ref, err := traced(cell)
			if err != nil {
				t.Fatalf("%s traced: %v", cell.ID, err)
			}
			if ref.Sched.Parks != 0 {
				t.Fatalf("%s: traced run parked %d times", cell.ID, ref.Sched.Parks)
			}
			if plain.Cycles != ref.Cycles || !reflect.DeepEqual(plain.Stats, ref.Stats) {
				t.Fatalf("%s: parked run differs from the polling run: cycles %d vs %d\n%+v\nvs\n%+v",
					cell.ID, plain.Cycles, ref.Cycles, plain.Stats, ref.Stats)
			}
			if plain.Sched.Switches >= ref.Sched.Switches && plain.Sched.Parks > 0 {
				t.Errorf("%s: %d switches with %d parks, polling took %d",
					cell.ID, plain.Sched.Switches, plain.Sched.Parks, ref.Sched.Switches)
			}
			parks += plain.Sched.Parks
		}
		if parks == 0 {
			t.Errorf("%s never parked on hash, tpcc or tatp", d)
		}
	}
}

// TestEngineCountersExported pins the obs names of the engine's scheduling
// counters and checks that a computed cell adds its counts to them, both
// through Execute and through a plain workloads.Run, the path dhtm-sim
// takes.
func TestEngineCountersExported(t *testing.T) {
	names := []string{"dhtm_engine_switches_total", "dhtm_engine_parks_total", "dhtm_engine_polls_skipped_total"}
	value := func(name string) uint64 { return obs.Default.Counter(name, "").Value() }
	cell := runner.Cell{ID: "SO/tpcc", Design: DesignSO, Workload: "tpcc", Cores: 4, TxPerCore: 2, Seed: 3}
	plainRun := func(cell runner.Cell) (workloads.RunResult, error) {
		cfg, err := cell.Config()
		if err != nil {
			return workloads.RunResult{}, err
		}
		env, err := txn.NewEnv(cfg)
		if err != nil {
			return workloads.RunResult{}, err
		}
		rt, err := NewRuntime(env, cell.Design)
		if err != nil {
			return workloads.RunResult{}, err
		}
		w, err := registry.NewWorkload(cell.Workload)
		if err != nil {
			return workloads.RunResult{}, err
		}
		p := workloads.Params{Cores: cfg.NumCores, Seed: cell.Seed}
		return workloads.Run(env, rt, w, p, cell.TxPerCore, true)
	}
	for _, run := range []struct {
		name string
		exec func(runner.Cell) (workloads.RunResult, error)
	}{{"Execute", Execute}, {"workloads.Run", plainRun}} {
		before := make([]uint64, len(names))
		for i, n := range names {
			before[i] = value(n)
		}
		res, err := run.exec(cell)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sched.Parks == 0 {
			t.Fatalf("%s: contended SO/tpcc cell never parked", run.name)
		}
		want := []uint64{res.Sched.Switches, res.Sched.Parks, res.Sched.SkippedPolls}
		for i, n := range names {
			if got := value(n) - before[i]; got != want[i] {
				t.Errorf("%s: %s grew by %d, want %d", run.name, n, got, want[i])
			}
		}
	}
	var buf bytes.Buffer
	if err := obs.Default.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if !strings.Contains(buf.String(), "# TYPE "+n+" counter") {
			t.Errorf("exposition lacks counter %s", n)
		}
	}
}
