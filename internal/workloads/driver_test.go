package workloads_test

import (
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/registry"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// smallConfig returns a configuration scaled down for fast tests: fewer
// cores and a smaller per-thread log, but the same cache geometry as the
// paper so overflow and conflict behaviour is still exercised.
func smallConfig(cores int) config.Config {
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.LogBytesPerThread = 256 * 1024
	cfg.OverflowEntriesPerThread = 8 * 1024
	return cfg
}

// newRuntime builds the named design on a fresh environment, resolving the
// name through the registry like every other layer.
func newRuntime(t *testing.T, name string, cfg config.Config) (*txn.Env, txn.Runtime) {
	t.Helper()
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	rt, err := registry.NewRuntime(env, name)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return env, rt
}

// TestAllDesignsAllMicrobenchmarks runs every design on every micro-benchmark
// with a small transaction count and checks that all transactions commit and
// that the workload's structural invariants hold in the durable image after
// the caches are drained.
func TestAllDesignsAllMicrobenchmarks(t *testing.T) {
	designs := []string{"DHTM", "NP", "SO", "sdTM", "ATOM", "LogTM-ATOM"}
	for _, design := range designs {
		for _, wname := range registry.MicroWorkloadNames() {
			design, wname := design, wname
			t.Run(design+"/"+wname, func(t *testing.T) {
				t.Parallel()
				cfg := smallConfig(4)
				env, rt := newRuntime(t, design, cfg)
				w, err := registry.NewWorkload(wname)
				if err != nil {
					t.Fatalf("New(%q): %v", wname, err)
				}
				const perCore = 6
				res, err := workloads.Run(env, rt, w, workloads.Params{}, perCore, true)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				want := uint64(cfg.NumCores * perCore)
				if res.Committed != want {
					t.Fatalf("committed %d transactions, want %d", res.Committed, want)
				}
				if res.Cycles == 0 {
					t.Fatalf("run reported zero cycles")
				}
				env.Hier.DrainClean()
				if err := w.Verify(env.Store()); err != nil {
					t.Fatalf("post-run verification failed: %v", err)
				}
			})
		}
	}
}

// TestOLTPWorkloadsOnKeyDesigns runs TATP and TPC-C on the three designs the
// paper's Table VI compares (SO, ATOM, DHTM).
func TestOLTPWorkloadsOnKeyDesigns(t *testing.T) {
	for _, design := range []string{"SO", "ATOM", "DHTM"} {
		for _, wname := range []string{"tatp", "tpcc"} {
			design, wname := design, wname
			t.Run(design+"/"+wname, func(t *testing.T) {
				t.Parallel()
				cfg := smallConfig(4)
				env, rt := newRuntime(t, design, cfg)
				w, err := registry.NewWorkload(wname)
				if err != nil {
					t.Fatalf("New(%q): %v", wname, err)
				}
				const perCore = 2
				res, err := workloads.Run(env, rt, w, workloads.Params{}, perCore, true)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if res.Committed != uint64(cfg.NumCores*perCore) {
					t.Fatalf("committed %d transactions, want %d", res.Committed, cfg.NumCores*perCore)
				}
				env.Hier.DrainClean()
				if err := w.Verify(env.Store()); err != nil {
					t.Fatalf("post-run verification failed: %v", err)
				}
			})
		}
	}
}

// TestWriteSetFootprints checks that the measured write-set sizes of the
// workloads land in the regime the paper reports in Table IV: micro-benchmark
// write sets of a few tens of lines, TATP around a hundred lines and TPC-C by
// far the largest (hundreds of lines, exceeding the L1).
func TestWriteSetFootprints(t *testing.T) {
	measure := func(wname string) float64 {
		cfg := smallConfig(2)
		env, rt := newRuntime(t, "NP", cfg)
		w, err := registry.NewWorkload(wname)
		if err != nil {
			t.Fatalf("New(%q): %v", wname, err)
		}
		if _, err := workloads.Run(env, rt, w, workloads.Params{}, 3, true); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return env.Stats.MeanWriteSetLines()
	}
	micro := map[string]float64{}
	for _, name := range registry.MicroWorkloadNames() {
		micro[name] = measure(name)
		if micro[name] < 10 || micro[name] > 120 {
			t.Errorf("%s write set %.1f lines outside the expected micro-benchmark regime", name, micro[name])
		}
	}
	tatp := measure("tatp")
	if tatp < 60 || tatp > 400 {
		t.Errorf("tatp write set %.1f lines outside the expected regime (~167)", tatp)
	}
	tpcc := measure("tpcc")
	if tpcc < 300 {
		t.Errorf("tpcc write set %.1f lines should be the largest (paper: ~590)", tpcc)
	}
	if tpcc <= tatp {
		t.Errorf("tpcc write set (%.1f) should exceed tatp (%.1f)", tpcc, tatp)
	}
	t.Logf("write-set lines: micro=%v tatp=%.1f tpcc=%.1f", micro, tatp, tpcc)
}
