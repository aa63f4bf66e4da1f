package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/crashtest"
	"dhtm/internal/harness"
	"dhtm/internal/obs"
	"dhtm/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenDocument populates every field of the schema with a distinct value,
// so a silent rename, drop or re-typing of any field changes the golden
// bytes.
func goldenDocument() Document {
	return Document{
		FormatVersion: FormatVersion,
		Name:          "golden",
		Description:   "pins the scenario schema; regenerate with -update after a deliberate format change",
		Mode:          ModeSweep,
		Designs:       []string{"DHTM"},
		DesignTags:    []string{"baseline"},
		Workloads:     []string{"hash"},
		WorkloadTags:  []string{"micro"},
		Axes: Axes{
			Cores:            []int{2, 4},
			TxPerCore:        []int{4},
			OpsPerTx:         []int{2},
			Seed:             []int64{7},
			LogBufferEntries: []int{16, 64},
			BandwidthScale:   []float64{1, 2},
			ConflictPolicy:   []string{"requester-wins"},
			ReorderWindow:    []int{0, 3},
		},
		Torn:         true,
		Points:       &crashtest.Selection{Mode: "stride", Samples: 64, Mask: "0x5"},
		MaskMode:     "sample",
		MaskSamples:  32,
		Differential: true,
		Seed:         42,
	}
}

// TestScenarioGoldenRoundTrip pins the on-disk scenario format: the golden
// file must parse back to exactly the document that wrote it, and re-encode
// to exactly its own bytes. If this fails because the format intentionally
// changed, bump FormatVersion and regenerate with
// `go test -run Golden -update ./internal/scenario`.
func TestScenarioGoldenRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "scenario.golden.json")
	want, err := json.MarshalIndent(goldenDocument(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("golden file does not match the current encoding\ngolden:\n%s\ncurrent:\n%s", data, want)
	}

	doc, err := Parse(data)
	if err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	if src := goldenDocument(); !reflect.DeepEqual(*doc, src) {
		t.Fatalf("round trip changed the document:\ngot  %+v\nwant %+v", *doc, src)
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, data) {
		t.Fatalf("re-encoding the parsed document changed the bytes:\n%s", got)
	}
}

// TestParseRejections checks the strict-parse guarantees: unknown fields,
// version skew and trailing data all fail loudly.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"unknown field", `{"format_version":1,"mode":"sweep","designz":["DHTM"]}`, "unknown field"},
		{"unknown axis", `{"format_version":1,"mode":"sweep","axes":{"corez":[2]}}`, "unknown field"},
		{"missing version", `{"mode":"sweep"}`, "format_version 0 is not supported"},
		{"future version", `{"format_version":99,"mode":"sweep"}`, "format_version 99 is not supported"},
		{"trailing data", `{"format_version":1,"mode":"sweep"} {"x":1}`, "trailing data"},
		{"not json", `nope`, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse error = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// compileErr compiles a document from JSON and returns the compile error.
func compileErr(t *testing.T, body string) error {
	t.Helper()
	doc, err := Parse([]byte(body))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	_, err = doc.Compile()
	return err
}

// TestCompileRejections checks that every invalid document dies at compile
// time with an error naming the problem — a compiled scenario can only fail
// by simulating.
func TestCompileRejections(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"missing mode", `{"format_version":1}`, "mode is required"},
		{"unknown mode", `{"format_version":1,"mode":"nope"}`, "unknown mode"},
		{"empty sweep grid", `{"format_version":1,"mode":"sweep"}`, "selects no designs (empty grid)"},
		{"no workloads", `{"format_version":1,"mode":"sweep","designs":["DHTM"]}`, "selects no workloads (empty grid)"},
		{"unknown design", `{"format_version":1,"mode":"sweep","designs":["NOPE"],"workloads":["hash"]}`, "unknown design"},
		{"unknown workload", `{"format_version":1,"mode":"sweep","designs":["DHTM"],"workloads":["nope"]}`, "unknown workload"},
		{"unknown design tag", `{"format_version":1,"mode":"sweep","design_tags":["nope"],"workloads":["hash"]}`, `design tag "nope" matches nothing`},
		{"unknown workload tag", `{"format_version":1,"mode":"sweep","designs":["DHTM"],"workload_tags":["nope"]}`, `workload tag "nope" matches nothing`},
		{"unknown experiment", `{"format_version":1,"mode":"experiment","experiments":["fig99"]}`, "unknown experiment"},
		{"typo beside all", `{"format_version":1,"mode":"experiment","experiments":["all","tabel4"]}`, "unknown experiment"},
		{"bad policy", `{"format_version":1,"mode":"sweep","designs":["DHTM"],"workloads":["hash"],"axes":{"conflict_policy":["chaos"]}}`, "unknown conflict policy"},
		{"zero cores", `{"format_version":1,"mode":"sweep","designs":["DHTM"],"workloads":["hash"],"axes":{"cores":[0]}}`, "must be positive"},
		{"65 cores in sweep", `{"format_version":1,"mode":"sweep","designs":["SO"],"workloads":["hash"],"axes":{"cores":[8,65]}}`, `axis "cores" value 65 exceeds the limit of 64 cores`},
		{"65 cores in experiment", `{"format_version":1,"mode":"experiment","experiments":["table4"],"axes":{"cores":[65]}}`, "exceeds the limit of 64 cores"},
		{"65 cores in crashtest", `{"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"],"axes":{"cores":[65]}}`, "exceeds the limit of 64 cores"},
		{"zero seed", `{"format_version":1,"mode":"sweep","designs":["DHTM"],"workloads":["hash"],"axes":{"seed":[0]}}`, "reserved for derived seeding"},
		{"quick in sweep", `{"format_version":1,"mode":"sweep","quick":true,"designs":["DHTM"],"workloads":["hash"]}`, `"quick" is not valid in mode "sweep"`},
		{"designs in experiment", `{"format_version":1,"mode":"experiment","designs":["DHTM"]}`, `"designs" is not valid in mode "experiment"`},
		{"torn in experiment", `{"format_version":1,"mode":"experiment","torn":true}`, `"torn" is not valid`},
		{"cores sweep in experiment", `{"format_version":1,"mode":"experiment","axes":{"cores":[2,4]}}`, `axis "cores" cannot sweep in mode "experiment"`},
		{"logbuf axis in experiment", `{"format_version":1,"mode":"experiment","axes":{"log_buffer_entries":[16]}}`, `"axes.log_buffer_entries" is not valid`},
		{"unsupported crashtest design", `{"format_version":1,"mode":"crashtest","designs":["NP"],"workloads":["hash"]}`, "not supported by the crash-point explorer"},
		{"bad point selection", `{"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"],"points":{"mode":"bogus"}}`, "unknown selection mode"},
		{"random without samples", `{"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"],"points":{"mode":"random"}}`, "needs Samples"},
		{"negative cores in experiment", `{"format_version":1,"mode":"experiment","axes":{"cores":[-4]}}`, "must be positive"},
		{"logbuf axis in crashtest", `{"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"],"axes":{"log_buffer_entries":[16]}}`, `"axes.log_buffer_entries" is not valid`},
		{"experiments in sweep", `{"format_version":1,"mode":"sweep","experiments":["table4"],"designs":["DHTM"],"workloads":["hash"]}`, `"experiments" is not valid in mode "sweep"`},
		{"reorder window in sweep", `{"format_version":1,"mode":"sweep","designs":["DHTM"],"workloads":["hash"],"axes":{"reorder_window":[2]}}`, `"axes.reorder_window" is not valid in mode "sweep"`},
		{"reorder window in experiment", `{"format_version":1,"mode":"experiment","axes":{"reorder_window":[2]}}`, `"axes.reorder_window" is not valid`},
		{"mask mode in sweep", `{"format_version":1,"mode":"sweep","designs":["DHTM"],"workloads":["hash"],"mask_mode":"sample"}`, `"mask_mode" is not valid in mode "sweep"`},
		{"mask samples in experiment", `{"format_version":1,"mode":"experiment","mask_samples":16}`, `"mask_mode" is not valid`},
		{"differential in sweep", `{"format_version":1,"mode":"sweep","designs":["DHTM"],"workloads":["hash"],"differential":true}`, `"differential" is not valid in mode "sweep"`},
		{"negative reorder window", `{"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"],"axes":{"reorder_window":[-1]}}`, "reorder_window"},
		{"oversized reorder window", `{"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"],"axes":{"reorder_window":[17]}}`, "reorder_window"},
		{"bad mask mode", `{"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"],"mask_mode":"chaos"}`, "adversary mode"},
		{"mask without window", `{"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"],"points":{"mode":"point","point":3,"mask":"0x1"}}`, "needs every reorder_window value > 0"},
		{"exhaustive window too wide", `{"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"],"mask_mode":"exhaustive","axes":{"reorder_window":[13]}}`, "exhaustive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compileErr(t, tc.body)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compile error = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestCompileSweepExpansion checks grid expansion: cross-product size, the
// deterministic nesting order, self-describing cell IDs, and the mapping of
// axes onto cell fields and overrides.
func TestCompileSweepExpansion(t *testing.T) {
	doc, err := Parse([]byte(`{
		"format_version": 1,
		"name": "grid",
		"mode": "sweep",
		"designs": ["DHTM", "SO"],
		"workloads": ["hash"],
		"seed": 9,
		"axes": {
			"cores": [2, 4],
			"ops_per_tx": [3],
			"log_buffer_entries": [16],
			"conflict_policy": ["requester-wins"]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := doc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Seed != 9 {
		t.Fatalf("base seed = %d, want 9", compiled.Seed)
	}
	plan := compiled.Plan
	if plan.Name != "grid" {
		t.Fatalf("plan name = %q", plan.Name)
	}
	// Designs resolve into registry (paper) order: SO before DHTM.
	wantIDs := []string{
		"SO/hash/cores=2/ops=3/logbuf=16/policy=requester-wins",
		"SO/hash/cores=4/ops=3/logbuf=16/policy=requester-wins",
		"DHTM/hash/cores=2/ops=3/logbuf=16/policy=requester-wins",
		"DHTM/hash/cores=4/ops=3/logbuf=16/policy=requester-wins",
	}
	if len(plan.Cells) != len(wantIDs) {
		t.Fatalf("grid has %d cells, want %d", len(plan.Cells), len(wantIDs))
	}
	for i, want := range wantIDs {
		c := plan.Cells[i]
		if c.ID != want {
			t.Errorf("cell %d ID = %q, want %q", i, c.ID, want)
		}
		if c.OpsPerTx != 3 || c.Overrides.LogBufferEntries != 16 {
			t.Errorf("cell %q did not inherit the axes: %+v", c.ID, c)
		}
		if c.Overrides.ConflictPolicy != config.RequesterWins {
			t.Errorf("cell %q did not inherit the conflict policy", c.ID)
		}
	}

	// An explicit seed axis pins Cell.Seed instead of leaving derivation to
	// the runner.
	seeded, err := Parse([]byte(`{"format_version":1,"mode":"sweep","designs":["DHTM"],"workloads":["hash"],"axes":{"seed":[7,8]}}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := seeded.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Plan.Cells) != 2 || sc.Plan.Cells[0].Seed != 7 || sc.Plan.Cells[1].Seed != 8 {
		t.Fatalf("seed axis not applied: %+v", sc.Plan.Cells)
	}

	// Compilation is deterministic: the same document expands identically.
	again, err := doc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Plan, plan) {
		t.Fatal("recompiling the same document produced a different plan")
	}
}

// TestCompileExperiment checks experiment-mode resolution and option
// mapping.
func TestCompileExperiment(t *testing.T) {
	doc, err := Parse([]byte(`{
		"format_version": 1,
		"mode": "experiment",
		"experiments": ["table4", "fig5"],
		"quick": true,
		"seed": 5,
		"axes": {"cores": [2], "tx_per_core": [1]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := doc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled.Experiments) != 2 || compiled.Experiments[0].ID != "table4" || compiled.Experiments[1].ID != "fig5" {
		t.Fatalf("experiments = %+v", compiled.Experiments)
	}
	o := compiled.Options
	if !o.Quick || o.Cores != 2 || o.TxPerCore != 1 || o.Seed != 5 {
		t.Fatalf("options = %+v", o)
	}

	all, err := Parse([]byte(`{"format_version":1,"mode":"experiment","experiments":["all"]}`))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := all.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Experiments) != len(harness.Experiments()) {
		t.Fatalf("\"all\" selected %d experiments, want %d", len(ca.Experiments), len(harness.Experiments()))
	}
}

// TestCompileCrashtest checks crashtest-mode expansion and knob
// propagation.
func TestCompileCrashtest(t *testing.T) {
	doc, err := Parse([]byte(`{
		"format_version": 1,
		"mode": "crashtest",
		"designs": ["DHTM", "ATOM"],
		"workloads": ["hash"],
		"torn": true,
		"seed": 11,
		"axes": {"cores": [4], "tx_per_core": [2], "ops_per_tx": [8]},
		"points": {"mode": "stride", "samples": 64}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := doc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled.Crashtests) != 2 {
		t.Fatalf("crashtests = %d, want 2", len(compiled.Crashtests))
	}
	// Registry order puts ATOM before DHTM.
	if compiled.Crashtests[0].Design != "ATOM" || compiled.Crashtests[1].Design != "DHTM" {
		t.Fatalf("design order = %s, %s", compiled.Crashtests[0].Design, compiled.Crashtests[1].Design)
	}
	for _, cfg := range compiled.Crashtests {
		if cfg.Workload != "hash" || cfg.Cores != 4 || cfg.TxPerCore != 2 || cfg.OpsPerTx != 8 {
			t.Errorf("config did not inherit the axes: %+v", cfg)
		}
		if !cfg.Torn || cfg.Seed != 11 {
			t.Errorf("config did not inherit torn/seed: %+v", cfg)
		}
		if cfg.Points.Mode != "stride" || cfg.Points.Samples != 64 {
			t.Errorf("config did not inherit the point selection: %+v", cfg)
		}
		if cfg.Adversary.Window != 0 || cfg.Differential {
			t.Errorf("adversary knobs leaked into a plain document: %+v", cfg)
		}
	}

	// The reorder_window axis fans each grid point out per window value —
	// including the legal 0 baseline — and carries the adversary knobs and
	// the differential switch onto every config.
	adv, err := Parse([]byte(`{
		"format_version": 1,
		"mode": "crashtest",
		"designs": ["DHTM"],
		"workloads": ["hash"],
		"mask_mode": "sample",
		"mask_samples": 8,
		"differential": true,
		"axes": {"reorder_window": [0, 2, 4]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := adv.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Crashtests) != 3 {
		t.Fatalf("crashtests = %d, want 3 (one per window)", len(ca.Crashtests))
	}
	for i, want := range []int{0, 2, 4} {
		cfg := ca.Crashtests[i]
		if cfg.Adversary.Window != want || cfg.Adversary.Mode != "sample" || cfg.Adversary.Samples != 8 {
			t.Errorf("config %d adversary = %+v, want window %d mode sample samples 8", i, cfg.Adversary, want)
		}
		if !cfg.Differential {
			t.Errorf("config %d lost the differential switch", i)
		}
	}
}

// TestExampleScenariosCompile keeps the shipped example files honest: every
// scenario under examples/scenarios must parse and compile against the
// current registry and experiment catalog, and running it must render
// exactly testdata/examples/<name>.txt — the stdout of
// `dhtm-bench -scenario examples/scenarios/<name>.json`. Regenerate with
// `go test -run ExampleScenariosCompile -update ./internal/scenario` only
// for a deliberate, announced change of tables.
func TestExampleScenariosCompile(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	n := 0
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		n++
		t.Run(e.Name(), func(t *testing.T) {
			doc, err := Load(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			c, err := doc.Compile()
			if err != nil {
				t.Fatal(err)
			}
			// A memo of its own, as in a dhtm-bench process per document: a
			// sweep cell held from an earlier document or an earlier -count
			// run would render as cached.
			saved := runner.DefaultMemo
			runner.DefaultMemo = runner.NewMemo(obs.NewRegistry(), runner.DefaultMemoEntries)
			defer func() { runner.DefaultMemo = saved }()
			res, err := Run(context.Background(), c, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			res.Render(&got)
			golden := filepath.Join("testdata", "examples", name+".txt")
			if *updateGolden {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("rendering differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
			}
		})
	}
	if n == 0 {
		t.Fatal("no example scenarios found")
	}
}
