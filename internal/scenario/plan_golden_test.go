package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dhtm/internal/harness"
	"dhtm/internal/runner"
)

// planGoldenSweep crosses every override axis, with default values spelled
// out, so the golden pins the gap between a cell's ID (which names every
// listed axis) and its Key (which omits default-valued overrides).
const planGoldenSweep = `{"format_version":1,"name":"overrides","mode":"sweep",
	"designs":["DHTM"],"workloads":["hash","tpcc"],
	"axes":{"cores":[2],"tx_per_core":[4],"ops_per_tx":[3],"seed":[7],
		"log_buffer_entries":[64,16],"bandwidth_scale":[1,2.5],
		"conflict_policy":["first-writer-wins","requester-wins"]}}`

// TestPlanGolden lists, without simulating anything, every cell the
// campaign can run: each experiment's plan at quick and full scale, and the
// compiled form of every shipped scenario document. A sweep cell prints its
// ID, Key and DeriveSeed(42, cell); a crashtest entry prints its
// configuration and RunSeed. Cell IDs address results in the reducers, and
// Key → seed fixes every table number, so a refactor of cell construction
// must leave this file byte-identical. Regenerate with
// `go test -run PlanGolden -update ./internal/scenario` only for a
// deliberate, announced change of cells or seeds.
func TestPlanGolden(t *testing.T) {
	var buf bytes.Buffer
	cells := func(p runner.Plan) {
		fmt.Fprintf(&buf, "plan %s (%d cells)\n", p.Name, len(p.Cells))
		for _, c := range p.Cells {
			fmt.Fprintf(&buf, "  %s\t%s\t%d", c.ID, c.Key(), runner.DeriveSeed(42, c))
			if c.Seed != 0 {
				fmt.Fprintf(&buf, "\tseed=%d", c.Seed)
			}
			buf.WriteByte('\n')
		}
	}
	for _, quick := range []bool{true, false} {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(&buf, "experiment %s quick=%v: ", e.ID, quick)
			cells(e.Plan(harness.Options{Quick: quick}))
		}
	}

	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	docs := map[string][]byte{"inline overrides sweep": []byte(planGoldenSweep)}
	names := []string{"inline overrides sweep"}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(p)
		docs[name] = data
		names = append(names, name)
	}
	for _, name := range names {
		doc, err := Parse(docs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := doc.Compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&buf, "scenario %s mode=%s seed=%d\n", name, doc.Mode, c.Seed)
		for _, e := range c.Experiments {
			o := c.Options
			fmt.Fprintf(&buf, "experiment %s quick=%v cores=%d tx=%d seed=%d: ", e.ID, o.Quick, o.Cores, o.TxPerCore, o.Seed)
			cells(e.Plan(c.Options))
		}
		if len(c.Plan.Cells) > 0 {
			cells(c.Plan)
		}
		for _, ct := range c.Crashtests {
			js, err := json.Marshal(ct)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "  crashtest %s\trun_seed=%d\n", js, ct.RunSeed())
		}
	}
	checkPlanGolden(t, "plans.golden.txt", buf.Bytes())
}

// checkPlanGolden compares got against testdata/name, rewriting it under
// -update.
func checkPlanGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test -run PlanGolden -update ./internal/scenario`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted: a cell's ID, key or seed changed.\ngot:\n%s", name, got)
	}
}
