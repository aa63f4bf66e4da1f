package scenario_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"dhtm/internal/baselines"
	"dhtm/internal/crashtest"
	"dhtm/internal/harness"
	"dhtm/internal/runner"
	"dhtm/internal/scenario"
	"dhtm/internal/txn"
)

// compile parses and compiles a document body.
func compile(t *testing.T, body string) *scenario.Compiled {
	t.Helper()
	doc, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	c, err := doc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunExperimentMatchesHarness checks that experiment-mode Run renders
// exactly the tables harness.Experiment.Run produces at the same seed and
// scale, and that the streamed Out bytes equal Result.Render.
func TestRunExperimentMatchesHarness(t *testing.T) {
	c := compile(t, `{"format_version": 1, "mode": "experiment",
		"experiments": ["table4", "fig5"], "quick": true, "seed": 7,
		"axes": {"cores": [2], "tx_per_core": [1]}}`)
	var streamed bytes.Buffer
	res, err := scenario.Run(context.Background(), c, scenario.RunOptions{Parallel: 2, Out: &streamed})
	if err != nil {
		t.Fatal(err)
	}

	// The reference simulates every cell (runner.Run with plain
	// harness.Execute), so it cannot be a replay of the memo that Run
	// just filled.
	var want bytes.Buffer
	opts := harness.Options{Quick: true, Cores: 2, TxPerCore: 1, Seed: 7}
	for _, id := range []string{"table4", "fig5"} {
		e, _ := harness.Find(id)
		rs, err := runner.Run(context.Background(), e.Plan(opts), harness.Execute, runner.Options{Parallel: 2, Seed: 7})
		if err == nil {
			err = rs.Err()
		}
		if err != nil {
			t.Fatal(err)
		}
		table, err := e.Reduce(opts, rs)
		if err != nil {
			t.Fatal(err)
		}
		table.Render(&want)
	}
	var rendered bytes.Buffer
	res.Render(&rendered)
	if rendered.String() != want.String() {
		t.Fatalf("Run tables differ from harness.Experiment.Run:\n--- run ---\n%s\n--- harness ---\n%s", rendered.String(), want.String())
	}
	if streamed.String() != rendered.String() {
		t.Fatalf("streamed output differs from Result.Render:\n--- streamed ---\n%s\n--- render ---\n%s", streamed.String(), rendered.String())
	}
	for _, o := range res.Experiments {
		if len(o.Cells) == 0 || o.Cells[0].Seed == 0 {
			t.Fatalf("%s: executed cells missing or unseeded: %+v", o.ID, o.Cells)
		}
	}
}

// TestRenderMatchesServeTables checks the one-renderer contract for crash
// reports: Result.Render of a tiny crashtest document is byte-identical to
// the tables Run serves on RunOptions.Out as each report completes, which is
// what dhtm-bench -scenario prints.
func TestRenderMatchesServeTables(t *testing.T) {
	const body = `{"format_version": 1, "mode": "crashtest",
		"designs": ["DHTM", "ATOM"], "workloads": ["queue"],
		"axes": {"cores": [2], "tx_per_core": [1], "ops_per_tx": [4]},
		"points": {"mode": "stride", "samples": 8}}`
	var served bytes.Buffer
	res, err := scenario.Run(context.Background(), compile(t, body), scenario.RunOptions{Out: &served})
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	res.Render(&local)
	if !strings.Contains(local.String(), "ATOM/queue (cores=2 tx=1") {
		t.Fatalf("unexpected crash report rendering:\n%s", local.String())
	}
	if served.String() != local.String() {
		t.Fatalf("streamed tables differ from Result.Render:\n--- served ---\n%s\n--- local ---\n%s", served.String(), local.String())
	}
}

// TestRunCrashtestFailureSummary checks the failure Run returns counts crash
// images over the report's Tasks once a reordering window fans each crash
// point out into several images, and crash points over Explored otherwise.
// The StaleUndoATOM fixture runs at a size and seed (2 cores × 32
// transactions of 8 operations on hash, seed 4) where it hands out stale
// pre-images that only the differential oracle catches.
func TestRunCrashtestFailureSummary(t *testing.T) {
	for _, window := range []int{0, 1} {
		var fx *baselines.StaleUndoATOM
		c := &scenario.Compiled{
			Doc: &scenario.Document{Mode: scenario.ModeCrashtest},
			Crashtests: []crashtest.Config{{
				Design: "StaleUndoATOM", Workload: "hash", Cores: 2, TxPerCore: 32, OpsPerTx: 8,
				Seed:         4,
				Differential: true,
				Adversary:    crashtest.AdversaryConfig{Window: window, Mode: "exhaustive"},
				Factory: func(env *txn.Env) (txn.Runtime, error) {
					fx = baselines.NewStaleUndoATOM(env)
					return fx, nil
				},
			}},
		}
		res, err := scenario.Run(context.Background(), c, scenario.RunOptions{})
		if err == nil {
			t.Fatalf("window %d: stale-undo fixture passed", window)
		}
		if fx.Stale == 0 {
			t.Fatalf("window %d: the fixture handed out no stale pre-image", window)
		}
		rep := res.Crashtests[0]
		for _, f := range rep.Failures {
			if !strings.HasPrefix(f.Err, "differential oracle:") {
				t.Fatalf("window %d: point %d caught by %q, not the differential oracle", window, f.Point, f.Err)
			}
		}
		want := fmt.Sprintf("StaleUndoATOM/hash: %d of %d crash points failed; reproduce: ", rep.Failed, rep.Explored)
		if window > 0 {
			if rep.Tasks <= rep.Explored {
				t.Fatalf("window %d: %d images for %d points — no fan-out to tell the units apart", window, rep.Tasks, rep.Explored)
			}
			want = fmt.Sprintf("StaleUndoATOM/hash: %d of %d crash images failed; reproduce: ", rep.Failed, rep.Tasks)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("window %d: error %q lacks %q", window, err, want)
		}

		c.Crashtests[0].Differential = false
		if _, err := scenario.Run(context.Background(), c, scenario.RunOptions{}); err != nil {
			t.Fatalf("window %d: non-differential run failed: %v", window, err)
		}
	}
}
