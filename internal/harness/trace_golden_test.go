package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dhtm/internal/probe"
	"dhtm/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tracedCell is the fixed-seed cell the trace goldens pin. Small enough to
// keep the golden files readable, long enough that the sampler records more
// than the boundary rows.
func tracedCell() (runner.Cell, probe.Config) {
	cell := runner.Cell{
		ID: "DHTM/hash", Design: DesignDHTM, Workload: "hash",
		Cores: 2, TxPerCore: 4, Seed: 7,
	}
	return cell, probe.Config{Interval: 8192}
}

// runTraced executes the pinned cell once and returns its timeline JSON and
// Chrome trace-event bytes.
func runTraced(t *testing.T) (timeline, chrome []byte) {
	t.Helper()
	cell, tc := tracedCell()
	res, err := ExecuteWith(tc)(cell)
	if err != nil {
		t.Fatalf("ExecuteWith: %v", err)
	}
	if res.Timeline == nil {
		t.Fatal("traced run produced no timeline")
	}
	timeline, err = json.MarshalIndent(res.Timeline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	timeline = append(timeline, '\n')
	var buf bytes.Buffer
	if err := probe.WriteChromeTrace(&buf, []*probe.Timeline{res.Timeline}); err != nil {
		t.Fatal(err)
	}
	return timeline, buf.Bytes()
}

// checkGolden compares got against testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test -run TraceGolden -update ./internal/harness`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden; if the trace format or probe catalog changed deliberately, regenerate with -update.\ngot:\n%s", name, got)
	}
}

// TestTraceGolden pins the exported trace of a fixed-seed cell byte for byte
// — both the compact timeline JSON and the Chrome trace-event document — so
// any drift in the probe catalog, signal order, sampling grid or export
// format is a visible diff. It also asserts the paper-relevant signals are
// present: WAL occupancy, persist-queue depth, abort rate and bandwidth
// bytes.
func TestTraceGolden(t *testing.T) {
	timeline, chrome := runTraced(t)

	var tl probe.Timeline
	if err := json.Unmarshal(timeline, &tl); err != nil {
		t.Fatalf("timeline does not round-trip: %v", err)
	}
	want := map[string]bool{
		"wal/occupancy_max": false, "mem/persist_queue_depth": false,
		"htm/abort_rate": false, "mem/log_bytes": false,
		"mem/data_write_bytes": false,
	}
	for _, sig := range tl.Signals {
		if _, ok := want[sig.Name]; ok {
			want[sig.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("timeline missing signal %s", name)
		}
	}
	if len(tl.Cycles) < 2 {
		t.Fatalf("timeline too short to be interesting: %d rows", len(tl.Cycles))
	}

	checkGolden(t, "trace_timeline.golden.json", timeline)
	checkGolden(t, "trace_chrome.golden.json", chrome)
}

// TestTraceDeterminism is the reproducibility contract: two traced runs of
// the same cell emit byte-identical timelines and Chrome traces, because the
// sampler stamps rows on the simulated-cycle grid, never on host state.
func TestTraceDeterminism(t *testing.T) {
	tl1, ch1 := runTraced(t)
	tl2, ch2 := runTraced(t)
	if !bytes.Equal(tl1, tl2) {
		t.Fatal("two traced runs produced different timeline bytes")
	}
	if !bytes.Equal(ch1, ch2) {
		t.Fatal("two traced runs produced different Chrome trace bytes")
	}
}

// TestRunPlanTracedBypassesMemo pins how tracing and the cell memo meet in
// RunPlan: an untraced run reads through runner.DefaultMemo, so repeating it
// answers every cell from the memo without a timeline; a traced run of the
// same plan simulates and records every cell, never touches the memo, and
// reproduces the untraced numbers.
func TestRunPlanTracedBypassesMemo(t *testing.T) {
	plan := runner.Plan{Name: "traced"}
	for _, d := range []string{DesignATOM, DesignDHTM} {
		plan.Add(runner.Cell{ID: d + "/hash", Design: d, Workload: "hash", Cores: 2, TxPerCore: 2})
	}
	opts := runner.Options{Parallel: 2, Seed: 17}
	run := func(trace probe.Config) *runner.ResultSet {
		t.Helper()
		rs, err := RunPlan(context.Background(), plan, trace, opts)
		if err == nil {
			err = rs.Err()
		}
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	run(probe.Config{})
	untraced := run(probe.Config{})
	for _, r := range untraced.Results {
		if !r.Cached || r.Run.Timeline != nil {
			t.Fatalf("%s: repeated untraced run: cached=%v timeline=%v, want a memo hit without a timeline",
				r.Cell.ID, r.Cached, r.Run.Timeline != nil)
		}
	}

	before := runner.DefaultMemo.Metrics()
	for i, r := range run(probe.Config{Interval: 256}).Results {
		if r.Cached || r.Run.Timeline == nil {
			t.Fatalf("%s: traced run: cached=%v timeline=%v, want a fresh simulation with a timeline",
				r.Cell.ID, r.Cached, r.Run.Timeline != nil)
		}
		if u := untraced.Results[i].Run; r.Run.Committed != u.Committed || r.Run.Cycles != u.Cycles {
			t.Fatalf("%s: traced run committed %d in %d cycles, untraced %d in %d",
				r.Cell.ID, r.Run.Committed, r.Run.Cycles, u.Committed, u.Cycles)
		}
	}
	if after := runner.DefaultMemo.Metrics(); after != before {
		t.Fatalf("traced runs went through the memo: %+v, then %+v", before, after)
	}
}
