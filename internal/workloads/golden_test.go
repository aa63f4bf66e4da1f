package workloads

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dhtm/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenResult builds a fully populated RunResult: every field of the JSON
// encoding carries a distinct non-zero value, so a silent rename or drop of
// any field changes the golden bytes.
func goldenResult() RunResult {
	st := stats.New(2)
	for i := range st.Cores {
		c := st.Core(i)
		base := uint64(i + 1)
		c.Commits = 100 * base
		c.Aborts = 7 * base
		c.AbortsByReason[stats.AbortConflict] = 3 * base
		c.AbortsByReason[stats.AbortLogOverflow] = base
		c.Fallbacks = 2 * base
		c.TxCycles = 5000 * base
		c.StallCycles = 400 * base
		c.FinalCycle = 90000 * base
		c.WriteSetLines = 640 * base
		c.ReadSetLines = 900 * base
		c.L1Hits = 8000 * base
		c.L1Misses = 200 * base
		c.LLCHits = 150 * base
		c.LLCMisses = 50 * base
	}
	st.LogBytes = 64128
	st.DataWriteBytes = 128256
	st.DataReadBytes = 256512
	st.LogRecords = 1002
	st.SentinelRecords = 33
	st.OverflowedLines = 17
	return RunResult{
		Design:    "DHTM",
		Workload:  "hash",
		Stats:     st,
		Committed: 300,
		Cycles:    180000,
	}
}

// TestRunResultGoldenJSON pins the JSON encoding of RunResult (including the
// embedded stats.Stats snapshot). If this test fails because the encoding
// intentionally changed, regenerate with `go test -run Golden -update
// ./internal/workloads`.
func TestRunResultGoldenJSON(t *testing.T) {
	path := filepath.Join("testdata", "runresult.golden.json")
	got, err := json.MarshalIndent(goldenResult(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("RunResult JSON drifted from the golden encoding.\nIf intentional, rerun with -update.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunResultJSONRoundTrip proves decode(encode(r)) is the identity for a
// fully populated result — uint64 counters survive exactly (encoding/json
// parses integer literals, it does not round through float64) — and that the
// golden file itself decodes back to the original value.
func TestRunResultJSONRoundTrip(t *testing.T) {
	orig := goldenResult()
	// A counter above 2^53 would corrupt if the decoder went through float64.
	orig.Stats.Core(0).FinalCycle = 1<<63 + 12345
	orig.Cycles = 1<<63 + 12345

	enc, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back RunResult
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip not identity:\n%+v\nvs\n%+v", orig, back)
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "runresult.golden.json"))
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var fromDisk RunResult
	if err := json.Unmarshal(golden, &fromDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(goldenResult(), fromDisk) {
		t.Fatalf("golden file decodes to a different value:\n%+v", fromDisk)
	}
}
