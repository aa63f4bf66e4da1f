package crashtest

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden reports in testdata/")

// goldenReport is a Report as dhtm-crashtest -json prints it, minus
// elapsed_ns: the shallower zero field shadows the report's own and is
// omitted.
type goldenReport struct {
	*Report
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
}

// TestDifferentialReportGolden pins the bytes of differential reports,
// digest table included, to the golden that
//
//	dhtm-crashtest -json -design DHTM,ATOM -workload hash,queue -cores 2 \
//	  -tx 2 -ops 4 -window 2 -masks exhaustive -differential
//
// prints, elapsed_ns dropped. Regenerate with
// `go test ./internal/crashtest -run ReportGolden -update` only when the
// report bytes change on purpose.
func TestDifferentialReportGolden(t *testing.T) {
	var reports []goldenReport
	for _, design := range []string{"ATOM", "DHTM"} {
		for _, workload := range []string{"queue", "hash"} {
			rep, err := Explore(context.Background(), Config{
				Design: design, Workload: workload, Cores: 2, TxPerCore: 2, OpsPerTx: 4,
				Adversary:    AdversaryConfig{Window: 2, Mode: "exhaustive"},
				Differential: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, goldenReport{Report: rep})
		}
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "differential.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("differential reports drifted from %s:\ngot:\n%s", path, got.Bytes())
	}
}
