package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at -smoke scale in-process, one untraced and
// one traced repetition each, and checks that every metric BENCHMARK.json
// names is printed with its unit and a finite value, that no operation
// failed, and that the second repetition reproduced the first's sim_digest
// (over a snapshot cache the first one warmed).
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	checkDefs(t, "end_to_end", spec.EndToEnd, endToEnd)
	checkDefs(t, "per_layer", spec.PerLayer, perLayer)

	// A budget any round overruns leaves measure's two-round minimum: one
	// untraced and one traced repetition.
	cfg := runConfig{workloads: workloadNames(), seed: 3, seconds: 1e-9, trace: true, traceDir: t.TempDir(), smoke: true}
	inProcess := func(ctx context.Context, name, profile string) (*repResult, error) {
		return runRep(ctx, name, cfg.seed, true, time.Now(), profile)
	}
	res, err := measure(context.Background(), cfg, inProcess)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cfg.workloads {
		w := res.byName[name]
		if len(w.untraced) != 1 || len(w.traced) != 1 {
			t.Fatalf("%s: %d untraced and %d traced repetitions, want 1 and 1", name, len(w.untraced), len(w.traced))
		}
		if a, b := w.untraced[0].Digest, w.traced[0].Digest; a != b {
			t.Errorf("%s: sim_digest %s then %s", name, a, b)
		}
	}

	for _, traced := range []bool{false, true} {
		cfg.trace = traced
		var out bytes.Buffer
		if err := res.print(&out, cfg); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
		}
		if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
			t.Fatalf("result: correct %v, %d of %d failed\n%s", last.Correct, last.Failed, last.Attempted, out.String())
		}
		defs := spec.EndToEnd
		if traced {
			defs = spec.PerLayer
		}
		if len(last.Metrics) != len(defs)*len(names) {
			t.Errorf("result has %d metrics, want %d", len(last.Metrics), len(defs)*len(names))
		}
		for _, w := range names {
			for _, d := range defs {
				m, ok := last.Metrics[w+"/"+d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s/%s: got %+v (present %v), want unit %s and a finite value", w, d.Name, m, ok, d.Unit)
				}
				row := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.Name) + `\s+` + regexp.QuoteMeta(d.Unit) + `\s+(\S+)`)
				if mm := row.FindStringSubmatch(out.String()); mm == nil {
					t.Errorf("%s: no printed row for %s", w, d.Name)
				} else if v, err := strconv.ParseFloat(mm[1], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: printed %s = %q", w, d.Name, mm[1])
				}
			}
		}
	}
}

// checkDefs requires BENCHMARK.json to list exactly the benchmark's metrics,
// in order and with the same units.
func checkDefs(t *testing.T, key string, got []struct{ Name, Unit string }, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json %s has %d metrics, the benchmark prints %d", key, len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].Unit != w.unit {
			t.Errorf("BENCHMARK.json %s[%d] = %s (%s), the benchmark prints %s (%s)", key, i, got[i].Name, got[i].Unit, w.name, w.unit)
		}
	}
}

// TestSummarizeMatchesPythonQuartiles pins the quartiles to
// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	st := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if st.p25 != 2.75 || st.median != 5.5 || st.p75 != 8.25 || st.n != 10 {
		t.Errorf("summarize = %+v, want p25 2.75, median 5.5, p75 8.25, n 10", st)
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children, overlapping ones counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "workload", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "runner.run", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "runner.cell", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "runner.cell", Start: 30, End: 70},
		{ID: 4, Parent: 2, Name: "workloads.run", Start: 20, End: 50},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"workload": 20, "runner": 20 + 10 + 40, "workloads": 30}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %d, want %d", l, got[l], d)
		}
	}
}
