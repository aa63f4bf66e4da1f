// Benchmarks that regenerate every table and figure of the paper's evaluation
// (§VI). Each benchmark runs the corresponding experiment from
// internal/harness at a reduced scale (the Quick option) so that
// `go test -bench=. -benchmem` finishes in a few minutes, and reports the
// headline numbers as benchmark metrics. cmd/dhtm-bench runs the same
// experiments at full scale and prints the complete tables.
package dhtm_test

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"dhtm/internal/harness"
	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
	"dhtm/internal/workloads"
)

// benchOptions returns the experiment options used by the benchmarks.
// Set DHTM_BENCH_FULL=1 to run at the full default scale.
func benchOptions() harness.Options {
	o := harness.Options{Quick: true}
	if v, _ := strconv.ParseBool(os.Getenv("DHTM_BENCH_FULL")); v {
		o.Quick = false
	}
	return o
}

// runExperiment executes one experiment per benchmark iteration and prints
// its table once so the benchmark log doubles as the reproduction record.
// Every iteration simulates every cell: runner.Run with plain
// harness.Execute bypasses the process's cell memo, which would otherwise
// answer every iteration after the first.
func runExperiment(b *testing.B, id string) *harness.Table {
	b.Helper()
	exp, ok := harness.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	o := benchOptions()
	var table *harness.Table
	for i := 0; i < b.N; i++ {
		rs, err := runner.Run(context.Background(), exp.Plan(o), harness.Execute, runner.Options{Parallel: o.Parallel, Seed: o.Seed})
		if err == nil {
			err = rs.Err()
		}
		if err == nil {
			table, err = exp.Reduce(o, rs)
		}
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	if table != nil {
		b.Log("\n")
		table.Render(testWriter{b})
	}
	return table
}

// testWriter adapts the benchmark logger to io.Writer for table rendering.
type testWriter struct{ b *testing.B }

func (w testWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// BenchmarkTable4WriteSets regenerates Table IV (workload write-set sizes).
func BenchmarkTable4WriteSets(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFigure5Microbenchmarks regenerates Figure 5 (micro-benchmark
// throughput of every design normalized to SO).
func BenchmarkFigure5Microbenchmarks(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkTable5AbortRates regenerates Table V (abort rates of sdTM and DHTM).
func BenchmarkTable5AbortRates(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkFigure6LogBufferSweep regenerates Figure 6 (DHTM throughput on
// hash as a function of the log-buffer size).
func BenchmarkFigure6LogBufferSweep(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTable6OLTP regenerates Table VI (TPC-C and TATP throughput of SO,
// ATOM and DHTM).
func BenchmarkTable6OLTP(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkTable7Bandwidth regenerates Table VII (NP and DHTM vs memory
// bandwidth on hash).
func BenchmarkTable7Bandwidth(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkDurabilityCost regenerates the §VI.D analysis (cost of atomic
// durability: NP and idealised DHTM vs DHTM).
func BenchmarkDurabilityCost(b *testing.B) { runExperiment(b, "durability") }

// BenchmarkAblations runs the DHTM design-choice ablations called out in
// DESIGN.md (overflow support, log-buffer coalescing, conflict policy).
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkDHTMSimulation measures raw simulator throughput (simulated
// transactions per second of host time) for DHTM on the hash workload — a
// sanity check that the architectural model stays fast enough to sweep.
func BenchmarkDHTMSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := harness.Execute(runner.Cell{
			Design: harness.DesignDHTM, Workload: "hash", TxPerCore: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Committed), "simulated-tx/op")
	}
}

// BenchmarkAllDesignsOnHash compares the host cost of simulating each design
// on the same workload.
func BenchmarkAllDesignsOnHash(b *testing.B) {
	for _, d := range []string{harness.DesignSO, harness.DesignSdTM, harness.DesignATOM,
		harness.DesignLogTMATOM, harness.DesignNP, harness.DesignDHTM} {
		d := d
		b.Run(d, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.Execute(runner.Cell{
					Design: d, Workload: "hash", TxPerCore: 6,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadGeneration measures transaction generation alone (setup
// plus Next), confirming it is negligible next to the simulation itself.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, name := range registry.MicroWorkloadNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := registry.NewWorkload(name)
			if err != nil {
				b.Fatal(err)
			}
			heap := palloc.New(memdev.NewStore())
			if err := w.Setup(heap, workloads.Params{}.Defaults()); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w.Next(0, rng) == nil {
					b.Fatal("nil transaction")
				}
			}
		})
	}
}
