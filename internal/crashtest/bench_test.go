package crashtest

import (
	"context"
	"testing"
)

// BenchmarkCrashExplore measures exhaustive crash exploration of DHTM on hash
// (4 cores × 1 transaction) under a reorder window of 2 with the
// differential oracle on — the shape of the benchmark's crash workload — and
// reports crash images explored per op.
func BenchmarkCrashExplore(b *testing.B) {
	b.ReportAllocs()
	cfg := Config{
		Design: "DHTM", Workload: "hash", Cores: 4, TxPerCore: 1,
		Adversary:    AdversaryConfig{Window: 2, Mode: "exhaustive"},
		Differential: true,
	}
	images := 0
	for i := 0; i < b.N; i++ {
		rep, err := Explore(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed != 0 {
			b.Fatalf("%d crash images failed; first: %+v", rep.Failed, rep.FirstFailure)
		}
		images = rep.Tasks
	}
	b.ReportMetric(float64(images), "images/op")
}
