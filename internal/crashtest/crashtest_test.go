package crashtest

import (
	"context"
	"strings"
	"testing"
)

// TestPickPoints covers the selection modes over a small space.
func TestPickPoints(t *testing.T) {
	all, err := pickPoints(5, Selection{Mode: "all"}, 1)
	if err != nil || len(all) != 5 || all[0] != 0 || all[4] != 4 {
		t.Fatalf("all: %v %v", all, err)
	}
	strided, err := pickPoints(10, Selection{Mode: "stride", Stride: 4}, 1)
	if err != nil || len(strided) != 3 || strided[2] != 8 {
		t.Fatalf("stride: %v %v", strided, err)
	}
	derived, err := pickPoints(100, Selection{Mode: "stride", Samples: 10}, 1)
	if err != nil || len(derived) != 10 {
		t.Fatalf("stride via samples: %v %v", derived, err)
	}
	rnd, err := pickPoints(100, Selection{Mode: "random", Samples: 7}, 42)
	if err != nil || len(rnd) != 7 {
		t.Fatalf("random: %v %v", rnd, err)
	}
	for i := 1; i < len(rnd); i++ {
		if rnd[i] <= rnd[i-1] {
			t.Fatalf("random points not sorted/unique: %v", rnd)
		}
	}
	rnd2, _ := pickPoints(100, Selection{Mode: "random", Samples: 7}, 42)
	for i := range rnd {
		if rnd[i] != rnd2[i] {
			t.Fatalf("random selection not seed-deterministic: %v vs %v", rnd, rnd2)
		}
	}
	single, err := pickPoints(10, Selection{Mode: "point", Point: 3}, 1)
	if err != nil || len(single) != 1 || single[0] != 3 {
		t.Fatalf("point: %v %v", single, err)
	}
	if _, err := pickPoints(10, Selection{Mode: "point", Point: 10}, 1); err == nil {
		t.Fatalf("out-of-range point accepted")
	}
	// Selections no event space can resolve are Validate's to reject.
	for _, bad := range []Selection{{Mode: "bogus"}, {Mode: "stride"}, {Mode: "random"}, {Mode: "point", Point: -1}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v accepted", bad)
		}
	}
	if _, err := pickPoints(0, Selection{Mode: "all"}, 1); err == nil {
		t.Fatalf("empty event space accepted")
	}
}

// TestUnsupportedDesign checks the explorer refuses designs whose durability
// recovery cannot replay (SO's software log truncates before data persists).
func TestUnsupportedDesign(t *testing.T) {
	_, err := Explore(context.Background(), Config{Design: "SO", Workload: "queue"})
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("SO accepted: %v", err)
	}
}

// TestExploreSmall runs a tiny exhaustive exploration end to end and checks
// the report's bookkeeping is coherent.
func TestExploreSmall(t *testing.T) {
	rep, err := Explore(context.Background(), Config{
		Design: "DHTM", Workload: "queue", Cores: 2, TxPerCore: 1, OpsPerTx: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("oracle failures on a tiny sweep: %+v", rep.Failures)
	}
	if rep.Explored != rep.TotalPoints {
		t.Fatalf("exhaustive mode explored %d of %d points", rep.Explored, rep.TotalPoints)
	}
	classTotal := 0
	for _, n := range rep.EventsByClass {
		classTotal += n
	}
	if classTotal != rep.TotalPoints {
		t.Fatalf("class histogram sums to %d, want %d", classTotal, rep.TotalPoints)
	}
	histTotal := 0
	for _, n := range rep.ReplayHist {
		histTotal += n
	}
	if histTotal != rep.Explored {
		t.Fatalf("replay histogram sums to %d, want %d", histTotal, rep.Explored)
	}
	if rep.RunSeed == 0 || rep.RunSeed == rep.BaseSeed {
		t.Fatalf("run seed not derived: base=%d run=%d", rep.BaseSeed, rep.RunSeed)
	}
}

// TestReproCommand checks a failure's repro command round-trips the
// configuration.
func TestReproCommand(t *testing.T) {
	cfg := Config{Design: "ATOM", Workload: "hash", Cores: 4, TxPerCore: 2, OpsPerTx: 8, Seed: 7, Torn: true}
	got := cfg.reproCommand(PointResult{Point: 123})
	want := "dhtm-crashtest -design ATOM -workload hash -cores 4 -tx 2 -ops 8 -seed 7 -torn -point 123"
	if got != want {
		t.Fatalf("repro command:\ngot  %s\nwant %s", got, want)
	}
	cfg.Adversary = AdversaryConfig{Window: 3}
	cfg.Differential = true
	got = cfg.reproCommand(PointResult{Point: 123, Window: 2, Mask: "0x2"})
	want += " -window 3 -mask 0x2"
	want = strings.Replace(want, " -point", " -differential -point", 1)
	if got != want {
		t.Fatalf("adversary repro command:\ngot  %s\nwant %s", got, want)
	}
}
