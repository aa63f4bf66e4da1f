package dhtm_test

import (
	"context"
	"reflect"
	"testing"

	"dhtm/internal/crashtest"
)

// TestTortureExhaustive is the crash-point sweep: for DHTM, the L1-limited
// DHTM-L1, DHTM-nobuf (one redo record per store) and ATOM on the hash and
// queue micro-benchmarks (4 cores), every
// durable write of the run is a crash point; the explorer crashes, recovers
// and judges each one against the three oracles (workload invariants,
// trace-derived prefix consistency, recovery idempotency). In -short mode a
// strided sample stands in for the full space.
func TestTortureExhaustive(t *testing.T) {
	sel := crashtest.Selection{Mode: "all"}
	if testing.Short() {
		sel = crashtest.Selection{Mode: "stride", Samples: 64}
	}
	for _, design := range []string{"DHTM", "DHTM-L1", "DHTM-nobuf", "ATOM"} {
		for _, workload := range []string{"hash", "queue"} {
			design, workload := design, workload
			t.Run(design+"/"+workload, func(t *testing.T) {
				t.Parallel()
				rep, err := crashtest.Torture(context.Background(), crashtest.Config{
					Design: design, Workload: workload,
					Cores: 4, TxPerCore: 2, OpsPerTx: 8,
					Points: sel,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.TotalPoints == 0 || rep.Explored == 0 {
					t.Fatalf("empty exploration: %d points, %d explored", rep.TotalPoints, rep.Explored)
				}
				// The space must include points where recovery has real work:
				// a crash between a commit record and completion forces replay.
				replayed := 0
				for r, n := range rep.ReplayHist {
					if r > 0 {
						replayed += n
					}
				}
				if replayed == 0 {
					t.Errorf("no crash point required replay; the event space misses the commit window")
				}
				if design == "ATOM" {
					rolled := 0
					for r, n := range rep.RollbackHist {
						if r > 0 {
							rolled += n
						}
					}
					if rolled == 0 {
						t.Errorf("no ATOM crash point required rollback; the event space misses mid-transaction windows")
					}
				}
			})
		}
	}
}

// TestTortureLogTMATOM explores every crash point of LogTM-ATOM on queue and
// rbtree at 4 cores x 4 tx, the size at which it used to fail: it released
// its write set before its commit record was durable, and its fallback
// wrote redo records into a log its hardware transactions fill with undo
// records. Both now go through ATOM's undo sequence. In -short mode a
// strided sample stands in for the full space.
func TestTortureLogTMATOM(t *testing.T) {
	sel := crashtest.Selection{Mode: "all"}
	if testing.Short() {
		sel = crashtest.Selection{Mode: "stride", Samples: 64}
	}
	for _, workload := range []string{"queue", "rbtree"} {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			t.Parallel()
			rep, err := crashtest.Torture(context.Background(), crashtest.Config{
				Design: "LogTM-ATOM", Workload: workload,
				Cores: 4, TxPerCore: 4, Seed: 42,
				Points: sel,
			})
			if err != nil {
				t.Fatal(err)
			}
			rolled := 0
			for r, n := range rep.RollbackHist {
				if r > 0 {
					rolled += n
				}
			}
			if rolled == 0 {
				t.Errorf("no crash point required rollback; the event space misses mid-transaction windows")
			}
		})
	}
}

// TestTortureTorn spot-checks torn-line mode: at sampled points a seed-derived
// prefix of the in-flight write reaches memory, and recovery must still
// satisfy every oracle (multi-word log records are protected by the
// head-pointer persist that follows them; torn data lines are repaired by redo
// replay or undo rollback).
func TestTortureTorn(t *testing.T) {
	for _, design := range []string{"DHTM", "ATOM"} {
		design := design
		t.Run(design, func(t *testing.T) {
			t.Parallel()
			if _, err := crashtest.Torture(context.Background(), crashtest.Config{
				Design: design, Workload: "queue",
				Cores: 4, TxPerCore: 2, OpsPerTx: 8, Torn: true,
				Points: crashtest.Selection{Mode: "stride", Samples: 96},
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTortureReordered is the relaxed-persistency sweep: the persist-queue
// adversary fans each crash point of DHTM and LogTM-ATOM (one redo design,
// one undo design) out into every subset of a 2-write reordering window, and
// every resulting crash image must still satisfy all oracles — including the
// differential one, which re-executes the committed transactions serially and
// demands the recovered heap match. In -short mode a strided sample of points
// stands in for the full space; the subset fan-out per point stays exhaustive.
func TestTortureReordered(t *testing.T) {
	sel := crashtest.Selection{Mode: "all"}
	if testing.Short() {
		sel = crashtest.Selection{Mode: "stride", Samples: 48}
	}
	for _, design := range []string{"DHTM", "LogTM-ATOM"} {
		for _, workload := range []string{"hash", "queue"} {
			design, workload := design, workload
			t.Run(design+"/"+workload, func(t *testing.T) {
				t.Parallel()
				rep, err := crashtest.Torture(context.Background(), crashtest.Config{
					Design: design, Workload: workload,
					Cores: 2, TxPerCore: 2, OpsPerTx: 4,
					Adversary:    crashtest.AdversaryConfig{Window: 2, Mode: "exhaustive"},
					Differential: true,
					Points:       sel,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Tasks <= rep.Explored {
					t.Errorf("adversary never engaged: %d points expanded to %d crash images",
						rep.Explored, rep.Tasks)
				}
				if len(rep.CommitDigests) == 0 {
					t.Error("differential sweep recorded no commit digests")
				}
			})
		}
	}
}

// TestTortureReproducesPoint checks the repro contract behind the reported
// commands: exploring one point twice — as dhtm-crashtest -point does — must
// yield identical results, including the recovery report counts and the torn
// prefix length.
func TestTortureReproducesPoint(t *testing.T) {
	cfg := crashtest.Config{
		Design: "DHTM", Workload: "queue",
		Cores: 4, TxPerCore: 2, OpsPerTx: 8, Torn: true,
	}
	probe, err := crashtest.Explore(context.Background(), withPoints(cfg, crashtest.Selection{Mode: "stride", Samples: 1}))
	if err != nil {
		t.Fatal(err)
	}
	point := probe.TotalPoints / 2
	var runs []*crashtest.Report
	for i := 0; i < 2; i++ {
		rep, err := crashtest.Explore(context.Background(), withPoints(cfg, crashtest.Selection{Mode: "point", Point: point}))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Explored != 1 {
			t.Fatalf("explored %d points, want exactly 1", rep.Explored)
		}
		runs = append(runs, rep)
	}
	if !reflect.DeepEqual(runs[0].ReplayHist, runs[1].ReplayHist) ||
		!reflect.DeepEqual(runs[0].RollbackHist, runs[1].RollbackHist) ||
		runs[0].Failed != runs[1].Failed {
		t.Fatalf("point %d is not reproducible:\nfirst:  %+v\nsecond: %+v", point, runs[0], runs[1])
	}
	if runs[0].RunSeed != runs[1].RunSeed || runs[0].RunSeed == 0 {
		t.Fatalf("run seeds differ or are zero: %d vs %d", runs[0].RunSeed, runs[1].RunSeed)
	}
}

// withPoints returns cfg with the given point selection.
func withPoints(cfg crashtest.Config, sel crashtest.Selection) crashtest.Config {
	cfg.Points = sel
	return cfg
}
