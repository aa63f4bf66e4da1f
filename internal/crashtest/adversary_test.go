package crashtest

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dhtm/internal/baselines"
	"dhtm/internal/memdev"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// TestAdversaryConfigValidate covers the adversary knob validation.
func TestAdversaryConfigValidate(t *testing.T) {
	for _, ok := range []AdversaryConfig{
		{}, {Window: 4}, {Window: 16, Mode: "sample", Samples: 32},
		{Window: 6, Mode: "exhaustive"}, {Window: 2, Mode: "auto"},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	for _, bad := range []AdversaryConfig{
		{Window: -1}, {Window: 17}, {Mode: "chaos"},
		{Window: 13, Mode: "exhaustive"}, {Samples: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if err := (Selection{Mode: "all", Mask: "0x3"}).Validate(); err == nil {
		t.Error("mask accepted outside point mode")
	}
	if err := (Selection{Mode: "point", Point: 1, Mask: "xyz"}).Validate(); err == nil {
		t.Error("unparseable mask accepted")
	}
	if err := (Selection{Mode: "point", Point: 1, Mask: "0x1f"}).Validate(); err != nil {
		t.Errorf("valid mask rejected: %v", err)
	}
}

// TestWindowZeroReportCompat pins the window-0 report schema to the
// pre-adversary one: a plain sweep must not grow any adversary-era JSON keys,
// so stored reports and their digests stay byte-compatible.
func TestWindowZeroReportCompat(t *testing.T) {
	rep, err := Explore(context.Background(), Config{
		Design: "DHTM", Workload: "queue", Cores: 2, TxPerCore: 1, OpsPerTx: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"adversary", "differential", "tasks", "commit_digests"} {
		if _, ok := m[key]; ok {
			t.Errorf("window-0 report leaks new key %q", key)
		}
	}
}

// TestReorderedSweepAndMaskReplay runs a small exhaustive window-2 sweep,
// checks every crash image recovers cleanly, then replays one reordered
// image through the point+mask repro path and checks it resolves to exactly
// one task.
func TestReorderedSweepAndMaskReplay(t *testing.T) {
	cfg := Config{
		Design: "DHTM", Workload: "queue", Cores: 2, TxPerCore: 1, OpsPerTx: 4,
		Adversary: AdversaryConfig{Window: 2, Mode: "exhaustive"},
	}
	rep, err := Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("window-2 sweep failed %d images; first: %+v\nrepro: %s", rep.Failed, rep.FirstFailure, rep.Repro)
	}
	if rep.Tasks <= rep.Explored {
		t.Fatalf("window-2 sweep fanned %d points into only %d tasks — the adversary never engaged", rep.Explored, rep.Tasks)
	}

	// Find a point with a non-empty window and replay one proper-subset mask.
	c := cfg.withDefaults()
	runSeed := c.RunSeed()
	run, err := c.countPass(runSeed)
	if err != nil {
		t.Fatal(err)
	}
	trace := run.trace
	points, err := pickPoints(len(trace), c.Points, runSeed)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := c.buildTasks(trace, points, runSeed)
	if err != nil {
		t.Fatal(err)
	}
	var pick *task
	for i := range tasks {
		if n := tasks[i].point - int(tasks[i].wStart); n > 0 && tasks[i].mask != 0 && tasks[i].mask != 1<<n-1 {
			pick = &tasks[i]
			break
		}
	}
	if pick == nil {
		t.Fatal("no proper-subset task in the sweep")
	}
	replayCfg := cfg
	replayCfg.Points = Selection{Mode: "point", Point: pick.point, Mask: fmt.Sprintf("%#x", pick.mask)}
	rrep, err := Explore(context.Background(), replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Explored != 1 || rrep.Tasks != 1 || rrep.Failed != 0 {
		t.Fatalf("mask replay: explored=%d tasks=%d failed=%d, want 1/1/0", rrep.Explored, rrep.Tasks, rrep.Failed)
	}

	// A mask with bits outside the point's window is rejected up front.
	replayCfg.Points.Mask = "0xffff"
	if _, err := Explore(context.Background(), replayCfg); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("oversized mask accepted: %v", err)
	}
}

// panicRuntime wraps a real runtime and panics on its nth Run call.
type panicRuntime struct {
	txn.Runtime
	mu    sync.Mutex
	calls int
	at    int
}

func (p *panicRuntime) Run(core int, c txn.Clock, tr *txn.Transaction) txn.ExecResult {
	p.mu.Lock()
	p.calls++
	n := p.calls
	p.mu.Unlock()
	if n == p.at {
		panic("seeded crashtest panic")
	}
	return p.Runtime.Run(core, c, tr)
}

// panicVerify wraps a workload whose Verify panics on its at-th call.
type panicVerify struct {
	workloads.Workload
	calls int
	at    int
}

func (p *panicVerify) Verify(st *memdev.Store) error {
	if p.calls++; p.calls == p.at {
		panic("seeded verify panic")
	}
	return p.Workload.Verify(st)
}

// TestPanicHardening checks that panics never take the process down: a
// runtime that panics partway through the exploration's one run makes
// Explore return that panic as an error; a panic while judging one crash
// image fails only that image, with its panic and mask, and the point's
// other images are still judged, from the reset arena, exactly as from a
// fresh one; and a normal exploration still runs cleanly afterwards — the
// shared snapshot was not corrupted — and reports the same the second time.
func TestPanicHardening(t *testing.T) {
	cfg := Config{
		Design: "ATOM", Workload: "queue", Cores: 2, TxPerCore: 2, OpsPerTx: 4,
		Adversary: AdversaryConfig{Window: 1, Mode: "exhaustive"},
		Points:    Selection{Mode: "stride", Samples: 6},
	}
	poisoned := cfg
	poisoned.Factory = func(env *txn.Env) (txn.Runtime, error) {
		return &panicRuntime{Runtime: baselines.NewATOM(env), at: 3}, nil
	}
	if _, err := Explore(context.Background(), poisoned); err == nil ||
		!strings.HasPrefix(err.Error(), "crashtest: panic: seeded crashtest panic") {
		t.Fatalf("a panicking run returned %v, want its panic as an error", err)
	}

	// Judge one fanned-out point with a workload whose Verify panics on the
	// point's first image.
	c, runSeed, run, tasks := testTasks(t, cfg)
	var group []task
	for i := 1; i < len(tasks) && group == nil; i++ {
		if tasks[i].point == tasks[i-1].point {
			group = tasks[i-1 : i+1]
		}
	}
	if group == nil {
		t.Fatal("no point fans out into several images")
	}
	pre := run.newCursor().preImage(group[0].wStart)
	out := make([]PointResult, len(group))
	judged := 0
	arena := new(memdev.Arena)
	c.judgePoint(runSeed, run, pre, &panicVerify{Workload: run.prep.Workload, at: 1}, group, nil, arena, out, func() { judged++ })
	if judged != len(group) {
		t.Fatalf("%d of %d images judged", judged, len(group))
	}
	if !strings.HasPrefix(out[0].Err, "panic: seeded verify panic") || out[0].Mask == "" {
		t.Fatalf("poisoned image: mask %q, error %q; want its mask and the panic", out[0].Mask, out[0].Err)
	}
	for _, r := range out[1:] {
		if r.Err != "" {
			t.Fatalf("image with mask %s failed after its sibling's panic: %s", r.Mask, r.Err)
		}
	}
	// The images after the panic were judged in the same arena, reset after
	// the panicking one: they must read exactly as on a fresh arena, and
	// the arena must judge on as well.
	for _, a := range []*memdev.Arena{new(memdev.Arena), arena} {
		want := make([]PointResult, len(group)-1)
		c.judgePoint(runSeed, run, pre, run.prep.Workload, group[1:], nil, a, want, func() {})
		if !reflect.DeepEqual(out[1:], want) {
			t.Fatalf("images judged after a panic in their arena: %+v, want %+v", out[1:], want)
		}
	}

	// The shared post-setup snapshot must be intact: the same configuration
	// explores cleanly, and twice in one process to the same report.
	var reps []*Report
	for range 2 {
		crep, err := Explore(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if crep.Failed != 0 {
			t.Fatalf("sweep after panics failed %d images: %+v", crep.Failed, crep.FirstFailure)
		}
		crep.ElapsedNS = 0
		reps = append(reps, crep)
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Fatalf("two explorations of one configuration differ:\n%+v\n%+v", reps[0], reps[1])
	}
}

// staleUndoConfig is the StaleUndoATOM fixture on hash, differential, with
// the given reordering window: 2 cores × 32 transactions of 8 operations at
// seed 4, whose schedule has a core re-log a line that a commit updated
// since the core first logged it. stale reports how many stale pre-images
// the last run built from the config handed out; the tests require it above
// zero, so a schedule change cannot make them pass without the bug firing.
func staleUndoConfig(window int) (cfg Config, stale func() int) {
	var fx *baselines.StaleUndoATOM
	cfg = Config{
		Design: "StaleUndoATOM", Workload: "hash", Cores: 2, TxPerCore: 32, OpsPerTx: 8,
		Seed:         4,
		Differential: true,
		Adversary:    AdversaryConfig{Window: window, Mode: "exhaustive"},
		Factory: func(env *txn.Env) (txn.Runtime, error) {
			fx = baselines.NewStaleUndoATOM(env)
			return fx, nil
		},
	}
	return cfg, func() int { return fx.Stale }
}

// checkStaleUndoCaught requires that the fixture handed out stale
// pre-images, that rep failed and that the differential oracle raised every
// failure, then that the same configuration without that oracle passes:
// every other oracle is blind to the seeded bug.
func checkStaleUndoCaught(t *testing.T, cfg Config, rep *Report, stale func() int) {
	t.Helper()
	if stale() == 0 {
		t.Fatal("the fixture handed out no stale pre-image: the schedule does not trigger the seeded bug")
	}
	if rep.Failed == 0 {
		t.Fatalf("differential oracle missed the stale-undo fixture's %d stale pre-images", stale())
	}
	for _, f := range rep.Failures {
		if !strings.HasPrefix(f.Err, "differential oracle:") {
			t.Fatalf("point %d caught by %q — the fixture is supposed to fool every non-differential oracle", f.Point, f.Err)
		}
	}
	blind := cfg
	blind.Differential = false
	brep, err := Explore(context.Background(), blind)
	if err != nil {
		t.Fatal(err)
	}
	if brep.Failed != 0 {
		t.Fatalf("non-differential sweep unexpectedly failed %d points: %+v", brep.Failed, brep.FirstFailure)
	}
}

// TestDifferentialCatchesStaleUndo is the oracle's teeth test: the
// StaleUndoATOM fixture reuses stale undo pre-images, which every
// self-referential oracle accepts — the recovered image is a structurally
// valid former state (Verify passes) and recovery faithfully applies the
// poisoned records it was given (the prefix oracle agrees, idempotency
// holds). The differential oracle's serial re-execution of the committed
// transactions catches it; without that oracle the same broken design sails
// through, the blindness the oracle exists to fix.
func TestDifferentialCatchesStaleUndo(t *testing.T) {
	cfg, stale := staleUndoConfig(0)
	rep, err := Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStaleUndoCaught(t, cfg, rep, stale)
	if !strings.Contains(rep.Repro, "-differential") {
		t.Errorf("repro command misses -differential: %s", rep.Repro)
	}
}

// TestCrossCheck covers the report-level differential comparison.
func TestCrossCheck(t *testing.T) {
	mk := func(design, digest string) *Report {
		return &Report{
			Design: design, Workload: "hash", Cores: 2, TxPerCore: 2, RunSeed: 99,
			Differential:  true,
			CommitDigests: map[string]string{"0:1,1:1": digest},
		}
	}
	if err := CrossCheck([]*Report{mk("DHTM", "aa"), mk("ATOM", "aa")}); err != nil {
		t.Fatalf("agreeing designs flagged: %v", err)
	}
	err := CrossCheck([]*Report{mk("DHTM", "aa"), mk("ATOM", "bb")})
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("disagreeing designs not flagged: %v", err)
	}
	// Different run seeds are different experiments, never compared.
	other := mk("ATOM", "bb")
	other.RunSeed = 100
	if err := CrossCheck([]*Report{mk("DHTM", "aa"), other}); err != nil {
		t.Fatalf("distinct run seeds compared: %v", err)
	}
	// Non-differential reports are ignored.
	plain := mk("ATOM", "bb")
	plain.Differential = false
	if err := CrossCheck([]*Report{mk("DHTM", "aa"), plain}); err != nil {
		t.Fatalf("non-differential report compared: %v", err)
	}
}

// TestDifferentialSweepAgrees runs the differential oracle over two real
// designs on the same (design-independent) seed and checks both sweeps pass
// and CrossCheck accepts them — recovered heaps agree wherever the designs
// observed the same committed sequence.
func TestDifferentialSweepAgrees(t *testing.T) {
	var reports []*Report
	for _, d := range []string{"DHTM", "LogTM-ATOM"} {
		cfg := Config{
			Design: d, Workload: "hash", Cores: 2, TxPerCore: 2, OpsPerTx: 4,
			Adversary:    AdversaryConfig{Window: 2, Mode: "exhaustive"},
			Differential: true,
		}
		rep, err := Explore(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%s: %d failures; first: %+v", d, rep.Failed, rep.FirstFailure)
		}
		if len(rep.CommitDigests) == 0 {
			t.Fatalf("%s: differential sweep recorded no digests", d)
		}
		reports = append(reports, rep)
	}
	if reports[0].RunSeed != reports[1].RunSeed {
		t.Fatalf("differential run seeds diverged: %d vs %d", reports[0].RunSeed, reports[1].RunSeed)
	}
	if err := CrossCheck(reports); err != nil {
		t.Fatal(err)
	}
}

// TestTortureSummaryUnits checks that the failure summary of a failing
// exploration counts in the unit Failed counts: crash points at window 0,
// crash images — over Tasks, not Explored — once a reordering window fans
// each point out.
func TestTortureSummaryUnits(t *testing.T) {
	for _, window := range []int{0, 1} {
		cfg, stale := staleUndoConfig(window)
		rep, err := Explore(context.Background(), cfg)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if rep.Failed == 0 {
			t.Fatalf("window %d: stale-undo fixture passed", window)
		}
		checkStaleUndoCaught(t, cfg, rep, stale)
		want := fmt.Sprintf("%d of %d crash points failed", rep.Failed, rep.Explored)
		if window > 0 {
			if rep.Tasks <= rep.Explored {
				t.Fatalf("window %d: %d images for %d points — no fan-out to tell the units apart", window, rep.Tasks, rep.Explored)
			}
			want = fmt.Sprintf("%d of %d crash images failed", rep.Failed, rep.Tasks)
		}
		if got := rep.FailureSummary(); got != want {
			t.Errorf("window %d: summary %q, want %q", window, got, want)
		}
	}
}
