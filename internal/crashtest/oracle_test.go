package crashtest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dhtm/internal/baselines"
	"dhtm/internal/memdev"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// naiveDiffHeap is the reference diffHeap: two full passes over every
// populated line, got's then want's, reading the other image line by line.
func naiveDiffHeap(got, want *memdev.Store) string {
	var msg string
	scan := func(a, b *memdev.Store, flipped bool) {
		a.ForEachLine(func(addr uint64, data memdev.Line) {
			if msg != "" || addr < wal.HeapBase {
				return
			}
			other := b.ReadLine(addr)
			for i := range data {
				if data[i] != other[i] {
					g, w := data[i], other[i]
					if flipped {
						g, w = w, g
					}
					msg = fmt.Sprintf("heap word %#x: recovered %#x, reference %#x", addr+uint64(i*8), g, w)
					return
				}
			}
		})
	}
	scan(got, want, false)
	if msg == "" {
		scan(want, got, true)
	}
	return msg
}

// scribble writes n random lines into st: mostly heap lines near populated
// ones, some all-zero, some below wal.HeapBase, some overwriting existing
// lines.
func scribble(rng *rand.Rand, st *memdev.Store, hot []uint64, n int) {
	for i := 0; i < n; i++ {
		var addr uint64
		switch rng.Intn(4) {
		case 0:
			addr = hot[rng.Intn(len(hot))]
		case 1:
			addr = wal.LogRegionBase + uint64(rng.Intn(1<<14))*memdev.LineBytes
		default:
			addr = wal.HeapBase + uint64(rng.Intn(1<<16))*memdev.LineBytes
		}
		var data memdev.Line
		if rng.Intn(4) != 0 {
			data[rng.Intn(memdev.WordsPerLine)] = rng.Uint64()
		}
		st.WriteLine(addr, data)
	}
}

// heapLines lists the populated heap line addresses of st.
func heapLines(st *memdev.Store) []uint64 {
	var out []uint64
	st.ForEachLine(func(addr uint64, _ memdev.Line) {
		if addr >= wal.HeapBase {
			out = append(out, addr)
		}
	})
	return out
}

// testSetupImage returns a frozen copy of the post-setup image of a small
// differential hash exploration.
func testSetupImage(t *testing.T) *memdev.Store {
	t.Helper()
	_, _, run := testPass(t, Config{Design: "DHTM", Workload: "hash", Cores: 2, TxPerCore: 2, OpsPerTx: 4, Differential: true})
	return frozenClone(run.prep.NewStore())
}

// TestIncrementalDigestMatchesHeapDigest checks advanceDigest, the step
// that keeps the differential context's digests current, against a full
// heapDigest walk, for clones of the post-setup snapshot, clones of clones,
// images sharing nothing with it and a real serial re-execution.
func TestIncrementalDigestMatchesHeapDigest(t *testing.T) {
	base := testSetupImage(t)
	hot := heapLines(base)
	if len(hot) == 0 {
		t.Fatal("post-setup image has no heap lines")
	}
	from := heapDigest(base)
	rng := rand.New(rand.NewSource(1))
	check := func(name string, st *memdev.Store) {
		t.Helper()
		if got, want := advanceDigest(from, base, st), heapDigest(st); got != want {
			t.Fatalf("%s: incremental digest %016x, full walk %016x", name, got, want)
		}
	}
	check("untouched clone", base.Clone())
	for round := 0; round < 20; round++ {
		a := base.Clone()
		scribble(rng, a, hot, 1+rng.Intn(64))
		check(fmt.Sprintf("round %d clone", round), a)
		b := a.Clone()
		scribble(rng, b, hot, rng.Intn(16))
		check(fmt.Sprintf("round %d clone of clone", round), b)
		check(fmt.Sprintf("round %d source after clone", round), a)

		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			t.Fatal(err)
		}
		unshared := memdev.NewStore()
		if err := unshared.Load(&buf); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d reloaded", round), unshared)
	}
	_, _, dc := testDiffCtxOf(t, Config{Design: "DHTM", Workload: "hash", Cores: 2, TxPerCore: 2, OpsPerTx: 4})
	for m, replay := range dc.replays {
		check(fmt.Sprintf("replay of %d commits", m), replay)
	}
}

// TestDiffHeapMatchesNaive checks the shared-leaf-skipping diffHeap reports
// exactly what the naive two-pass walk reports, on random image pairs with a
// common ancestor and on the ordering corner case: a want-only mismatch at a
// lower address than a mismatch on a line got populated must still lose to
// the got-side one, because got's pass runs first.
func TestDiffHeapMatchesNaive(t *testing.T) {
	base := testSetupImage(t)
	hot := heapLines(base)
	rng := rand.New(rand.NewSource(2))
	mismatches := 0
	for round := 0; round < 200; round++ {
		got := base.Clone()
		want := base.Clone()
		scribble(rng, got, hot, rng.Intn(8))
		if rng.Intn(2) == 0 {
			want = got.Clone()
		}
		scribble(rng, want, hot, rng.Intn(8))
		fast, naive := diffHeap(got, want), naiveDiffHeap(got, want)
		if fast != naive {
			t.Fatalf("round %d: diffHeap %q, naive %q", round, fast, naive)
		}
		if fast != "" {
			mismatches++
		}
	}
	if mismatches == 0 {
		t.Fatal("no round produced a mismatch")
	}

	got := base.Clone()
	want := base.Clone()
	// Both lines lie past everything the setup image populated.
	low := hot[len(hot)-1] + 64*memdev.LineBytes
	high := low + 0x10_0000
	want.WriteLine(low, memdev.Line{1})    // want-only, lower address
	got.WriteLine(high, memdev.Line{0, 2}) // got-populated, higher address
	wantMsg := fmt.Sprintf("heap word %#x: recovered 0x2, reference 0x0", high+8)
	if d := diffHeap(got, want); d != wantMsg || naiveDiffHeap(got, want) != wantMsg {
		t.Fatalf("diffHeap %q, naive %q, want %q", d, naiveDiffHeap(got, want), wantMsg)
	}
}

// TestGroupedExplorationMatchesPerTask checks that shared pre-images change
// nothing: exploring every crash image on its own through the -point/-mask
// repro path, each from its own replay of the trace, and merging the reports
// yields the report Explore gives, with a point's masks sharing its
// pre-image, digests included.
func TestGroupedExplorationMatchesPerTask(t *testing.T) {
	cfg := Config{
		Design: "DHTM", Workload: "queue", Cores: 2, TxPerCore: 2, OpsPerTx: 4,
		Adversary:    AdversaryConfig{Window: 2, Mode: "exhaustive"},
		Differential: true,
	}
	grouped, err := Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	grouped.ElapsedNS = 0

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
	if len(tasks) <= len(points) {
		t.Fatalf("%d images for %d points: no point fans out", len(tasks), len(points))
	}

	perTask := *grouped
	perTask.Failed, perTask.Failures, perTask.FirstFailure, perTask.Repro = 0, nil, nil, ""
	perTask.ReplayHist, perTask.RollbackHist = map[int]int{}, map[int]int{}
	perTask.CommitDigests = map[string]string{}
	for _, tk := range tasks {
		one := cfg
		one.Points = Selection{Mode: "point", Point: tk.point, Mask: fmt.Sprintf("%#x", tk.mask)}
		rep, err := Explore(context.Background(), one)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Explored != 1 || rep.Tasks != 1 || rep.TotalPoints != grouped.TotalPoints ||
			!reflect.DeepEqual(rep.EventsByClass, grouped.EventsByClass) {
			t.Fatalf("point %d mask %#x: explored %d, tasks %d, %d total points: not one image of the same space",
				tk.point, tk.mask, rep.Explored, rep.Tasks, rep.TotalPoints)
		}
		perTask.Failed += rep.Failed
		perTask.Failures = append(perTask.Failures, rep.Failures...)
		if perTask.FirstFailure == nil && rep.FirstFailure != nil {
			perTask.FirstFailure, perTask.Repro = rep.FirstFailure, rep.Repro
		}
		for r, n := range rep.ReplayHist {
			perTask.ReplayHist[r] += n
		}
		for r, n := range rep.RollbackHist {
			perTask.RollbackHist[r] += n
		}
		for key, d := range rep.CommitDigests {
			if prev, ok := perTask.CommitDigests[key]; ok && prev != d {
				t.Fatalf("commit sequence %q recovered to digests %s and %s", key, prev, d)
			}
			perTask.CommitDigests[key] = d
		}
	}
	if !reflect.DeepEqual(grouped, &perTask) {
		t.Fatalf("grouped and per-task exploration differ:\ngrouped  %+v\nper-task %+v", grouped, &perTask)
	}
}

// divergeRuntime wraps a real runtime and, on its at-th Run call, first
// writes the store directly, behind the controller, so the write reaches the
// durable image without a persist event.
type divergeRuntime struct {
	txn.Runtime
	env   *txn.Env
	calls int
	at    int
}

func (d *divergeRuntime) Run(core int, c txn.Clock, tr *txn.Transaction) txn.ExecResult {
	if d.calls++; d.calls == d.at {
		d.env.Store().WriteWord(wal.HeapBase+1<<26, 0xd1e5)
	}
	return d.Runtime.Run(core, c, tr)
}

// TestIncompleteTraceFailsExploration checks the guard every crash image
// relies on: a durable write that bypasses the persist observer leaves the
// trace short of the run's final image, and Explore fails instead of
// judging images the run never had.
func TestIncompleteTraceFailsExploration(t *testing.T) {
	cfg := Config{
		Design: "ATOM", Workload: "queue", Cores: 2, TxPerCore: 2, OpsPerTx: 4,
		Factory: func(env *txn.Env) (txn.Runtime, error) {
			return &divergeRuntime{Runtime: baselines.NewATOM(env), env: env, at: 3}, nil
		},
	}
	_, err := Explore(context.Background(), cfg)
	if err == nil || err.Error() != "crashtest: the persist trace does not reproduce the run's final image" {
		t.Fatalf("exploration of an incomplete trace returned %v", err)
	}
}

// TestParseTraceRejectsMixedLogging feeds parseTrace a trace in which one
// transaction logs redo records and another undo records. The reference
// image replays committed redo over everything in persist order, which is
// sound only when one logging discipline writes the whole trace, so the
// parse must fail; each half alone parses.
func TestParseTraceRejectsMixedLogging(t *testing.T) {
	appendRecs := func(trace []traceEvent, recs ...wal.Record) []traceEvent {
		for _, r := range recs {
			trace = append(trace, traceEvent{class: r.Type.TrafficClass(), words: r.Encode()})
			trace = append(trace, traceEvent{class: memdev.TrafficLogMeta, words: []uint64{0}})
		}
		return trace
	}
	redo := appendRecs(nil,
		wal.Record{Type: wal.RecRedo, Thread: 0, TxID: 1, LineAddr: wal.HeapBase, Data: memdev.Line{1}},
		wal.Record{Type: wal.RecCommit, Thread: 0, TxID: 1})
	undo := appendRecs(nil,
		wal.Record{Type: wal.RecUndo, Thread: 1, TxID: 1, LineAddr: wal.HeapBase, Data: memdev.Line{1}},
		wal.Record{Type: wal.RecCommit, Thread: 1, TxID: 1})
	for name, trace := range map[string][]traceEvent{"redo": redo, "undo": undo} {
		if info, err := parseTrace(trace).prefix(len(trace)); err != nil || len(info.commits) != 1 {
			t.Errorf("%s-only trace: info %+v, err %v", name, info, err)
		}
	}
	mixed := append(append([]traceEvent(nil), redo...), undo...)
	_, err := parseTrace(mixed).prefix(len(mixed))
	if err == nil || !strings.Contains(err.Error(), "both redo and undo") {
		t.Fatalf("mixed trace parsed with err = %v, want a mixed-logging error", err)
	}
}
