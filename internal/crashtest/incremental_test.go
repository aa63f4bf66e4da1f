package crashtest

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dhtm/internal/memdev"
	"dhtm/internal/recovery"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
	"dhtm/internal/workloads"
)

// incrementalConfigs are a redo-logging (DHTM) and an undo-logging (ATOM)
// exploration whose points fan out into reordered and torn crash images.
var incrementalConfigs = []Config{
	{Design: "DHTM", Workload: "hash", Cores: 2, TxPerCore: 2, OpsPerTx: 4, Torn: true,
		Adversary: AdversaryConfig{Window: 2, Mode: "exhaustive"}},
	{Design: "ATOM", Workload: "queue", Cores: 2, TxPerCore: 2, OpsPerTx: 4, Torn: true,
		Adversary: AdversaryConfig{Window: 2, Mode: "exhaustive"}},
}

// testPass runs cfg's counting pass.
func testPass(t *testing.T, cfg Config) (Config, int64, *pass) {
	t.Helper()
	c := cfg.withDefaults()
	runSeed := c.RunSeed()
	run, err := c.countPass(runSeed)
	if err != nil {
		t.Fatal(err)
	}
	return c, runSeed, run
}

// testTasks runs cfg's counting pass and fans its selected points out into
// crash images.
func testTasks(t *testing.T, cfg Config) (Config, int64, *pass, []task) {
	t.Helper()
	c, runSeed, run := testPass(t, cfg)
	points, err := pickPoints(len(run.trace), c.Points, runSeed)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := c.buildTasks(run.trace, points, runSeed)
	if err != nil {
		t.Fatal(err)
	}
	return c, runSeed, run, tasks
}

// forEachCrashImage calls f with every crash image, unrecovered, that an
// exploration of cfg judges, together with its point's context: the
// pre-image a cursor built, the decoding of the point's trace prefix and, in
// differential mode, the exploration's differential context. The image and
// every clone f makes of it live until f returns.
func forEachCrashImage(t *testing.T, cfg Config, f func(pt *pointCtx, img *memdev.Store)) {
	t.Helper()
	c, runSeed, run, tasks := testTasks(t, cfg)
	var dc *diffCtx
	if c.Differential {
		var err error
		if dc, err = c.newDiffCtx(run); err != nil {
			t.Fatal(err)
		}
	}
	cur := run.newCursor()
	arena := new(memdev.Arena)
	var pt *pointCtx
	for _, tk := range tasks {
		if pt == nil || pt.point != tk.point {
			pt = &pointCtx{trace: run.trace, point: tk.point, pre: cur.preImage(tk.wStart), dc: dc, arena: arena}
			pt.info, pt.infoErr = run.txs.prefix(tk.point)
		}
		f(pt, pt.crashImage(tk, c.tornWords(runSeed, run.trace, tk.point)))
		arena.Reset()
	}
}

// writtenLine is one line of a store's ForEachLine walk.
type writtenLine struct {
	addr uint64
	data memdev.Line
}

// lines lists every line st ever wrote, in address order.
func lines(st *memdev.Store) []writtenLine {
	var out []writtenLine
	st.ForEachLine(func(addr uint64, data memdev.Line) {
		out = append(out, writtenLine{addr, data})
	})
	return out
}

// TestCursorPreImagesMatchSerialReplay checks every pre-image a judging
// worker's cursor freezes against a serial replay of the trace, at every
// window start of a W=2 exhaustive exploration: for one cursor taking every
// point, for cursors taking every second or third point as the workers of a
// pool do, and for one sent back to an earlier window start, which replays
// from the start image again.
func TestCursorPreImagesMatchSerialReplay(t *testing.T) {
	for _, cfg := range incrementalConfigs {
		_, _, run, tasks := testTasks(t, cfg)
		// serial[i] is the image holding writes [0, i).
		serial := []*memdev.Store{frozenClone(run.start)}
		st := run.start.Clone()
		for _, ev := range run.trace {
			applyEvent(st, ev)
			serial = append(serial, frozenClone(st))
		}
		var starts []uint64
		for i, tk := range tasks {
			if i == 0 || tk.point != tasks[i-1].point {
				starts = append(starts, tk.wStart)
			}
		}
		if len(starts) < 3 || starts[0] == starts[len(starts)-1] {
			t.Fatalf("%s: %d window starts, from %d to %d", cfg.Design, len(starts), starts[0], starts[len(starts)-1])
		}
		check := func(cur *cursor, wStart uint64) {
			t.Helper()
			if !slices.Equal(lines(cur.preImage(wStart)), lines(serial[wStart])) {
				t.Fatalf("%s: pre-image at window start %d differs from the serial replay", cfg.Design, wStart)
			}
		}
		for workers := 1; workers <= 3; workers++ {
			for w := range workers {
				cur := run.newCursor()
				for g := w; g < len(starts); g += workers {
					check(cur, starts[g])
				}
			}
		}
		cur := run.newCursor()
		check(cur, starts[len(starts)-1])
		check(cur, starts[1])
	}
}

// decodedTx is one transaction's state in a decoded trace prefix.
type decodedTx struct {
	committed, aborted bool
	undo               []wal.Record
}

// decoded is everything a trace-prefix decoding tells the oracles.
type decoded struct {
	err     string
	redo    []redoEntry
	commits []txKey
	txs     map[txKey]decodedTx
}

// decode flattens the prefix view of t at k into comparable form.
func decode(t *traceTxs, k int) decoded {
	p, err := t.prefix(k)
	if err != nil {
		return decoded{err: err.Error()}
	}
	d := decoded{txs: make(map[txKey]decodedTx)}
	// Empty and nil slices decode alike.
	d.redo = append(d.redo, p.redo...)
	d.commits = append(d.commits, p.commits...)
	for key, st := range t.txs {
		var tx decodedTx
		tx.committed, tx.aborted = st.commitAt < k, st.abortAt < k
		for i, at := range st.undoAt {
			if at < k {
				tx.undo = append(tx.undo, st.undo[i])
			}
		}
		if tx.committed || tx.aborted || len(tx.undo) > 0 {
			d.txs[key] = tx
		}
	}
	return d
}

// TestTracePrefixViewMatchesDirectDecode checks that the view of the whole
// trace's one parse at every prefix k equals a decode of trace[:k] alone,
// for a redo-logged and an undo-logged trace.
func TestTracePrefixViewMatchesDirectDecode(t *testing.T) {
	for _, cfg := range incrementalConfigs {
		_, _, run := testPass(t, cfg)
		full := decode(run.txs, len(run.trace))
		if full.err != "" || len(full.commits) != cfg.Cores*cfg.TxPerCore {
			t.Fatalf("%s: whole trace decodes to %d commits, err %q", cfg.Design, len(full.commits), full.err)
		}
		undo := false
		for _, tx := range full.txs {
			undo = undo || len(tx.undo) > 0
		}
		if undo == (len(full.redo) > 0) {
			t.Fatalf("%s: whole trace has %d redo records and undo %v: not one logging discipline", cfg.Design, len(full.redo), undo)
		}
		for k := 0; k <= len(run.trace); k++ {
			view, direct := decode(run.txs, k), decode(parseTrace(run.trace[:k]), k)
			if !reflect.DeepEqual(view, direct) {
				t.Fatalf("%s: prefix %d: view %+v, direct decode %+v", cfg.Design, k, view, direct)
			}
		}
	}
}

// serialReplay re-executes the first m commits of run's committed sequence
// from scratch, each thread's j-th commit as the j-th transaction its stream
// generates, on a fresh clone of the post-setup store.
func serialReplay(t *testing.T, c Config, run *pass, commits []txKey) *memdev.Store {
	t.Helper()
	gen := make([][]*txn.Transaction, c.Cores)
	for core := range gen {
		next := workloads.Stream(run.prep.Workload, run.prep.Params, core)
		for range c.TxPerCore {
			gen[core] = append(gen[core], next())
		}
	}
	st := run.prep.NewStore()
	rank := make(map[int]int)
	for _, k := range commits {
		if err := gen[k.thread][rank[k.thread]].Body(txn.DirectTx{Store: st}); err != nil {
			t.Fatal(err)
		}
		rank[k.thread]++
	}
	return st
}

// testDiffCtxOf builds the differential context of cfg's exploration and
// checks it holds one replay, digest and key per committed prefix.
func testDiffCtxOf(t *testing.T, cfg Config) (Config, *pass, *diffCtx) {
	t.Helper()
	cfg.Differential = true
	c, _, run := testPass(t, cfg)
	dc, err := c.newDiffCtx(run)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(run.txs.commits) + 1; len(dc.replays) != n || len(dc.digests) != n || len(dc.keys) != n {
		t.Fatalf("%s: %d replays, %d digests, %d keys for %d commits", cfg.Design, len(dc.replays), len(dc.digests), len(dc.keys), n-1)
	}
	return c, run, dc
}

// TestDiffCtxMatchesSerialReplay checks the differential context against
// ground truth: replays[m] equals a from-scratch serial re-execution of the
// first m commits and keys[m] is the canonical form of those commits.
func TestDiffCtxMatchesSerialReplay(t *testing.T) {
	for _, cfg := range incrementalConfigs {
		c, run, dc := testDiffCtxOf(t, cfg)
		commits := run.txs.commits
		var pairs []string
		for m := range dc.replays {
			key := "-"
			if m > 0 {
				pairs = append(pairs, fmt.Sprintf("%d:%d", commits[m-1].thread, commits[m-1].txid))
				key = strings.Join(pairs, ",")
			}
			if !slices.Equal(lines(dc.replays[m]), lines(serialReplay(t, c, run, commits[:m]))) {
				t.Fatalf("%s: replay of %d commits differs from a serial re-execution", cfg.Design, m)
			}
			if dc.keys[m] != key {
				t.Fatalf("%s: key of %d commits %q, want %q", cfg.Design, m, dc.keys[m], key)
			}
		}
	}
}

// TestPreImageDigestsMatchHeapDigest checks the differential digests on
// every reference image and every judged image: each digests[m], kept
// current across the commit-order replay, equals a full heapDigest walk of
// replays[m], and every crash image that passes the differential oracle
// recovers to a heap whose full walk is digests[m], the digest its report
// row carries.
func TestPreImageDigestsMatchHeapDigest(t *testing.T) {
	for _, cfg := range incrementalConfigs {
		_, _, dc := testDiffCtxOf(t, cfg)
		for m := range dc.replays {
			if got, want := dc.digests[m], heapDigest(dc.replays[m]); got != want {
				t.Fatalf("%s: digest of %d commits %016x, full walk %016x", cfg.Design, m, got, want)
			}
		}

		cfg.Differential = true
		passed := 0
		forEachCrashImage(t, cfg, func(pt *pointCtx, img *memdev.Store) {
			where := fmt.Sprintf("%s point %d", cfg.Design, pt.point)
			if _, err := recovery.Recover(img); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			m := len(pt.info.commits)
			if diffHeap(img, pt.dc.replays[m]) != "" {
				return
			}
			if got, want := heapDigest(img), pt.dc.digests[m]; got != want {
				t.Fatalf("%s: recovered image digest %016x, digests[%d] %016x", where, got, m, want)
			}
			passed++
		})
		if passed == 0 {
			t.Fatalf("%s: no crash image passed the differential oracle", cfg.Design)
		}
	}
}

// TestSecondRecoveryCopiesNothing checks that recovering an already
// recovered image writes nothing that changes it, so its clone keeps
// sharing every directory and leaf: the idempotency oracle's second pass
// then costs no copies and its comparison walks nothing. The image lives in
// the point's arena, so any node the second recovery copies — even one it
// writes back unchanged, which no comparison of contents would show — is a
// node the arena hands out.
func TestSecondRecoveryCopiesNothing(t *testing.T) {
	for _, cfg := range incrementalConfigs {
		forEachCrashImage(t, cfg, func(pt *pointCtx, img *memdev.Store) {
			if _, err := recovery.Recover(img); err != nil {
				t.Fatalf("%s point %d: %v", cfg.Design, pt.point, err)
			}
			used := pt.arena.Used()
			again := img.Clone()
			if _, err := recovery.Recover(again); err != nil {
				t.Fatalf("%s point %d: second recovery: %v", cfg.Design, pt.point, err)
			}
			again.Diff(img, 0, func(addr uint64, _, _ *memdev.Line, _ bool) bool {
				t.Fatalf("%s point %d: second recovery changed the line at %#x", cfg.Design, pt.point, addr)
				return false
			})
			if n := pt.arena.Used() - used; n != 0 {
				t.Fatalf("%s point %d: second recovery copied %d directories and leaves", cfg.Design, pt.point, n)
			}
		})
	}
}
