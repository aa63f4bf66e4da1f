package crashtest

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dhtm/internal/memdev"
	"dhtm/internal/recovery"
	"dhtm/internal/wal"
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
// exploration of cfg judges, together with its point's context, whose
// pre-image a cursor built with its incrementally maintained heap digest.
// The image and every clone f makes of it live until f returns.
func forEachCrashImage(t *testing.T, cfg Config, f func(pt *pointCtx, img *memdev.Store)) {
	t.Helper()
	c, runSeed, run, tasks := testTasks(t, cfg)
	cur := run.newCursor(true, heapDigest(run.start))
	arena := new(memdev.Arena)
	var pt *pointCtx
	for _, tk := range tasks {
		if pt == nil || pt.point != tk.point {
			pt = &pointCtx{trace: run.trace, point: tk.point, pre: cur.preImage(tk.wStart), arena: arena}
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
// worker's cursor freezes — store and heap digest — against a serial replay
// of the trace, at every window start of a W=2 exhaustive exploration: for
// one cursor taking every point, for cursors taking every second or third
// point as the workers of a pool do, and for one sent back to an earlier
// window start, which replays from the start image again.
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
			pre := cur.preImage(wStart)
			want := serial[wStart]
			if !slices.Equal(lines(pre.st), lines(want)) {
				t.Fatalf("%s: pre-image at window start %d differs from the serial replay", cfg.Design, wStart)
			}
			if got, want := pre.digest, heapDigest(want); got != want {
				t.Fatalf("%s: pre-image digest at window start %d is %016x, serial replay %016x", cfg.Design, wStart, got, want)
			}
		}
		for workers := 1; workers <= 3; workers++ {
			for w := range workers {
				cur := run.newCursor(true, heapDigest(run.start))
				for g := w; g < len(starts); g += workers {
					check(cur, starts[g])
				}
			}
		}
		cur := run.newCursor(true, heapDigest(run.start))
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

// TestPreImageDigestsMatchHeapDigest checks the differential digest on every
// judged image: each pre-image's digest, kept current across the trace
// replay, and each crash image's digest relative to its pre-image, before
// and after recovery, equal a full heapDigest walk.
func TestPreImageDigestsMatchHeapDigest(t *testing.T) {
	for _, cfg := range incrementalConfigs {
		images := 0
		forEachCrashImage(t, cfg, func(pt *pointCtx, img *memdev.Store) {
			where := fmt.Sprintf("%s point %d", cfg.Design, pt.point)
			if got, want := pt.pre.digest, heapDigest(pt.pre.st); got != want {
				t.Fatalf("%s: pre-image digest %016x, full walk %016x", where, got, want)
			}
			if got, want := pt.pre.digestOf(img), heapDigest(img); got != want {
				t.Fatalf("%s: crash image digest %016x, full walk %016x", where, got, want)
			}
			if _, err := recovery.Recover(img); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if got, want := pt.pre.digestOf(img), heapDigest(img); got != want {
				t.Fatalf("%s: recovered image digest %016x, full walk %016x", where, got, want)
			}
			images++
		})
		if images == 0 {
			t.Fatalf("%s: no crash image judged", cfg.Design)
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
