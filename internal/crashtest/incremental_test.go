package crashtest

import (
	"fmt"
	"reflect"
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

// forEachCrashImage calls f with every crash image, unrecovered, that an
// exploration of cfg judges, together with its point's context, whose
// pre-image carries its incrementally maintained heap digest. The image and
// every clone f makes of it live until f returns.
func forEachCrashImage(t *testing.T, cfg Config, f func(pt *pointCtx, img *memdev.Store)) {
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
	pre, err := run.preImages(tasks, true)
	if err != nil {
		t.Fatal(err)
	}
	arena := new(memdev.Arena)
	for _, tk := range tasks {
		pt := &pointCtx{trace: run.trace, point: tk.point, pre: pre[tk.wStart], arena: arena}
		f(pt, pt.crashImage(tk, c.tornWords(runSeed, run.trace, tk.point)))
		arena.Reset()
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
