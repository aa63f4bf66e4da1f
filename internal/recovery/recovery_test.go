package recovery

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/memdev"
	"dhtm/internal/stats"
	"dhtm/internal/wal"
)

// buildImage constructs a persistent-memory image with two thread logs and
// lets the test author append raw records.
func buildImage(t *testing.T) (*memdev.Store, *wal.Registry) {
	t.Helper()
	cfg := config.Default()
	store := memdev.NewStore()
	ctl := memdev.NewController(cfg, store, stats.New(cfg.NumCores))
	reg := wal.NewRegistry(ctl, 2, 64*1024, 256)
	return store, reg
}

func appendAll(t *testing.T, log *wal.ThreadLog, recs ...*wal.Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := log.Append(r, 0); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

// TestReplayCommittedIncomplete checks the core recovery rule: a transaction
// with a commit record but no complete record is replayed in place.
func TestReplayCommittedIncomplete(t *testing.T) {
	store, reg := buildImage(t)
	store.WriteLine(0x10000, memdev.Line{1, 1, 1})
	log := reg.Log(0)
	txid := log.BeginTx()
	appendAll(t, log,
		&wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: 0x10000, Data: memdev.Line{9, 9, 9}},
		&wal.Record{Type: wal.RecCommit, TxID: txid},
	)
	rep, err := Recover(store)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.Replayed) != 1 {
		t.Fatalf("replayed %d transactions, want 1", len(rep.Replayed))
	}
	if got := store.ReadLine(0x10000); got[0] != 9 {
		t.Fatalf("line not replayed: %v", got)
	}
}

// TestSkipUncommittedAndAborted checks that redo records without a commit, or
// with an abort record, are never applied.
func TestSkipUncommittedAndAborted(t *testing.T) {
	store, reg := buildImage(t)
	store.WriteLine(0x20000, memdev.Line{5})
	log := reg.Log(0)

	active := log.BeginTx()
	appendAll(t, log, &wal.Record{Type: wal.RecRedo, TxID: active, LineAddr: 0x20000, Data: memdev.Line{77}})
	aborted := log.BeginTx()
	appendAll(t, log,
		&wal.Record{Type: wal.RecRedo, TxID: aborted, LineAddr: 0x20000, Data: memdev.Line{88}},
		&wal.Record{Type: wal.RecAbort, TxID: aborted},
	)
	rep, err := Recover(store)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := store.ReadLine(0x20000); got[0] != 5 {
		t.Fatalf("uncommitted/aborted data reached memory: %v", got)
	}
	if rep.SkippedActive != 1 || rep.SkippedAborted != 1 {
		t.Fatalf("classification wrong: %+v", rep)
	}
}

// TestSkipComplete checks completed transactions are not replayed.
func TestSkipComplete(t *testing.T) {
	store, reg := buildImage(t)
	store.WriteLine(0x30000, memdev.Line{123})
	log := reg.Log(1)
	txid := log.BeginTx()
	appendAll(t, log,
		&wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: 0x30000, Data: memdev.Line{1}},
		&wal.Record{Type: wal.RecCommit, TxID: txid},
		&wal.Record{Type: wal.RecComplete, TxID: txid},
	)
	rep, err := Recover(store)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.SkippedComplete != 1 || len(rep.Replayed) != 0 {
		t.Fatalf("classification wrong: %+v", rep)
	}
	if got := store.ReadLine(0x30000); got[0] != 123 {
		t.Fatalf("complete transaction was replayed: %v", got)
	}
}

// TestUndoRollback checks the ATOM-style path: an undo-logged transaction
// without a commit record has its old values restored.
func TestUndoRollback(t *testing.T) {
	store, reg := buildImage(t)
	// The transaction already wrote 42 in place before the crash.
	store.WriteLine(0x40000, memdev.Line{42})
	log := reg.Log(0)
	txid := log.BeginTx()
	appendAll(t, log, &wal.Record{Type: wal.RecUndo, TxID: txid, LineAddr: 0x40000, Data: memdev.Line{7}})
	rep, err := Recover(store)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.RolledBack) != 1 {
		t.Fatalf("rolled back %d transactions, want 1", len(rep.RolledBack))
	}
	if got := store.ReadLine(0x40000); got[0] != 7 {
		t.Fatalf("old value not restored: %v", got)
	}
}

// TestRecordChainsKeepLogOrder checks that each transaction's records are
// written back in the order recovery owes them when two transactions'
// records interleave in one log: a committed transaction's redo records
// oldest first, so its last value of a line wins, and an uncommitted one's
// undo records newest first, so the oldest logged value wins.
func TestRecordChainsKeepLogOrder(t *testing.T) {
	store, reg := buildImage(t)
	const redoLine, undoLine = 0x50000, 0x50040
	store.WriteLine(undoLine, memdev.Line{99})
	log := reg.Log(0)
	committed, active := log.BeginTx(), log.BeginTx()
	appendAll(t, log,
		&wal.Record{Type: wal.RecRedo, TxID: committed, LineAddr: redoLine, Data: memdev.Line{1}},
		&wal.Record{Type: wal.RecUndo, TxID: active, LineAddr: undoLine, Data: memdev.Line{3}},
		&wal.Record{Type: wal.RecRedo, TxID: committed, LineAddr: redoLine, Data: memdev.Line{2}},
		&wal.Record{Type: wal.RecUndo, TxID: active, LineAddr: undoLine, Data: memdev.Line{4}},
		&wal.Record{Type: wal.RecCommit, TxID: committed},
	)
	rep, err := Recover(store)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.Replayed) != 1 || len(rep.RolledBack) != 1 || rep.LinesRestored != 4 {
		t.Fatalf("report %+v, want one replayed, one rolled back, 4 lines", rep)
	}
	if got := store.ReadLine(redoLine); got[0] != 2 {
		t.Fatalf("replayed line %v, want the newest redo value 2", got)
	}
	if got := store.ReadLine(undoLine); got[0] != 3 {
		t.Fatalf("rolled-back line %v, want the oldest undo value 3", got)
	}
}

// TestSentinelOrdering checks that a dependent transaction is replayed after
// the transaction it consumed data from, so its newer value wins.
func TestSentinelOrdering(t *testing.T) {
	store, reg := buildImage(t)
	logA, logB := reg.Log(0), reg.Log(1)
	txA := logA.BeginTx()
	appendAll(t, logA,
		&wal.Record{Type: wal.RecRedo, TxID: txA, LineAddr: 0x50000, Data: memdev.Line{100}},
		&wal.Record{Type: wal.RecCommit, TxID: txA},
	)
	txB := logB.BeginTx()
	appendAll(t, logB,
		&wal.Record{Type: wal.RecSentinel, TxID: txB, DepThread: 0, DepTxID: txA},
		&wal.Record{Type: wal.RecRedo, TxID: txB, LineAddr: 0x50000, Data: memdev.Line{200}},
		&wal.Record{Type: wal.RecCommit, TxID: txB},
	)
	if _, err := Recover(store); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := store.ReadLine(0x50000); got[0] != 200 {
		t.Fatalf("dependent transaction's value lost: got %d, want 200", got[0])
	}
}

// TestUnalignedRecordIsAnError checks that recovery refuses a redo or undo
// record whose line address is not line-aligned: every record carries a
// whole line, so such an address can only come from a corrupt log, and
// recovery must return an error rather than write a line at the wrong place.
func TestUnalignedRecordIsAnError(t *testing.T) {
	for _, typ := range []wal.RecordType{wal.RecRedo, wal.RecUndo} {
		t.Run(typ.String(), func(t *testing.T) {
			store, reg := buildImage(t)
			store.WriteLine(0x70000, memdev.Line{10, 11, 12})
			log := reg.Log(1)
			txid := log.BeginTx()
			appendAll(t, log,
				&wal.Record{Type: typ, TxID: txid, LineAddr: 0x70018, Data: memdev.Line{333}},
				&wal.Record{Type: wal.RecCommit, TxID: txid},
			)
			_, err := Recover(store)
			if err == nil || !strings.Contains(err.Error(), "unaligned address 0x70018") {
				t.Fatalf("Recover over an unaligned %v record: err = %v, want an unaligned-address error", typ, err)
			}
			if got := store.ReadLine(0x70000); got != (memdev.Line{10, 11, 12}) {
				t.Fatalf("Recover wrote the heap before failing: %v", got)
			}
		})
	}
	// A log that also ends in a truncated record reports the truncation: a
	// log is decoded whole before its records are judged.
	t.Run("truncated", func(t *testing.T) {
		store, reg := buildImage(t)
		log := reg.Log(1)
		txid := log.BeginTx()
		appendAll(t, log,
			&wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: 0x70018},
			&wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: 0x70040},
		)
		store.WriteWord(log.MetaAddr, store.ReadWord(log.MetaAddr)-1)
		_, err := Recover(store)
		if err == nil || !strings.Contains(err.Error(), "recovery: scanning thread 1 log: wal: truncated") {
			t.Fatalf("Recover over an unaligned record then a truncated one: err = %v, want the truncation", err)
		}
	})
}

// TestLineInLogIsAnError checks that recovery refuses a redo or undo record
// whose line lies in a registered log's data area — its own log's or
// another thread's, at the first line of the area or straddling its end —
// and writes nothing: recovery reads a logged line only when it writes it
// back, so writing such a line could change a line it has yet to read.
func TestLineInLogIsAnError(t *testing.T) {
	for _, typ := range []wal.RecordType{wal.RecRedo, wal.RecUndo} {
		t.Run(typ.String(), func(t *testing.T) {
			_, reg := buildImage(t)
			own, other := reg.Log(1), reg.Log(0)
			for _, addr := range []uint64{
				own.Base,
				other.Base,
				other.Base + uint64(other.SizeWords*8) - memdev.LineBytes,
			} {
				store, reg := buildImage(t)
				log := reg.Log(1)
				txid := log.BeginTx()
				appendAll(t, log,
					&wal.Record{Type: typ, TxID: txid, LineAddr: addr, Data: memdev.Line{333}},
					&wal.Record{Type: wal.RecCommit, TxID: txid},
				)
				before := store.Clone()
				_, err := Recover(store)
				if !errors.Is(err, errLineInLog) || !strings.Contains(err.Error(), fmt.Sprintf("%v record at %#x", typ, addr)) {
					t.Fatalf("Recover over a %v record at %#x: err = %v, want a line-in-log error", typ, addr, err)
				}
				if !store.Equal(before) {
					t.Fatalf("Recover wrote the image before failing on %#x", addr)
				}
			}
			// The line just past a log's data area is not in it.
			if reg.InLogData(other.Base + uint64(other.SizeWords*8)) {
				t.Fatal("the line past the end of a log's data area is reported in it")
			}
		})
	}
}

// TestReplayWrappedRecord checks that a committed-but-incomplete
// transaction's redo record whose line wraps around the end of its circular
// log replays whole.
func TestReplayWrappedRecord(t *testing.T) {
	store, want := wrappedImage(t)
	if _, err := Recover(store); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := store.ReadLine(wrappedLineAddr); got != want {
		t.Fatalf("wrapped line replayed as %v, want %v", got, want)
	}
}

// wrappedLineAddr is the heap line wrappedImage's transaction writes.
const wrappedLineAddr = wal.HeapBase + 0x40

// wrappedImage builds a one-thread image whose 128-word log holds one
// committed-but-incomplete transaction with a redo record that wraps around
// the end of the buffer in the middle of its line, and returns the image
// and the line recovery must replay.
func wrappedImage(t *testing.T) (*memdev.Store, memdev.Line) {
	t.Helper()
	cfg := config.Default()
	store := memdev.NewStore()
	ctl := memdev.NewController(cfg, store, stats.New(cfg.NumCores))
	log := wal.NewRegistry(ctl, 1, 128*8, 4).Log(0)
	// Twelve redo records and a commit fill 121 words; completing the
	// transaction moves the tail to the head.
	first := log.BeginTx()
	for i := range 12 {
		appendAll(t, log, &wal.Record{Type: wal.RecRedo, TxID: first, LineAddr: wal.HeapBase + uint64(i)*memdev.LineBytes})
	}
	appendAll(t, log, &wal.Record{Type: wal.RecCommit, TxID: first})
	log.EndTx(first)
	want := memdev.Line{1, 2, 3, 4, 5, 6, 7, 8}
	txid := log.BeginTx()
	appendAll(t, log,
		&wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: wrappedLineAddr, Data: want},
		&wal.Record{Type: wal.RecCommit, TxID: txid},
	)
	wrapped := false
	if err := log.Walk(store, func(rec wal.Record, off int) {
		wrapped = wrapped || rec.Type == wal.RecRedo && off+2 < log.SizeWords && off+rec.SizeWords() > log.SizeWords
	}); err != nil || !wrapped {
		t.Fatalf("no redo line wraps around the log (walk error %v)", err)
	}
	return store, want
}

// TestSentinelCycleError checks the error return for a sentinel dependency
// cycle between replay candidates: recovery must refuse (with a descriptive
// error) rather than replay in an arbitrary order, because such a log can
// only come from corruption — the conflict-window protocol orders
// dependencies by commit time, which cannot cycle.
func TestSentinelCycleError(t *testing.T) {
	store, reg := buildImage(t)
	logA, logB := reg.Log(0), reg.Log(1)
	txA := logA.BeginTx()
	txB := logB.BeginTx()
	appendAll(t, logA,
		&wal.Record{Type: wal.RecSentinel, TxID: txA, DepThread: 1, DepTxID: txB},
		&wal.Record{Type: wal.RecRedo, TxID: txA, LineAddr: 0x80000, Data: memdev.Line{1}},
		&wal.Record{Type: wal.RecCommit, TxID: txA},
	)
	appendAll(t, logB,
		&wal.Record{Type: wal.RecSentinel, TxID: txB, DepThread: 0, DepTxID: txA},
		&wal.Record{Type: wal.RecRedo, TxID: txB, LineAddr: 0x80040, Data: memdev.Line{2}},
		&wal.Record{Type: wal.RecCommit, TxID: txB},
	)
	_, err := Recover(store)
	if err == nil {
		t.Fatalf("expected a dependency-cycle error")
	}
	if !strings.Contains(err.Error(), "dependency cycle") {
		t.Fatalf("unexpected error for a sentinel cycle: %v", err)
	}
}

// TestRecoveryTruncatesLogs checks a second recovery finds nothing to do.
func TestRecoveryTruncatesLogs(t *testing.T) {
	store, reg := buildImage(t)
	log := reg.Log(0)
	txid := log.BeginTx()
	appendAll(t, log,
		&wal.Record{Type: wal.RecRedo, TxID: txid, LineAddr: 0x60000, Data: memdev.Line{4}},
		&wal.Record{Type: wal.RecCommit, TxID: txid},
	)
	if _, err := Recover(store); err != nil {
		t.Fatalf("first Recover: %v", err)
	}
	rep, err := Recover(store)
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if rep.Transactions != 0 || len(rep.Replayed) != 0 {
		t.Fatalf("second recovery still found work: %+v", rep)
	}
}

// TestRecoverWithoutRegistry checks the error path for images that carry no
// log registry.
func TestRecoverWithoutRegistry(t *testing.T) {
	if _, err := Recover(memdev.NewStore()); err == nil {
		t.Fatalf("expected an error for an image without a registry")
	}
}
