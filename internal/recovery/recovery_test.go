package recovery

import (
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
