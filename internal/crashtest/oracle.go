package crashtest

import (
	"fmt"
	"sort"

	"dhtm/internal/memdev"
	"dhtm/internal/wal"
)

// txKey identifies a transaction across threads in the decoded trace.
type txKey struct {
	thread int
	txid   uint64
}

// txState accumulates what the trace reveals about one transaction.
type txState struct {
	committed bool
	aborted   bool
	undo      []wal.Record // append order
}

// redoEntry is one redo record in global persist order.
type redoEntry struct {
	key txKey
	rec wal.Record
}

// traceTxs is the transaction-level decoding of a persist-trace prefix: what
// recovery could legitimately know about each transaction if power failed
// right after the prefix, plus the committed sequence in activation order
// (the serialization order the differential oracle replays).
type traceTxs struct {
	txs  map[txKey]*txState
	redo []redoEntry
	// commits lists every commit-marker activation in global persist order.
	// Per thread the txids are ascending — a core's transactions commit in
	// issue order — which is what lets the differential oracle map the j-th
	// committed txid of a thread back to the j-th generated transaction.
	commits []txKey
}

// parseTrace decodes the log-record persist events of a trace prefix back
// into records (the trace never loses records to truncation, torn writes or
// head-pointer races) and classifies them per transaction.
//
// Reassembly works because a record append issues one or (on log wrap-around)
// two consecutive record-class events followed by the head pointer's log-meta
// persist, and no other events interleave — the token-holding core writes all
// of them synchronously — so record-class events concatenate into a stream of
// whole records. A decoded record is only *pending* until that head persist:
// the recovery manager's scan covers [tail, head), so a record whose words
// are durable but whose head write the crash swallowed was never appended.
// Trailing pending records at the end of the prefix are therefore dropped.
//
// Under the reordering adversary the same parse stays sound for a crash at
// point k with in-flight window [wStart, k): log-meta persists are drain
// class, so none sits inside the window — every activation the image can
// contain happened before wStart, and a window record's activating meta is
// at or beyond k. Masked-in record words are inert bytes beyond the durable
// head that neither recovery nor this parse can observe.
func parseTrace(prefix []traceEvent) (*traceTxs, error) {
	info := &traceTxs{txs: make(map[txKey]*txState)}
	var buf []uint64
	var pending []wal.Record
	undo := false
	activate := func() {
		for _, rec := range pending {
			k := txKey{thread: rec.Thread, txid: rec.TxID}
			st := info.txs[k]
			if st == nil {
				st = &txState{}
				info.txs[k] = st
			}
			switch rec.Type {
			case wal.RecRedo:
				info.redo = append(info.redo, redoEntry{key: k, rec: rec})
			case wal.RecUndo:
				st.undo = append(st.undo, rec)
				undo = true
			case wal.RecCommit:
				st.committed = true
				info.commits = append(info.commits, k)
			case wal.RecAbort:
				st.aborted = true
			}
		}
		pending = pending[:0]
	}
	for _, ev := range prefix {
		switch {
		case wal.IsRecordClass(ev.class):
			buf = append(buf, ev.words...)
			for len(buf) > 0 {
				t, _, _ := wal.HeaderInfo(buf[0])
				need := (&wal.Record{Type: t}).SizeWords()
				if len(buf) < need {
					break
				}
				rec, n, err := wal.DecodeRecord(buf, 0)
				if err != nil {
					return nil, fmt.Errorf("decoding trace record: %w", err)
				}
				buf = buf[:copy(buf, buf[n:])]
				pending = append(pending, rec)
			}
		case ev.class == memdev.TrafficLogMeta:
			activate()
		}
	}
	if len(info.redo) > 0 && undo {
		// The reference image replays every committed redo record in persist
		// order, taking a completed transaction's replay to be idempotent. An
		// in-place undo commit after it breaks that: the replay would write
		// the older redo image over the newer undo-logged value.
		return nil, fmt.Errorf("trace holds both redo and undo records; the reference image needs one logging discipline")
	}
	return info, nil
}

// expectedImage computes the reference durable image for a crash whose
// masked pre-recovery image is pre, independently of the durable logs the
// recovery manager reads: it applies the same semantics recovery promises to
// the parsed trace — uncommitted undo-logged transactions are rolled back
// (newest record first) and the redo records of every transaction whose
// commit marker persisted inside the prefix are replayed in global persist
// order, which for any line shared across transactions is exactly sentinel
// dependency order, because a dependent transaction can only log a line
// after its dependency's commit persisted.
func expectedImage(pre *memdev.Store, info *traceTxs) *memdev.Store {
	txs, redo := info.txs, info.redo
	exp := pre.Clone()

	// Roll back uncommitted, unaborted undo-logged transactions, newest
	// record first. Lock-based undo designs hold their locks until after the
	// commit record, so concurrent uncommitted transactions touch disjoint
	// lines and the cross-transaction order is immaterial; it is fixed
	// (thread, then txid) for determinism.
	var rollback []txKey
	for k, st := range txs {
		if !st.committed && !st.aborted && len(st.undo) > 0 {
			rollback = append(rollback, k)
		}
	}
	sort.Slice(rollback, func(i, j int) bool {
		if rollback[i].thread != rollback[j].thread {
			return rollback[i].thread < rollback[j].thread
		}
		return rollback[i].txid < rollback[j].txid
	})
	for _, k := range rollback {
		undo := txs[k].undo
		for i := len(undo) - 1; i >= 0; i-- {
			exp.WriteLine(undo[i].LineAddr, undo[i].Data)
		}
	}

	// Replay every committed transaction's redo records in global persist
	// order. Transactions that already completed in place replay
	// idempotently; committed-but-incomplete ones are restored exactly as
	// recovery must restore them.
	for _, e := range redo {
		if txs[e.key].committed {
			exp.WriteLine(e.rec.LineAddr, e.rec.Data)
		}
	}
	return exp
}

// diffHeap compares the workload-heap region of two images and describes the
// first mismatching word ("" when identical). Addresses below wal.HeapBase —
// logs, registry, lock tables, software scratch — are intentionally outside
// the oracle: recovery truncates logs and ignores lock state, and the
// reference image does neither. Only leaves the images do not share are
// walked — shared ones cannot mismatch — in two passes, got's populated
// lines then want's, so the reported word is the one two walks over every
// populated line would report.
func diffHeap(got, want *memdev.Store) string {
	var msg string
	scan := func(a, b *memdev.Store, flipped bool) {
		a.ForEachUnsharedLine(b, func(addr uint64, mine, theirs *memdev.Line) bool {
			if addr < wal.HeapBase || *mine == *theirs {
				return true
			}
			i := 0
			for mine[i] == theirs[i] {
				i++
			}
			g, w := mine[i], theirs[i]
			if flipped {
				g, w = w, g
			}
			msg = fmt.Sprintf("heap word %#x: recovered %#x, reference %#x", addr+uint64(i*8), g, w)
			return false
		})
	}
	scan(got, want, false)
	if msg == "" {
		scan(want, got, true)
	}
	return msg
}
