package crashtest

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dhtm/internal/memdev"
	"dhtm/internal/wal"
)

// txKey identifies a transaction across threads in the decoded trace.
type txKey struct {
	thread int
	txid   uint64
}

// never is the activation index of a record the trace never activates.
const never = math.MaxInt

// txState accumulates what the trace reveals about one transaction, each
// record stamped with the index of the log-meta event that activated it.
type txState struct {
	commitAt, abortAt int          // first commit / abort activation, or never
	undo              []wal.Record // append order
	undoAt            []int        // undoAt[i] activated undo[i]; ascending
}

// redoEntry is one redo record in global persist order.
type redoEntry struct {
	key txKey
	rec wal.Record
	at  int // the activating event index
}

// traceTxs is the transaction-level decoding of a whole persist trace, each
// record stamped with the event index that activated it, so the decoding of
// any prefix is a view of it (prefix) rather than a parse of its own.
type traceTxs struct {
	txs  map[txKey]*txState
	redo []redoEntry
	// commits lists every commit-marker activation in global persist order
	// and commitAt the event index of each. Per thread the txids are
	// ascending — a core's transactions commit in issue order — which is
	// what lets the differential oracle map the j-th committed txid of a
	// thread back to the j-th generated transaction.
	commits  []txKey
	commitAt []int
	// undoTxs lists the transactions with undo records, by thread then txid.
	undoTxs []txKey
	// firstRedo and firstUndo are the first activations of each logging
	// discipline (never if none).
	firstRedo, firstUndo int
	// err is the record-decoding failure at event errAt (never if none);
	// the parse stops there.
	err   error
	errAt int
}

// parseTrace decodes the log-record persist events of a trace back into
// records (the trace never loses records to truncation, torn writes or
// head-pointer races) and classifies them per transaction.
//
// Reassembly works because a record append issues one or (on log wrap-around)
// two consecutive record-class events followed by the head pointer's log-meta
// persist, and no other events interleave — the token-holding core writes all
// of them synchronously — so record-class events concatenate into a stream of
// whole records. A decoded record is only *pending* until that head persist,
// which activates it: the recovery manager's scan covers [tail, head), so a
// record whose words are durable but whose head write the crash swallowed
// was never appended. A prefix ending before a record's activation therefore
// does not hold it.
//
// Under the reordering adversary the same decoding stays sound for a crash
// at point k with in-flight window [wStart, k): log-meta persists are drain
// class, so none sits inside the window — every activation the image can
// contain happened before wStart, and a window record's activating meta is
// at or beyond k. Masked-in record words are inert bytes beyond the durable
// head that neither recovery nor this decoding can observe.
func parseTrace(trace []traceEvent) *traceTxs {
	info := &traceTxs{txs: make(map[txKey]*txState), firstRedo: never, firstUndo: never, errAt: never}
	var buf []uint64
	var pending []wal.Record
	activate := func(at int) {
		for _, rec := range pending {
			k := txKey{thread: rec.Thread, txid: rec.TxID}
			st := info.txs[k]
			if st == nil {
				st = &txState{commitAt: never, abortAt: never}
				info.txs[k] = st
			}
			switch rec.Type {
			case wal.RecRedo:
				info.redo = append(info.redo, redoEntry{key: k, rec: rec, at: at})
				info.firstRedo = min(info.firstRedo, at)
			case wal.RecUndo:
				if len(st.undo) == 0 {
					info.undoTxs = append(info.undoTxs, k)
				}
				st.undo = append(st.undo, rec)
				st.undoAt = append(st.undoAt, at)
				info.firstUndo = min(info.firstUndo, at)
			case wal.RecCommit:
				st.commitAt = min(st.commitAt, at)
				info.commits = append(info.commits, k)
				info.commitAt = append(info.commitAt, at)
			case wal.RecAbort:
				st.abortAt = min(st.abortAt, at)
			}
		}
		pending = pending[:0]
	}
scan:
	for i, ev := range trace {
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
					info.err, info.errAt = fmt.Errorf("decoding trace record: %w", err), i
					break scan
				}
				buf = buf[:copy(buf, buf[n:])]
				pending = append(pending, rec)
			}
		case ev.class == memdev.TrafficLogMeta:
			activate(i)
		}
	}
	slices.SortFunc(info.undoTxs, func(a, b txKey) int {
		return cmp.Or(cmp.Compare(a.thread, b.thread), cmp.Compare(a.txid, b.txid))
	})
	return info
}

// txPrefix is the decoding of the trace prefix [0, k): what recovery could
// legitimately know about each transaction if power failed right before
// event k, plus the committed sequence in activation order (the
// serialization order the differential oracle replays).
type txPrefix struct {
	all *traceTxs
	k   int
	// redo and commits are the prefixes of all.redo and all.commits
	// activated before k.
	redo    []redoEntry
	commits []txKey
}

// prefix returns the decoding of trace prefix [0, k), failing as a parse of
// that prefix alone would: on a record that does not decode, or when both
// logging disciplines appear in it.
func (t *traceTxs) prefix(k int) (*txPrefix, error) {
	if t.errAt < k {
		return nil, t.err
	}
	if t.firstRedo < k && t.firstUndo < k {
		// The reference image replays every committed redo record in persist
		// order, taking a completed transaction's replay to be idempotent. An
		// in-place undo commit after it breaks that: the replay would write
		// the older redo image over the newer undo-logged value.
		return nil, fmt.Errorf("trace holds both redo and undo records; the reference image needs one logging discipline")
	}
	nRedo, _ := slices.BinarySearchFunc(t.redo, k, func(e redoEntry, k int) int { return cmp.Compare(e.at, k) })
	nCommits, _ := slices.BinarySearch(t.commitAt, k)
	return &txPrefix{all: t, k: k, redo: t.redo[:nRedo], commits: t.commits[:nCommits]}, nil
}

// expectedImage computes the reference durable image for a crash whose
// masked pre-recovery image is pre, independently of the durable logs the
// recovery manager reads: it applies the same semantics recovery promises to
// the decoded trace prefix — uncommitted undo-logged transactions are rolled
// back (newest record first) and the redo records of every transaction whose
// commit marker persisted inside the prefix are replayed in global persist
// order, which for any line shared across transactions is exactly sentinel
// dependency order, because a dependent transaction can only log a line
// after its dependency's commit persisted.
func expectedImage(pre *memdev.Store, info *txPrefix) *memdev.Store {
	exp := pre.Clone()

	// Roll back uncommitted, unaborted undo-logged transactions, newest
	// record first. Lock-based undo designs hold their locks until after the
	// commit record, so concurrent uncommitted transactions touch disjoint
	// lines and the cross-transaction order is immaterial; it is fixed
	// (thread, then txid) for determinism.
	for _, key := range info.all.undoTxs {
		st := info.all.txs[key]
		if st.commitAt < info.k || st.abortAt < info.k {
			continue
		}
		n, _ := slices.BinarySearch(st.undoAt, info.k)
		for i := n - 1; i >= 0; i-- {
			exp.WriteLine(st.undo[i].LineAddr, st.undo[i].Data)
		}
	}

	// Replay every committed transaction's redo records in global persist
	// order. Transactions that already completed in place replay
	// idempotently; committed-but-incomplete ones are restored exactly as
	// recovery must restore them.
	for _, e := range info.redo {
		if info.all.txs[e.key].commitAt < info.k {
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
// walked — shared ones cannot mismatch — in one pass. The reported word is
// the one two walks over every populated line, got's then want's, would
// report: the first mismatch on a line got wrote, else the first on a line
// only want wrote.
func diffHeap(got, want *memdev.Store) string {
	var msg, wantOnly string
	got.Diff(want, wal.HeapBase, func(addr uint64, g, w *memdev.Line, gotWrote bool) bool {
		if *g == *w || !gotWrote && wantOnly != "" {
			return true
		}
		i := 0
		for g[i] == w[i] {
			i++
		}
		m := fmt.Sprintf("heap word %#x: recovered %#x, reference %#x", addr+uint64(i*8), g[i], w[i])
		if !gotWrote {
			wantOnly = m
			return true
		}
		msg = m
		return false
	})
	if msg == "" {
		msg = wantOnly
	}
	return msg
}
