// Package recovery implements the OS recovery manager that runs after a
// crash: it loads the log registry from the persistent-memory image, scans
// every registered thread log, replays the redo records of transactions that
// committed but had not completed their in-place write-backs (ordering
// dependent transactions by their sentinel records), rolls back undo-logged
// transactions that never committed, and leaves everything else untouched.
//
// Recovery sees whatever subset of in-flight persists actually reached the
// memory image before the crash. The persistency model that bounds that
// subset — which writes may still be in flight, which classes drain the
// queue — is documented on memdev.PersistQueue, and internal/crashtest
// exercises recovery against every crash image the model admits (including
// reordered ones, via the subset adversary).
package recovery

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"dhtm/internal/memdev"
	"dhtm/internal/wal"
)

// TxKey identifies a transaction across all thread logs.
type TxKey struct {
	Thread int    `json:"thread"`
	TxID   uint64 `json:"txid"`
}

// String implements fmt.Stringer.
func (k TxKey) String() string { return fmt.Sprintf("t%d/tx%d", k.Thread, k.TxID) }

// txImage is everything recovery learned about one logged transaction. Its
// redo and undo records are chains through the one slice of line
// references a recovery run keeps, so a transaction holds no records of its
// own.
type txImage struct {
	key TxKey
	// redo and redoLast are its first and last redo records in log order,
	// and undo its newest undo record: indices into the references, -1 for
	// none.
	redo, redoLast, undo         int
	committed, complete, aborted bool
	// dependsOn lists committed transactions whose updates this transaction
	// consumed (from sentinel records); they must be replayed first.
	dependsOn []TxKey
}

// lineRef locates the line of one redo or undo record without holding it:
// recovery reads the line from the log only when it writes it back.
type lineRef struct {
	addr uint64 // the logged line's address
	log  *wal.ThreadLog
	off  int // the record's data-area offset in log
	next int // the next record of its chain, -1 at the end
}

// scratch is a recovery run's working memory: the log registry's handles,
// the transactions it found, in order of discovery (log order within a
// thread), their index by key, and the line references their chains run
// through. Runs recycle it through a pool, so recovering many images reuses
// one set of handles and slices: crash exploration recovers every judged
// image twice, and fresh slices per run cost it half again its allocated
// bytes.
type scratch struct {
	reg   wal.Registry
	txs   []txImage
	index map[TxKey]int
	refs  []lineRef
}

var scratchPool = sync.Pool{New: func() any { return &scratch{index: make(map[TxKey]int)} }}

// errLineInLog rejects a record whose line lies in a registered log's data
// area: writing it back could change the logged lines recovery reads later.
var errLineInLog = errors.New("record line lies in a log")

// Report summarises one recovery run. The JSON field names are part of the
// tooling contract (dhtm-recover -json feeds scripts and crashtest repros).
type Report struct {
	LogsScanned     int     `json:"logs_scanned"`
	Transactions    int     `json:"transactions"`
	Replayed        []TxKey `json:"replayed"`
	RolledBack      []TxKey `json:"rolled_back"`
	SkippedActive   int     `json:"skipped_active"`
	SkippedAborted  int     `json:"skipped_aborted"`
	SkippedComplete int     `json:"skipped_complete"`
	LinesRestored   int     `json:"lines_restored"`
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery: scanned %d logs, %d logged transactions\n", r.LogsScanned, r.Transactions)
	fmt.Fprintf(&b, "  replayed %d committed-but-incomplete transactions (%d lines restored)\n", len(r.Replayed), r.LinesRestored)
	fmt.Fprintf(&b, "  rolled back %d, skipped: %d active, %d aborted, %d complete\n",
		len(r.RolledBack), r.SkippedActive, r.SkippedAborted, r.SkippedComplete)
	return b.String()
}

// Recover runs the recovery manager against a persistent-memory image,
// mutating it in place so that it reflects every committed transaction and no
// uncommitted one. It is idempotent: running it twice yields the same image.
//
// Recovery walks each log once and keeps, per redo or undo record, only the
// line's address and where the record lies in the log; it reads a logged
// line only when it rolls the line back or replays it. A record whose line
// is not line-aligned, or lies in a registered log's data area (where
// writing it back could change a line recovery has yet to read), makes the
// image corrupt: Recover returns an error before it writes anything.
func Recover(store *memdev.Store) (*Report, error) {
	sc := scratchPool.Get().(*scratch)
	defer func() {
		sc.txs, sc.refs = sc.txs[:0], sc.refs[:0]
		clear(sc.index)
		scratchPool.Put(sc)
	}()
	reg := &sc.reg
	if err := reg.Load(store); err != nil {
		return nil, err
	}
	rep := &Report{}

	for t := 0; t < reg.Threads(); t++ {
		// A bad record is reported only once the whole log decoded: a log
		// that is also truncated reports the truncation.
		var bad error
		log := reg.Log(t)
		err := log.Walk(store, func(rec wal.Record, off int) {
			if bad != nil {
				return
			}
			key := TxKey{Thread: t, TxID: rec.TxID}
			i, ok := sc.index[key]
			if !ok {
				i = len(sc.txs)
				sc.index[key] = i
				sc.txs = append(sc.txs, txImage{key: key, redo: -1, redoLast: -1, undo: -1})
			}
			tx := &sc.txs[i]
			if rec.Type == wal.RecRedo || rec.Type == wal.RecUndo {
				switch {
				case rec.LineAddr%memdev.LineBytes != 0:
					bad = fmt.Errorf("recovery: thread %d tx %d: %v record at unaligned address %#x", t, rec.TxID, rec.Type, rec.LineAddr)
					return
				case reg.InLogData(rec.LineAddr):
					bad = fmt.Errorf("recovery: thread %d tx %d: %v record at %#x: %w", t, rec.TxID, rec.Type, rec.LineAddr, errLineInLog)
					return
				}
			}
			switch rec.Type {
			case wal.RecRedo:
				sc.refs = append(sc.refs, lineRef{addr: rec.LineAddr, log: log, off: off, next: -1})
				if tx.redoLast < 0 {
					tx.redo = len(sc.refs) - 1
				} else {
					sc.refs[tx.redoLast].next = len(sc.refs) - 1
				}
				tx.redoLast = len(sc.refs) - 1
			case wal.RecUndo:
				sc.refs = append(sc.refs, lineRef{addr: rec.LineAddr, log: log, off: off, next: tx.undo})
				tx.undo = len(sc.refs) - 1
			case wal.RecCommit:
				tx.committed = true
			case wal.RecComplete:
				tx.complete = true
			case wal.RecAbort:
				tx.aborted = true
			case wal.RecSentinel:
				if rec.DepTxID != 0 {
					tx.dependsOn = append(tx.dependsOn, TxKey{Thread: rec.DepThread, TxID: rec.DepTxID})
				}
			}
		})
		if err != nil {
			return rep, fmt.Errorf("recovery: scanning thread %d log: %w", t, err)
		}
		rep.LogsScanned++
		if bad != nil {
			return rep, bad
		}
	}
	rep.Transactions = len(sc.txs)

	// writeBack writes the lines of the chain starting at reference r.
	writeBack := func(r int) {
		for ; r >= 0; r = sc.refs[r].next {
			ref := &sc.refs[r]
			store.WriteLine(ref.addr, ref.log.LineAt(store, ref.off))
			rep.LinesRestored++
		}
	}

	// Classify.
	var candidates []TxKey
	for i := range sc.txs {
		tx := &sc.txs[i]
		switch {
		case tx.committed && !tx.complete:
			candidates = append(candidates, tx.key)
		case tx.committed:
			rep.SkippedComplete++
		case tx.aborted:
			rep.SkippedAborted++
		case tx.undo >= 0:
			// Undo-logged (ATOM-style) transaction that never committed: roll
			// its in-place updates back, newest record first.
			rep.RolledBack = append(rep.RolledBack, tx.key)
			writeBack(tx.undo)
		default:
			rep.SkippedActive++
		}
	}

	// Replay committed-but-incomplete transactions in dependency order.
	ordered, err := topoOrder(candidates, func(k TxKey) []TxKey { return sc.txs[sc.index[k]].dependsOn })
	if err != nil {
		return rep, err
	}
	for _, key := range ordered {
		writeBack(sc.txs[sc.index[key]].redo)
		rep.Replayed = append(rep.Replayed, key)
	}

	// Truncate every log: all live work has been resolved. This mirrors the
	// recovery manager writing complete records and releasing log space.
	for t := 0; t < reg.Threads(); t++ {
		log := reg.Log(t)
		store.WriteWord(log.MetaAddr, 0)
		store.WriteWord(log.MetaAddr+8, 0)
		store.WriteWord(reg.Overflow(t).CountAddr, 0)
	}
	return rep, nil
}

// topoOrder orders the replay candidates so that every transaction is
// replayed after all transactions it depends on. Dependencies on transactions
// that are not replay candidates (already complete, or aborted) are ignored.
func topoOrder(candidates []TxKey, dependsOn func(TxKey) []TxKey) ([]TxKey, error) {
	candidateSet := make(map[TxKey]bool, len(candidates))
	for _, k := range candidates {
		candidateSet[k] = true
	}
	indegree := make(map[TxKey]int, len(candidates))
	dependents := make(map[TxKey][]TxKey)
	for _, k := range candidates {
		indegree[k] = 0
	}
	for _, k := range candidates {
		for _, dep := range dependsOn(k) {
			if !candidateSet[dep] || dep == k {
				continue
			}
			dependents[dep] = append(dependents[dep], k)
			indegree[k]++
		}
	}
	ready := make([]TxKey, 0, len(candidates))
	for _, k := range candidates {
		if indegree[k] == 0 {
			ready = append(ready, k)
		}
	}
	sortKeys(ready)
	var out []TxKey
	for len(ready) > 0 {
		k := ready[0]
		ready = ready[1:]
		out = append(out, k)
		next := dependents[k]
		sortKeys(next)
		for _, dep := range next {
			indegree[dep]--
			if indegree[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if len(out) != len(candidates) {
		return out, fmt.Errorf("recovery: sentinel dependency cycle among %d transactions", len(candidates)-len(out))
	}
	return out, nil
}

// sortKeys orders keys deterministically (thread, then txid).
func sortKeys(keys []TxKey) {
	slices.SortFunc(keys, func(a, b TxKey) int {
		return cmp.Or(cmp.Compare(a.Thread, b.Thread), cmp.Compare(a.TxID, b.TxID))
	})
}
