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
	"fmt"
	"sort"
	"strings"

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

// TxImage is everything recovery learned about one logged transaction.
type TxImage struct {
	Key       TxKey
	Redo      []wal.Record
	Undo      []wal.Record
	Committed bool
	Complete  bool
	Aborted   bool
	// DependsOn lists committed transactions whose updates this transaction
	// consumed (from sentinel records); they must be replayed first.
	DependsOn []TxKey
}

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
func Recover(store *memdev.Store) (*Report, error) {
	reg, err := wal.LoadRegistry(store)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	images := make(map[TxKey]*TxImage)
	var order []TxKey // stable ordering of discovery (log order within thread)

	for t := 0; t < reg.Threads(); t++ {
		log := reg.Log(t)
		recs, err := log.Scan(store)
		if err != nil {
			return rep, fmt.Errorf("recovery: scanning thread %d log: %w", t, err)
		}
		rep.LogsScanned++
		for _, rec := range recs {
			key := TxKey{Thread: t, TxID: rec.TxID}
			img, ok := images[key]
			if !ok {
				img = &TxImage{Key: key}
				images[key] = img
				order = append(order, key)
			}
			if (rec.Type == wal.RecRedo || rec.Type == wal.RecUndo) && rec.LineAddr%memdev.LineBytes != 0 {
				return rep, fmt.Errorf("recovery: thread %d tx %d: %v record at unaligned address %#x", t, rec.TxID, rec.Type, rec.LineAddr)
			}
			switch rec.Type {
			case wal.RecRedo:
				img.Redo = append(img.Redo, rec)
			case wal.RecUndo:
				img.Undo = append(img.Undo, rec)
			case wal.RecCommit:
				img.Committed = true
			case wal.RecComplete:
				img.Complete = true
			case wal.RecAbort:
				img.Aborted = true
			case wal.RecSentinel:
				if rec.DepTxID != 0 {
					img.DependsOn = append(img.DependsOn, TxKey{Thread: rec.DepThread, TxID: rec.DepTxID})
				}
			}
		}
	}
	rep.Transactions = len(images)

	// Classify.
	var candidates []TxKey
	for _, key := range order {
		img := images[key]
		switch {
		case img.Committed && !img.Complete:
			candidates = append(candidates, key)
		case img.Committed:
			rep.SkippedComplete++
		case img.Aborted:
			rep.SkippedAborted++
		case len(img.Undo) > 0:
			// Undo-logged (ATOM-style) transaction that never committed: roll
			// its in-place updates back, newest record first.
			rep.RolledBack = append(rep.RolledBack, key)
			for i := len(img.Undo) - 1; i >= 0; i-- {
				store.WriteLine(img.Undo[i].LineAddr, img.Undo[i].Data)
				rep.LinesRestored++
			}
		default:
			rep.SkippedActive++
		}
	}

	// Replay committed-but-incomplete transactions in dependency order.
	ordered, err := topoOrder(candidates, images)
	if err != nil {
		return rep, err
	}
	for _, key := range ordered {
		img := images[key]
		for _, rec := range img.Redo {
			store.WriteLine(rec.LineAddr, rec.Data)
			rep.LinesRestored++
		}
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
func topoOrder(candidates []TxKey, images map[TxKey]*TxImage) ([]TxKey, error) {
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
		for _, dep := range images[k].DependsOn {
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
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Thread != keys[j].Thread {
			return keys[i].Thread < keys[j].Thread
		}
		return keys[i].TxID < keys[j].TxID
	})
}
