package recovery

import (
	"fmt"

	"dhtm/internal/memdev"
	"dhtm/internal/wal"
)

// refTx is what referenceRecover collected about one logged transaction:
// whole records, lines included.
type refTx struct {
	Redo      []wal.Record
	Undo      []wal.Record
	Committed bool
	Complete  bool
	Aborted   bool
	DependsOn []TxKey
}

// referenceRecover is the collect-then-replay recovery manager Recover
// replaced: it decodes every redo and undo record's line while it walks the
// logs, before it writes anything, and keeps each transaction's records in
// slices of its own. FuzzRecover holds Recover to its report and image.
func referenceRecover(store *memdev.Store) (*Report, error) {
	reg, err := wal.LoadRegistry(store)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	images := make(map[TxKey]*refTx)
	var order []TxKey

	for t := 0; t < reg.Threads(); t++ {
		var bad error
		log := reg.Log(t)
		err := log.Walk(store, func(rec wal.Record, off int) {
			if bad != nil {
				return
			}
			key := TxKey{Thread: t, TxID: rec.TxID}
			img, ok := images[key]
			if !ok {
				img = &refTx{}
				images[key] = img
				order = append(order, key)
			}
			if (rec.Type == wal.RecRedo || rec.Type == wal.RecUndo) && rec.LineAddr%memdev.LineBytes != 0 {
				bad = fmt.Errorf("recovery: thread %d tx %d: %v record at unaligned address %#x", t, rec.TxID, rec.Type, rec.LineAddr)
				return
			}
			switch rec.Type {
			case wal.RecRedo:
				rec.Data = log.LineAt(store, off)
				img.Redo = append(img.Redo, rec)
			case wal.RecUndo:
				rec.Data = log.LineAt(store, off)
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
		})
		if err != nil {
			return rep, fmt.Errorf("recovery: scanning thread %d log: %w", t, err)
		}
		rep.LogsScanned++
		if bad != nil {
			return rep, bad
		}
	}
	rep.Transactions = len(images)

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
			rep.RolledBack = append(rep.RolledBack, key)
			for i := len(img.Undo) - 1; i >= 0; i-- {
				store.WriteLine(img.Undo[i].LineAddr, img.Undo[i].Data)
				rep.LinesRestored++
			}
		default:
			rep.SkippedActive++
		}
	}

	ordered, err := topoOrder(candidates, func(k TxKey) []TxKey { return images[k].DependsOn })
	if err != nil {
		return rep, err
	}
	for _, key := range ordered {
		for _, rec := range images[key].Redo {
			store.WriteLine(rec.LineAddr, rec.Data)
			rep.LinesRestored++
		}
		rep.Replayed = append(rep.Replayed, key)
	}

	for t := 0; t < reg.Threads(); t++ {
		log := reg.Log(t)
		store.WriteWord(log.MetaAddr, 0)
		store.WriteWord(log.MetaAddr+8, 0)
		store.WriteWord(reg.Overflow(t).CountAddr, 0)
	}
	return rep, nil
}
