package baselines

import (
	"errors"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/engine"
	"dhtm/internal/htm"
	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// TestSdTMFallbackCountsRedoRecords runs sdTM with every transaction
// aborting its one hardware attempt, so each commits on the software
// fallback. The fallback persist logs one redo record per written line, then
// a commit and a complete record, and each must count as a log record.
func TestSdTMFallbackCountsRedoRecords(t *testing.T) {
	const cores, perCore, writes = 2, 3, 4
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.MaxRetries = 1
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heap := palloc.New(env.Store())
	rt := NewSdTM(env)
	errHW := errors.New("abort the hardware attempt")
	engine.New(cores).Run(func(core int, c *engine.Clock) {
		for i := 0; i < perCore; i++ {
			lines := heap.AllocLines(writes)
			body := func(tx txn.Tx) error {
				for j := uint64(0); j < writes; j++ {
					tx.Write(lines+64*j, j)
				}
				if _, fallback := tx.(*htm.PlainTx); !fallback {
					return errHW
				}
				return nil
			}
			rt.Run(core, c, &txn.Transaction{Body: body})
		}
		rt.Finish(core, c)
	})
	var fallbacks, lines uint64
	for core := 0; core < cores; core++ {
		cs := env.Stats.Core(core)
		fallbacks += cs.Fallbacks
		lines += cs.WriteSetLines
	}
	if fallbacks != cores*perCore || lines != cores*perCore*writes {
		t.Fatalf("%d fallbacks writing %d lines, want %d and %d", fallbacks, lines, cores*perCore, cores*perCore*writes)
	}
	if want := lines + 2*fallbacks; env.Stats.LogRecords != want {
		t.Errorf("log records %d, want one per fallback-written line plus a commit and a complete record per fallback (%d)", env.Stats.LogRecords, want)
	}
}

// logStep is one of core 0's log records: its class, the line a redo record
// logs and the cycle at which core 0 issued it.
type logStep struct {
	class memdev.TrafficClass
	line  uint64
	at    uint64
}

// logWatch records core 0's redo and commit records in persist order.
type logWatch struct {
	clock  txn.Clock // core 0's
	lo, hi uint64    // core 0's log data area
	steps  []logStep
}

// PersistWrite implements memdev.PersistObserver.
func (w *logWatch) PersistWrite(_ uint64, ev memdev.PersistEvent) {
	if ev.Addr < w.lo || ev.Addr >= w.hi {
		return
	}
	s := logStep{class: ev.Class, at: w.clock.Now()}
	if ev.Class == memdev.TrafficLogRedo {
		rec, _, err := wal.DecodeRecord(ev.Data, 0)
		if err != nil {
			panic(err)
		}
		s.line = rec.LineAddr
	}
	if ev.Class == memdev.TrafficLogRedo || ev.Class == memdev.TrafficLogCommit {
		w.steps = append(w.steps, s)
	}
}

// TestSOCommitOrder checks SO's commit path. Core 0 writes two lines under a
// lock, returning to the first, and core 1 waits for the same lock. Every
// line's redo record must be durable before the commit record is issued,
// and the commit record durable before core 1 gets the lock.
func TestSOCommitOrder(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 2
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := palloc.New(env.Store()).AllocLines(2)
	b := a + 64
	rt := NewSO(env)
	log := env.Registry.Log(0)
	w := &logWatch{lo: log.Base, hi: log.Base + uint64(8*log.SizeWords)}
	env.Ctl.SetPersistObserver(w)
	var entered uint64 // when core 1's body starts, holding the lock
	engine.New(2).Run(func(core int, c *engine.Clock) {
		body := func(tx txn.Tx) error {
			tx.Write(a, 1)
			tx.Write(b, 2)
			tx.Write(a+8, 3)
			return nil
		}
		if core == 0 {
			w.clock = c
		} else {
			// Start after core 0 holds the lock.
			c.Advance(10)
			body = func(tx txn.Tx) error {
				entered = c.Now()
				tx.Read(a)
				return nil
			}
		}
		rt.Run(core, c, &txn.Transaction{Body: body, LockIDs: []uint64{7}})
		rt.Finish(core, c)
	})

	L := cfg.NVMWriteLatency
	// One record per run of stores to a line: a, b, then a again.
	if len(w.steps) != 4 {
		t.Fatalf("core 0 logged %+v, want three redo records and a commit record", w.steps)
	}
	redo, commit := w.steps[:3], w.steps[3]
	for i, la := range []uint64{a, b, a} {
		if redo[i].class != memdev.TrafficLogRedo || redo[i].line != la {
			t.Errorf("record %d is %v of line %#x, want the redo record of %#x", i, redo[i].class, redo[i].line, la)
		}
		if commit.at < redo[i].at+L {
			t.Errorf("commit record issued at %d, before the redo record of %#x (issued at %d) is durable",
				commit.at, la, redo[i].at)
		}
	}
	if commit.class != memdev.TrafficLogCommit {
		t.Fatalf("last record is %v, want the commit record", commit.class)
	}
	if entered < commit.at+L {
		t.Errorf("core 1 took the lock at %d, before core 0's commit record (issued at %d) is durable", entered, commit.at)
	}
}
