package baselines

import (
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/engine"
	"dhtm/internal/htm"
	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// designs under test: the lock-based designs take the lock table through
// locks.SpinAcquire on every transaction; the HTMs take their fallback lock
// through it once retries run out.
var designs = []struct {
	name string
	new  func(*txn.Env) txn.Runtime
}{
	{"SO", func(e *txn.Env) txn.Runtime { return NewSO(e) }},
	{"ATOM", func(e *txn.Env) txn.Runtime { return NewATOM(e) }},
	{"NP", func(e *txn.Env) txn.Runtime { return NewNP(e) }},
	{"sdTM", func(e *txn.Env) txn.Runtime { return NewSdTM(e) }},
	{"LogTM-ATOM", func(e *txn.Env) txn.Runtime { return NewLogTMATOM(e) }},
}

// TestLocksSerializeContendedCounter has every core increment one shared
// counter under one lock. A critical section — a lock-based transaction, or
// an HTM's fallback path — must never overlap another, no increment may be
// lost, and every transaction must commit. The HTMs get two hardware
// attempts so that contention drives transactions onto the fallback lock.
func TestLocksSerializeContendedCounter(t *testing.T) {
	const cores, perCore = 8, 6
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.NumCores = cores
			cfg.MaxRetries = 2
			env, err := txn.NewEnv(cfg)
			if err != nil {
				t.Fatal(err)
			}
			counter := palloc.New(env.Store()).AllocLines(1)
			rt := d.new(env)

			inside, overlaps, exclusive := 0, 0, 0
			body := func(tx txn.Tx) error {
				switch tx.(type) {
				case *htm.PlainTx:
					// A lock-holding critical section: it runs exactly once
					// and cannot abort.
					exclusive++
					if inside++; inside > 1 {
						overlaps++
					}
					defer func() { inside-- }()
				}
				v := tx.Read(counter)
				for i := uint64(1); i <= 3; i++ {
					tx.Read(counter + 8*i)
				}
				tx.Write(counter, v+1)
				return nil
			}

			eng := engine.New(cores)
			var committed int
			eng.Run(func(core int, c *engine.Clock) {
				for i := 0; i < perCore; i++ {
					if rt.Run(core, c, &txn.Transaction{Body: body, LockIDs: []uint64{7}}).Committed {
						committed++
					}
					c.Advance(uint64(13 * core))
				}
				rt.Finish(core, c)
			})
			env.Hier.DrainClean()

			if overlaps != 0 {
				t.Errorf("%d critical sections overlapped another", overlaps)
			}
			if got := env.Store().ReadWord(counter); got != cores*perCore {
				t.Errorf("counter = %d, want %d (lost updates)", got, cores*perCore)
			}
			if committed != cores*perCore || env.Stats.TotalCommits() != cores*perCore {
				t.Errorf("committed %d (stats %d), want %d", committed, env.Stats.TotalCommits(), cores*perCore)
			}
			if exclusive == 0 {
				t.Error("no transaction ran under a lock")
			}
			if eng.Counts().Parks == 0 {
				t.Error("no core parked on a held lock")
			}
		})
	}
}

// TestDesignsKeepWorkloadInvariants runs the hash and queue micro-benchmarks
// on 8 contended cores under each design and checks every transaction
// commits and the durable image satisfies the workload's invariants.
func TestDesignsKeepWorkloadInvariants(t *testing.T) {
	const cores, perCore = 8, 8
	for _, d := range designs {
		for _, w := range []workloads.Workload{workloads.NewHash(), workloads.NewQueue()} {
			t.Run(d.name+"/"+w.Name(), func(t *testing.T) {
				cfg := config.Default()
				cfg.NumCores = cores
				env, err := txn.NewEnv(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := workloads.Run(env, d.new(env), w, workloads.Params{Cores: cores, Seed: 5}, perCore, true)
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != cores*perCore {
					t.Errorf("committed %d, want %d", res.Committed, cores*perCore)
				}
				env.Hier.DrainClean()
				if err := w.Verify(env.Store()); err != nil {
					t.Errorf("invariants: %v", err)
				}
			})
		}
	}
}

// writeBitWatch records, at each commit- and complete-record persist, whether
// core 0's L1 copy of line still carries its transactional write bit.
type writeBitWatch struct {
	env   *txn.Env
	line  uint64
	seen  map[memdev.TrafficClass]bool
	wBits map[memdev.TrafficClass]bool
}

// PersistWrite implements memdev.PersistObserver.
func (w *writeBitWatch) PersistWrite(_ uint64, ev memdev.PersistEvent) {
	if ev.Class != memdev.TrafficLogCommit && ev.Class != memdev.TrafficLogComplete {
		return
	}
	l := w.env.Hier.L1(0).Peek(w.line)
	w.seen[ev.Class] = true
	w.wBits[ev.Class] = l != nil && l.W
}

// TestLogTMATOMHoldsWriteSetUntilComplete checks LogTM-ATOM's commit order:
// the written line keeps its L1 write bit, so other cores still conflict on
// it, while the commit and complete records persist, and loses it only
// afterwards. Releasing it earlier would let another core consume and commit
// over a value that a crash before the commit record rolls back.
func TestLogTMATOMHoldsWriteSetUntilComplete(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 1
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line := palloc.New(env.Store()).AllocLines(1)
	rt := NewLogTMATOM(env)
	w := &writeBitWatch{env: env, line: line,
		seen: map[memdev.TrafficClass]bool{}, wBits: map[memdev.TrafficClass]bool{}}
	env.Ctl.SetPersistObserver(w)
	engine.New(1).Run(func(core int, c *engine.Clock) {
		body := func(tx txn.Tx) error { tx.Write(line, 7); return nil }
		if !rt.Run(core, c, &txn.Transaction{Body: body}).Committed {
			t.Error("transaction did not commit")
		}
	})
	for _, class := range []memdev.TrafficClass{memdev.TrafficLogCommit, memdev.TrafficLogComplete} {
		if !w.seen[class] {
			t.Errorf("no %v record persisted", class)
		} else if !w.wBits[class] {
			t.Errorf("the written line had lost its write bit when the %v record persisted", class)
		}
	}
	if l := env.Hier.L1(0).Peek(line); l == nil || l.W {
		t.Errorf("the committed line is missing from the L1 or still transactional: %+v", l)
	}
	if got := env.Store().ReadWord(line); got != 7 {
		t.Errorf("durable value %d, want 7", got)
	}
}

// classCount counts persist events by traffic class.
type classCount map[memdev.TrafficClass]int

// PersistWrite implements memdev.PersistObserver.
func (n classCount) PersistWrite(_ uint64, ev memdev.PersistEvent) { n[ev.Class]++ }

// TestLogTMATOMCommitSurvivesFallbackLock checks that a LogTM-ATOM
// transaction past its commit point cannot abort: core 1 stores the
// fallback lock, as a fallback taking it does, while core 0 persists its
// write set in place. The store hits the lock line in core 0's read set, yet
// core 0's transaction must commit without logging an abort.
func TestLogTMATOMCommitSurvivesFallbackLock(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 2
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line := palloc.New(env.Store()).AllocLines(1)
	rt := NewLogTMATOM(env)
	events := classCount{}
	env.Ctl.SetPersistObserver(events)
	var res txn.ExecResult
	done, hit := false, false
	engine.New(2).Run(func(core int, c *engine.Clock) {
		if core == 0 {
			body := func(tx txn.Tx) error { tx.Write(line, 7); return nil }
			res = rt.Run(core, c, &txn.Transaction{Body: body})
			done = true
			return
		}
		for !done && !hit {
			if rt.Ctxs[0].Committing {
				c.AdvanceTo(env.Hier.Store(core, fallbackLockAddr, 1, c.Now(), false).Done)
				hit = true
			}
			c.Advance(10)
		}
	})
	if !hit {
		t.Fatal("core 1 never saw core 0's transaction committing")
	}
	if !res.Committed || res.Aborts != 0 || events[memdev.TrafficLogAbort] != 0 {
		t.Errorf("committed %v after %d aborts, %d abort records", res.Committed, res.Aborts, events[memdev.TrafficLogAbort])
	}
	if got := env.Store().ReadWord(line); got != 7 {
		t.Errorf("durable value %d, want 7", got)
	}
}
