package baselines

import (
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/engine"
	"dhtm/internal/htm"
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
				case *lockedTx, *htm.FallbackTx:
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
