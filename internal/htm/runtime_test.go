package htm_test

import (
	"errors"
	"reflect"
	"testing"

	"dhtm/internal/baselines"
	"dhtm/internal/config"
	"dhtm/internal/core"
	"dhtm/internal/engine"
	"dhtm/internal/htm"
	"dhtm/internal/memdev"
	"dhtm/internal/stats"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// design is an HTM design under test and the shared runtime it embeds.
type design struct {
	name string
	new  func(*txn.Env) (txn.Runtime, *htm.Runtime)
}

// htmDesigns are every design built on the shared runtime.
var htmDesigns = []design{
	{"NP", func(e *txn.Env) (txn.Runtime, *htm.Runtime) { d := baselines.NewNP(e); return d, d.Runtime }},
	{"sdTM", func(e *txn.Env) (txn.Runtime, *htm.Runtime) { d := baselines.NewSdTM(e); return d, d.Runtime }},
	{"LogTM-ATOM", func(e *txn.Env) (txn.Runtime, *htm.Runtime) {
		d := baselines.NewLogTMATOM(e)
		return d, d.Runtime
	}},
	{"DHTM", func(e *txn.Env) (txn.Runtime, *htm.Runtime) {
		d := core.New(e, core.Options{})
		return d, d.Runtime
	}},
}

var errExplicit = errors.New("explicit abort")

// runOne builds a one-core machine with the given retry budget, runs body
// once on core 0 under the engine and returns the result and core 0's stats.
func runOne(t *testing.T, d design, maxRetries int, body func(rt *htm.Runtime, c txn.Clock, tx txn.Tx) error) (txn.ExecResult, *txn.Env) {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 1
	cfg.MaxRetries = maxRetries
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, rt := d.new(env)
	var res txn.ExecResult
	engine.New(1).Run(func(_ int, c *engine.Clock) {
		res = r.Run(0, c, &txn.Transaction{Body: func(tx txn.Tx) error { return body(rt, c, tx) }})
		r.Finish(0, c)
	})
	return res, env
}

// checkCounts compares a core's outcome counters with the expected values.
func checkCounts(t *testing.T, cs *stats.CoreStats, commits, aborts, fallbacks uint64, byReason map[stats.AbortReason]uint64) {
	t.Helper()
	if cs.Commits != commits || cs.Aborts != aborts || cs.Fallbacks != fallbacks {
		t.Errorf("commits/aborts/fallbacks = %d/%d/%d, want %d/%d/%d",
			cs.Commits, cs.Aborts, cs.Fallbacks, commits, aborts, fallbacks)
	}
	for r := range cs.AbortsByReason {
		if got, want := cs.AbortsByReason[r], byReason[stats.AbortReason(r)]; got != want {
			t.Errorf("AbortsByReason[%v] = %d, want %d", stats.AbortReason(r), got, want)
		}
	}
}

// TestRetryLoopFallsBackOnce: a body that always aborts explicitly uses its
// MaxRetries hardware attempts, then commits exactly once on the fallback.
func TestRetryLoopFallsBackOnce(t *testing.T) {
	const retries = 3
	for _, d := range htmDesigns {
		t.Run(d.name, func(t *testing.T) {
			res, env := runOne(t, d, retries, func(_ *htm.Runtime, _ txn.Clock, tx txn.Tx) error {
				tx.Write(wal.HeapBase, tx.Read(wal.HeapBase+64)+1)
				return errExplicit
			})
			if !res.Committed || res.Aborts != retries {
				t.Errorf("result %+v, want committed after %d aborts", res, retries)
			}
			checkCounts(t, env.Stats.Core(0), 1, retries, 1, map[stats.AbortReason]uint64{
				stats.AbortExplicit: retries,
				stats.AbortFallback: 1,
			})
		})
	}
}

// TestRetryLoopRecordsExplicitAbort: an explicit abort on the first attempt
// is recorded as AbortExplicit and the retry commits in hardware.
func TestRetryLoopRecordsExplicitAbort(t *testing.T) {
	for _, d := range htmDesigns {
		t.Run(d.name, func(t *testing.T) {
			attempt := 0
			res, env := runOne(t, d, 8, func(_ *htm.Runtime, _ txn.Clock, tx txn.Tx) error {
				tx.Write(wal.HeapBase, 1)
				if attempt++; attempt == 1 {
					return errExplicit
				}
				return nil
			})
			if !res.Committed || res.Aborts != 1 {
				t.Errorf("result %+v, want committed after 1 abort", res)
			}
			checkCounts(t, env.Stats.Core(0), 1, 1, 0, map[stats.AbortReason]uint64{stats.AbortExplicit: 1})
		})
	}
}

// TestRetryLoopRecordsDoomerReason: a transaction doomed by another core's
// arbiter decision while its body runs is charged the doomer's reason, not
// a conflict or an explicit abort.
func TestRetryLoopRecordsDoomerReason(t *testing.T) {
	for _, d := range htmDesigns {
		t.Run(d.name, func(t *testing.T) {
			attempt := 0
			res, env := runOne(t, d, 8, func(rt *htm.Runtime, c txn.Clock, tx txn.Tx) error {
				tx.Write(wal.HeapBase, 1)
				if attempt++; attempt == 1 {
					// What a remote winner's arbiter callback does to the
					// loser: abort it at the current cycle.
					rt.Abort(0, stats.AbortLLCCapacity, c.Now())
				}
				return nil
			})
			if !res.Committed || res.Aborts != 1 {
				t.Errorf("result %+v, want committed after 1 abort", res)
			}
			checkCounts(t, env.Stats.Core(0), 1, 1, 0, map[stats.AbortReason]uint64{stats.AbortLLCCapacity: 1})
		})
	}
}

// TestDHTMLogOverflowGrowsLog: a DHTM transaction whose redo records do not
// fit the log aborts with AbortLogOverflow, the log doubles, and the retry
// commits in hardware.
func TestDHTMLogOverflowGrowsLog(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 1
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(env, core.Options{})
	log := env.Registry.Log(0)
	log.SizeWords = 8
	var res txn.ExecResult
	engine.New(1).Run(func(_ int, c *engine.Clock) {
		res = d.Run(0, c, &txn.Transaction{Body: func(tx txn.Tx) error {
			for i := uint64(0); i < 4; i++ {
				tx.Write(wal.HeapBase+64*i, i+1)
			}
			return nil
		}})
		d.Finish(0, c)
	})
	cs := env.Stats.Core(0)
	if !res.Committed || cs.Fallbacks != 0 {
		t.Fatalf("result %+v with %d fallbacks, want a hardware commit", res, cs.Fallbacks)
	}
	overflows := cs.AbortsByReason[stats.AbortLogOverflow]
	if overflows == 0 || overflows != cs.Aborts {
		t.Fatalf("aborts %d, log-overflow aborts %d: want only log-overflow aborts", cs.Aborts, overflows)
	}
	if want := 8 << overflows; log.SizeWords != want {
		t.Fatalf("log is %d words after %d log-overflow aborts, want %d", log.SizeWords, overflows, want)
	}
}

// TestFallbackCountsOwnSets: a fallback commit is charged its own read set,
// its own dirty set and its cycles — not those of the aborted attempt
// before it.
func TestFallbackCountsOwnSets(t *testing.T) {
	const reads, writes = 3, 5
	for _, d := range htmDesigns {
		t.Run(d.name, func(t *testing.T) {
			_, env := runOne(t, d, 2, func(_ *htm.Runtime, _ txn.Clock, tx txn.Tx) error {
				for i := uint64(0); i < reads; i++ {
					tx.Read(wal.HeapBase + 64*i)
				}
				for i := uint64(0); i < writes; i++ {
					tx.Write(wal.HeapBase+64*(reads+i), i)
				}
				return errExplicit
			})
			cs := env.Stats.Core(0)
			if cs.Fallbacks != 1 || cs.ReadSetLines != reads || cs.WriteSetLines != writes || cs.TxCycles == 0 {
				t.Errorf("fallbacks %d, read set %d, write set %d, tx cycles %d; want 1, %d, %d, > 0",
					cs.Fallbacks, cs.ReadSetLines, cs.WriteSetLines, cs.TxCycles, reads, writes)
			}
		})
	}
}

// abortRecords counts the abort records persisted into one thread log's
// region.
type abortRecords struct {
	lo, hi uint64
	n      int
}

// PersistWrite implements memdev.PersistObserver.
func (a *abortRecords) PersistWrite(_ uint64, ev memdev.PersistEvent) {
	if ev.Class == memdev.TrafficLogAbort && ev.Addr >= a.lo && ev.Addr < a.hi {
		a.n++
	}
}

// beginSpin is the fallback-lock wait of TestBeginSpinAppendsOneAbort: one
// run of its two-core program on a fresh DHTM machine.
type beginSpin struct {
	env     *txn.Env
	res     [2]txn.ExecResult
	final   []uint64
	counts  engine.Counts
	records int // abort records core 0 appended to its log
}

// runBeginSpin runs the program: core 1 aborts in hardware and then holds
// the fallback lock for many backoff periods, while core 0 begins once the
// lock is held. With sampled set, a sampler that never fires is installed,
// which makes every spin poll instead of park.
func runBeginSpin(t *testing.T, sampled bool) beginSpin {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 2
	cfg.MaxRetries = 1
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(env, core.Options{})
	log := env.Registry.Log(0)
	rec := &abortRecords{lo: log.Base, hi: log.Base + uint64(log.MaxWords)*8}
	env.Ctl.SetPersistObserver(rec)
	hold := 100 * txn.Backoff(cfg, 2)
	out := beginSpin{env: env}
	eng := engine.New(2)
	if sampled {
		eng.SetSampler(1<<62, func(uint64) uint64 { return 0 })
	}
	out.final = eng.Run(func(id int, c *engine.Clock) {
		var body func(tx txn.Tx) error
		if id == 1 {
			// Abort in hardware, then hold the fallback lock for hold cycles.
			body = func(tx txn.Tx) error {
				if _, plain := tx.(*htm.PlainTx); !plain {
					return errExplicit
				}
				tx.Write(wal.HeapBase, 1)
				c.Advance(hold)
				return nil
			}
		} else {
			// Begin once core 1 holds the lock.
			c.Advance(hold / 10)
			body = func(tx txn.Tx) error {
				tx.Write(wal.HeapBase+memdev.LineBytes, 2)
				return nil
			}
		}
		out.res[id] = d.Run(id, c, &txn.Transaction{Body: body})
		d.Finish(id, c)
	})
	out.counts = eng.Counts()
	out.records = rec.n
	return out
}

// TestBeginSpinAppendsOneAbort: while core 1 holds the fallback lock for
// many backoff periods, DHTM core 0 finds it held at begin, aborts that
// attempt once and then waits for the release without opening a log
// transaction, so its log gets exactly one abort record. The wait parks,
// and the machine it leaves equals that of a run whose wait polls.
func TestBeginSpinAppendsOneAbort(t *testing.T) {
	got := runBeginSpin(t, false)
	env, res := got.env, got.res
	if env.Stats.Core(1).Fallbacks != 1 || env.Stats.Core(0).Fallbacks != 0 {
		t.Fatalf("fallbacks %d/%d, want core 1 only", env.Stats.Core(0).Fallbacks, env.Stats.Core(1).Fallbacks)
	}
	if !res[0].Committed || res[0].End < res[1].End {
		t.Fatalf("core 0 committed %v at %d, before core 1's fallback ended at %d", res[0].Committed, res[0].End, res[1].End)
	}
	if got.records != 1 {
		t.Fatalf("core 0 appended %d abort records while the lock was held, want 1", got.records)
	}
	if got.counts.Parks < 1 || got.counts.SkippedPolls == 0 {
		t.Fatalf("core 0's wait did not park: %+v", got.counts)
	}
	ref := runBeginSpin(t, true)
	if ref.counts.Parks != 0 {
		t.Fatalf("sampled run parked %d times", ref.counts.Parks)
	}
	if !reflect.DeepEqual(got.env.Stats, ref.env.Stats) || !reflect.DeepEqual(got.final, ref.final) ||
		got.res != ref.res || got.records != ref.records {
		t.Fatalf("parked wait differs from polling: final clocks %v vs %v, results %+v vs %+v\n%+v\nvs\n%+v",
			got.final, ref.final, got.res, ref.res, got.env.Stats, ref.env.Stats)
	}
}
