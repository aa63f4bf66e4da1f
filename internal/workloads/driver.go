package workloads

import (
	"fmt"
	"math/rand"

	"dhtm/internal/engine"
	"dhtm/internal/obs"
	"dhtm/internal/palloc"
	"dhtm/internal/probe"
	"dhtm/internal/stats"
	"dhtm/internal/txn"
)

// RunResult is the outcome of driving one (design, workload) pair. The json
// tags fix its machine-readable encoding, which the golden file in
// testdata/ pins.
type RunResult struct {
	Design   string       `json:"design"`
	Workload string       `json:"workload"`
	Stats    *stats.Stats `json:"stats,omitempty"`
	// Committed is the number of transactions that reached their commit
	// point; with the default driver it equals Cores*TxPerCore.
	Committed uint64 `json:"committed"`
	// Cycles is the makespan of the run.
	Cycles uint64 `json:"cycles"`
	// Phases is the wall-clock phase breakdown of the execution that produced
	// this result (clone/setup/run/verify). It describes one concrete
	// execution, not the result's semantics, so it is excluded from the JSON
	// encoding and never set on memo hits.
	Phases *obs.CellTrace `json:"-"`
	// Timeline is the cycle-domain probe recording of the run, present only
	// when the cell executed with tracing enabled. Like Phases it describes
	// one concrete execution, so it is excluded from the JSON encoding and
	// never set on memo hits.
	Timeline *probe.Timeline `json:"-"`
	// Sched is the engine's scheduling work for this run (core switches,
	// parks, skipped polls). Like Phases it describes one concrete
	// execution — the simulated machine is the same whatever it says — so
	// it is excluded from the JSON encoding and never set on memo hits.
	Sched engine.Counts `json:"-"`
}

// Throughput returns committed transactions per million cycles.
func (r RunResult) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles) * 1e6
}

// Run sets the workload up on the environment's persistent heap and drives
// txPerCore transactions per core through the runtime under the deterministic
// multi-core engine, then drains per-core completion work. The returned
// result references the environment's Stats.
//
// When finish is false the run stops at the last transaction's commit point
// without draining completion work or write-backs — the state crash-recovery
// tests want to exercise.
func Run(env *txn.Env, rt txn.Runtime, w Workload, p Params, txPerCore int, finish bool) (RunResult, error) {
	p = p.Defaults()
	if p.Cores != env.Cfg.NumCores {
		p.Cores = env.Cfg.NumCores
	}
	heap := palloc.New(env.Store())
	if err := w.Setup(heap, p); err != nil {
		return RunResult{}, fmt.Errorf("workloads: setting up %s: %w", w.Name(), err)
	}
	return RunPrepared(env, rt, w, p, txPerCore, finish)
}

// Stream returns core's transaction generator for a run of w with
// parameters p: its i-th call yields the core's i-th transaction. The drive
// loop and every serial replay of a run draw from it, so both see the same
// transactions.
func Stream(w Workload, p Params, core int) func() *txn.Transaction {
	rng := rand.New(rand.NewSource(p.Defaults().Seed + int64(core)*7919))
	return func() *txn.Transaction { return w.Next(core, rng) }
}

// RunPrepared is Run for an environment whose store already contains the
// workload's post-Setup image (a copy-on-write clone of a cached setup
// snapshot): it skips Setup and goes straight to the measured run. w must be
// the workload object that performed that Setup — workloads are read-only
// after Setup, so a snapshot-cache entry shares one object across cells. p
// must carry the same values the image was set up with; RunPrepared
// re-defaults it, so passing the pre-default parameter set of an equal key is
// fine.
func RunPrepared(env *txn.Env, rt txn.Runtime, w Workload, p Params, txPerCore int, finish bool) (RunResult, error) {
	p = p.Defaults()
	if p.Cores != env.Cfg.NumCores {
		p.Cores = env.Cfg.NumCores
	}

	eng := engine.New(env.Cfg.NumCores)
	if rec := env.Probe; rec != nil {
		// Arm the cycle-domain probe plane: record the cycle-0 row now and
		// let the engine fire the schedule. Sampling is pure observation — it
		// never advances clocks or touches simulator state — so traced and
		// untraced runs of the same seed are bit-identical.
		rec.Start()
		eng.SetSampler(rec.NextDue(), rec.Sample)
	}
	eng.Run(func(core int, c *engine.Clock) {
		next := Stream(w, p, core)
		for i := 0; i < txPerCore; i++ {
			rt.Run(core, c, next())
			// Non-transactional work between transactions (building the next
			// request); background completion phases overlap with it.
			c.Advance(p.ThinkCycles)
		}
		if finish {
			rt.Finish(core, c)
		} else {
			env.Stats.Core(core).FinalCycle = c.Now()
		}
	})

	res := RunResult{
		Design:    rt.Name(),
		Workload:  w.Name(),
		Stats:     env.Stats,
		Committed: env.Stats.TotalCommits(),
		Cycles:    env.Stats.TotalCycles(),
		Sched:     eng.Counts(),
	}
	if rec := env.Probe; rec != nil {
		rec.Finish(res.Cycles)
		res.Timeline = rec.Timeline()
	}
	return res, nil
}
