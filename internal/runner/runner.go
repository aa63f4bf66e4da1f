// Package runner executes declarative experiment grids. An experiment is a
// Plan — a flat list of Cells, each naming one independent simulation
// (design × workload × core count × sweep overrides) — and the runner fans
// the cells out across a pool of workers. Every cell builds its own fully
// isolated simulated system, so the sweep is embarrassingly parallel: results
// land in plan order regardless of completion order, per-cell seeds are
// derived from the cell's content rather than its schedule, and errors are
// collected per cell instead of aborting the sweep. Together these make a
// parallel run byte-identical to a serial one.
package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dhtm/internal/config"
	"dhtm/internal/obs"
	"dhtm/internal/stats"
	"dhtm/internal/workloads"
)

// Sweep metrics land in obs.Default: every sweep in the process (experiment
// grids, scenario sweeps, crash-test counting passes) rolls into one
// telemetry plane.
// Counters are monotone totals, so per-plan numbers stay in ResultSet.
var (
	metricCellsStarted = obs.Default.Counter("dhtm_runner_cells_started_total",
		"Sweep cells handed to a worker for execution.")
	metricCellsOK = obs.Default.Counter("dhtm_runner_cells_completed_total",
		"Sweep cells completed, by outcome.", obs.L("status", "ok"))
	metricCellsCached = obs.Default.Counter("dhtm_runner_cells_completed_total",
		"Sweep cells completed, by outcome.", obs.L("status", "cached"))
	metricCellsFailed = obs.Default.Counter("dhtm_runner_cells_completed_total",
		"Sweep cells completed, by outcome.", obs.L("status", "failed"))
	metricCellSeconds = obs.Default.Histogram("dhtm_runner_cell_seconds",
		"Wall-clock duration of actually-simulated (non-cached) cells.", obs.DurationBuckets)
	metricPhases = obs.CellPhaseHistograms(obs.Default)
)

// ErrCancelled marks cells whose sweep was cancelled before they could run.
// It wraps context.Canceled, so both errors.Is(err, ErrCancelled) and
// errors.Is(err, context.Canceled) hold.
var ErrCancelled = fmt.Errorf("runner: cell cancelled: %w", context.Canceled)

// DefaultSeed is the base seed used when Options.Seed is zero. It matches the
// historical workloads.Params default so unscripted runs stay comparable.
const DefaultSeed = 42

// Overrides are the per-cell deviations from the Table III base machine.
// The zero value of each field keeps the base machine's value, and only a
// value that differs from it contributes to the cell's identity key.
type Overrides struct {
	// LogBufferEntries sets the DHTM coalescing log-buffer size (the
	// Figure 6 sweep axis).
	LogBufferEntries int `json:"log_buffer_entries,omitempty"`
	// BandwidthScale multiplies the memory bandwidth (the Table VII sweep
	// axis).
	BandwidthScale float64 `json:"bandwidth_scale,omitempty"`
	// ConflictPolicy sets the conflict-resolution policy (the ablation
	// axis). Its zero value is the base machine's first-writer-wins.
	ConflictPolicy config.ConflictPolicy `json:"conflict_policy,omitempty"`
}

// baseMachine is the Table III configuration every cell starts from.
var baseMachine = config.Default()

// Cell is one independent simulation in a sweep grid.
type Cell struct {
	// ID addresses the cell's result within its plan (reducers look results
	// up by ID). IDs must be unique within a plan.
	ID string `json:"id"`
	// Design is the transactional design to instantiate (harness.Designs).
	Design string `json:"design"`
	// Workload names the benchmark to drive.
	Workload string `json:"workload"`
	// Cores overrides the simulated core count when > 0.
	Cores int `json:"cores,omitempty"`
	// TxPerCore is the number of transactions each core issues (0 = 16).
	TxPerCore int `json:"tx_per_core,omitempty"`
	// OpsPerTx overrides the workload's per-transaction operation count when
	// > 0 — the footprint axis of the scenario API. Zero keeps the
	// workload's own default, and contributes nothing to the cell's identity
	// key, so pre-existing cells keep their derived seeds.
	OpsPerTx int `json:"ops_per_tx,omitempty"`
	// Seed is the workload generation seed. Zero means "derive": the runner
	// fills it from the sweep's base seed and the cell's identity key.
	Seed int64 `json:"seed,omitempty"`
	// Overrides deviates from the base machine configuration.
	Overrides Overrides `json:"overrides,omitempty"`
}

// Config builds the cell's machine: the Table III configuration with the
// cell's core count and overrides applied, then validated. It is the one
// mapping from a cell to its machine — harness.Execute, the crash-point
// explorer, dhtm-sim and dhtm.NewSystem all build theirs here — so a cell
// re-run under dhtm-sim simulates exactly what its sweep simulated. A
// negative override or an unknown conflict policy is an error, never a
// silent fallback to the default.
func (c Cell) Config() (config.Config, error) {
	ov := c.Overrides
	switch {
	case ov.LogBufferEntries < 0:
		return config.Config{}, fmt.Errorf("runner: log-buffer entries override %d is negative", ov.LogBufferEntries)
	case ov.BandwidthScale < 0:
		return config.Config{}, fmt.Errorf("runner: bandwidth scale override %g is negative", ov.BandwidthScale)
	}
	cfg := baseMachine
	if c.Cores > 0 {
		cfg.NumCores = c.Cores
	}
	if ov.LogBufferEntries > 0 {
		cfg.LogBufferEntries = ov.LogBufferEntries
	}
	if ov.BandwidthScale > 0 {
		cfg.BandwidthScale = ov.BandwidthScale
	}
	cfg.ConflictPolicy = ov.ConflictPolicy
	if err := cfg.Validate(); err != nil {
		return config.Config{}, err
	}
	return cfg, nil
}

// Axis names a Cell field that a grid can vary. Each renders as one
// name=value term (Cell.Term), the single spelling of that field in
// Cell.Key and in scenario sweep cell IDs.
type Axis int

const (
	AxisCores     Axis = iota // cores=4
	AxisTx                    // tx=8
	AxisOps                   // ops=3
	AxisSeed                  // seed=7
	AxisLogBuf                // logbuf=16
	AxisBandwidth             // bw=2
	AxisPolicy                // policy=requester-wins
)

// Term renders the cell's value on axis a as a name=value term.
func (c Cell) Term(a Axis) string { return string(c.appendTerm(nil, a)) }

// appendTerm appends Term(a) to b.
func (c Cell) appendTerm(b []byte, a Axis) []byte {
	switch a {
	case AxisCores:
		return strconv.AppendInt(append(b, "cores="...), int64(c.Cores), 10)
	case AxisTx:
		return strconv.AppendInt(append(b, "tx="...), int64(c.TxPerCore), 10)
	case AxisOps:
		return strconv.AppendInt(append(b, "ops="...), int64(c.OpsPerTx), 10)
	case AxisSeed:
		return strconv.AppendInt(append(b, "seed="...), c.Seed, 10)
	case AxisLogBuf:
		return strconv.AppendInt(append(b, "logbuf="...), int64(c.Overrides.LogBufferEntries), 10)
	case AxisBandwidth:
		return strconv.AppendFloat(append(b, "bw="...), c.Overrides.BandwidthScale, 'g', -1, 64)
	case AxisPolicy:
		return append(append(b, "policy="...), c.Overrides.ConflictPolicy.String()...)
	}
	panic(fmt.Sprintf("runner: unknown axis %d", int(a)))
}

// Key is the cell's semantic identity: every field that changes what is
// simulated, and nothing that depends on where the cell sits in a plan. Two
// cells with equal keys receive equal derived seeds and therefore produce
// identical results, even across different experiments. A Memo answers
// cells by key and seed, so a field that changes the simulation without a
// key term would serve one cell's result for another; TestKeyCoversEveryField
// guards this. An override at its base-machine value adds no term, so a
// cell that spells out a default keys like one that leaves it unset; set
// overrides follow in term-name order.
func (c Cell) Key() string {
	b := make([]byte, 0, 96)
	b = append(append(append(b, c.Design...), '|'), c.Workload...)
	b = c.appendTerm(append(b, '|'), AxisCores)
	b = c.appendTerm(append(b, '|'), AxisTx)
	if c.OpsPerTx > 0 {
		b = c.appendTerm(append(b, '|'), AxisOps)
	}
	ov, sep := c.Overrides, byte('|')
	if ov.BandwidthScale > 0 && ov.BandwidthScale != baseMachine.BandwidthScale {
		b, sep = c.appendTerm(append(b, sep), AxisBandwidth), ','
	}
	if ov.LogBufferEntries > 0 && ov.LogBufferEntries != baseMachine.LogBufferEntries {
		b, sep = c.appendTerm(append(b, sep), AxisLogBuf), ','
	}
	if ov.ConflictPolicy != baseMachine.ConflictPolicy {
		b = c.appendTerm(append(b, sep), AxisPolicy)
	}
	return string(b)
}

// DeriveSeed mixes the sweep's base seed with the cell's identity key. The
// derivation is pure, so any cell can be re-run individually (dhtm-sim with
// the same -seed and one flag per Cell field) and reproduce its in-sweep
// numbers exactly.
func DeriveSeed(base int64, c Cell) int64 {
	if base == 0 {
		base = DefaultSeed
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|", base)
	h.Write([]byte(c.Key()))
	// The splitmix64 finalizer spreads the FNV bits; keep the seed positive
	// so it never collides with the zero "derive me" sentinel.
	z := Mix64(h.Sum64())
	s := int64(z &^ (1 << 63))
	if s == 0 {
		s = DefaultSeed
	}
	return s
}

// Mix64 is the splitmix64 finalizer: a cheap, high-quality bit mixer for
// deterministic, content-derived pseudo-randomness (seed derivation here,
// point sampling and torn-prefix lengths in the crash-point explorer).
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Plan is a declarative experiment: a named grid of independent cells.
type Plan struct {
	// Name identifies the sweep in progress reports and result documents.
	Name string `json:"name"`
	// Cells are the grid points. Order fixes result order, nothing else.
	Cells []Cell `json:"cells"`
}

// Add appends a cell and returns its ID, for fluent plan construction.
func (p *Plan) Add(c Cell) string {
	p.Cells = append(p.Cells, c)
	return c.ID
}

// Validate rejects plans with duplicate or empty cell IDs, which would make
// result lookup ambiguous.
func (p Plan) Validate() error {
	seen := make(map[string]int, len(p.Cells))
	for i, c := range p.Cells {
		if c.ID == "" {
			return fmt.Errorf("runner: plan %q: cell %d has an empty ID", p.Name, i)
		}
		if j, dup := seen[c.ID]; dup {
			return fmt.Errorf("runner: plan %q: duplicate cell ID %q (cells %d and %d)", p.Name, c.ID, j, i)
		}
		seen[c.ID] = i
	}
	return nil
}

// ExecFunc runs one cell to completion on a fresh, fully isolated simulated
// system and returns its result. The harness provides the canonical
// implementation (harness.Execute); tests substitute their own.
type ExecFunc func(Cell) (workloads.RunResult, error)

// Result is the outcome of one cell.
type Result struct {
	// Cell echoes the executed cell with its derived seed filled in.
	Cell Cell `json:"cell"`
	// Run holds the simulation outcome; its Stats are a private snapshot.
	Run workloads.RunResult `json:"-"`
	// Err is the cell's failure, nil on success. Failures never abort the
	// sweep; sibling cells still run and report. Cells skipped because the
	// sweep's context was cancelled carry ErrCancelled.
	Err error `json:"-"`
	// Cached reports that the result came from a Memo's held result rather
	// than a simulation this sweep ran itself.
	Cached bool `json:"cached,omitempty"`
	// Elapsed is host wall-clock time spent simulating the cell.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// ProgressEvent reports one completed cell to a progress callback.
type ProgressEvent struct {
	// Done cells so far (including this one) out of Total.
	Done, Total int
	// Result is the completed cell's outcome.
	Result Result
}

// Options configures a sweep execution.
type Options struct {
	// Parallel is the worker-pool size; <= 0 means GOMAXPROCS.
	Parallel int
	// Seed is the base seed that per-cell seeds are derived from; zero means
	// DefaultSeed.
	Seed int64
	// Progress, when non-nil, is invoked once per completed cell. Calls are
	// serialized (never concurrent) but arrive in completion order, which
	// under parallelism is not plan order.
	Progress func(ProgressEvent)
}

// ResultSet holds a sweep's outcomes in plan order.
type ResultSet struct {
	Plan    Plan
	Results []Result
	byID    map[string]int
}

// Get returns the result of the cell with the given ID.
func (rs *ResultSet) Get(id string) (Result, bool) {
	i, ok := rs.byID[id]
	if !ok {
		return Result{}, false
	}
	return rs.Results[i], true
}

// Run returns the RunResult for a cell ID, with a descriptive error when the
// cell is missing or failed — the lookup reducers want.
func (rs *ResultSet) Run(id string) (workloads.RunResult, error) {
	r, ok := rs.Get(id)
	if !ok {
		return workloads.RunResult{}, fmt.Errorf("runner: plan %q has no cell %q", rs.Plan.Name, id)
	}
	if r.Err != nil {
		return workloads.RunResult{}, fmt.Errorf("runner: cell %q: %w", id, r.Err)
	}
	return r.Run, nil
}

// Err joins every cell failure (nil when the whole sweep succeeded).
func (rs *ResultSet) Err() error {
	var errs []error
	for _, r := range rs.Results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("cell %q: %w", r.Cell.ID, r.Err))
		}
	}
	return errors.Join(errs...)
}

// MergedStats aggregates the counters of every successful cell into one
// Stats, in plan order (Merge is order-independent, so parallel and serial
// sweeps agree).
func (rs *ResultSet) MergedStats() *stats.Stats {
	agg := stats.New(0)
	for _, r := range rs.Results {
		if r.Err == nil && r.Run.Stats != nil {
			agg.Merge(r.Run.Stats)
		}
	}
	return agg
}

// Elapsed sums host time across cells (total simulation work, which under
// parallelism exceeds wall-clock time).
func (rs *ResultSet) Elapsed() time.Duration {
	var d time.Duration
	for _, r := range rs.Results {
		d += r.Elapsed
	}
	return d
}

// ForEach runs fn(i) for every i in [0, n) on a pool of workers goroutines
// (<= 0 means GOMAXPROCS) and returns when all calls have finished. It is the
// raw fan-out primitive under Run; other sweep-shaped subsystems (the
// crash-point explorer) reuse it to scale across host cores. fn must be safe
// to call concurrently for distinct indices.
//
// Cancelling ctx stops the dispatch of further indices; calls already in
// flight run to completion (a simulation cell cannot be interrupted
// mid-run), so ForEach still returns only when every started call has
// finished. It reports the number of indices dispatched — n unless the
// context was cancelled.
func ForEach(ctx context.Context, n, workers int, fn func(i int)) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	dispatched := 0
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
			dispatched++
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return dispatched
}

// Run executes every cell of the plan through exec on a pool of
// opts.Parallel workers and returns the results in plan order. Each result's
// Stats are snapshotted, so they stay valid and independent after the cell's
// simulated system is garbage. A cell failure is recorded in its Result and
// the sweep continues. Every cell is simulated: Memo.Run is the variant that
// answers repeated cells from memory.
//
// Cancelling ctx stops the sweep cleanly: in-flight cells finish and report
// normally, never-started cells report ErrCancelled, and Run still returns
// the full plan-ordered ResultSet so partial progress is not lost.
func Run(ctx context.Context, plan Plan, exec ExecFunc, opts Options) (*ResultSet, error) {
	return run(ctx, plan, exec, opts, nil)
}

// run is Run reading through memo when it is non-nil.
func run(ctx context.Context, plan Plan, exec ExecFunc, opts Options, memo *Memo) (*ResultSet, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	rs := &ResultSet{
		Plan:    plan,
		Results: make([]Result, len(plan.Cells)),
		byID:    make(map[string]int, len(plan.Cells)),
	}
	for i, c := range plan.Cells {
		rs.byID[c.ID] = i
	}

	var (
		mu   sync.Mutex // serializes Progress and the done counter
		done int
	)
	dispatched := ForEach(ctx, len(plan.Cells), opts.Parallel, func(i int) {
		cell := seeded(plan.Cells[i], opts.Seed)
		start := time.Now()
		var res Result
		if err := ctx.Err(); err != nil {
			// Dispatched before the cancellation won the race: skip the
			// simulation but keep the per-cell error reporting uniform.
			res = Result{Cell: cell, Err: ErrCancelled}
		} else {
			metricCellsStarted.Inc()
			run, cached, err := execute(cell, memo, exec)
			res = Result{Cell: cell, Run: run, Err: err, Cached: cached, Elapsed: time.Since(start)}
			switch {
			case err != nil:
				metricCellsFailed.Inc()
			case cached:
				metricCellsCached.Inc()
			default:
				metricCellsOK.Inc()
				metricCellSeconds.Observe(res.Elapsed.Seconds())
			}
			metricPhases.ObserveTrace(run.Phases)
		}
		rs.Results[i] = res
		if opts.Progress != nil {
			mu.Lock()
			done++
			opts.Progress(ProgressEvent{Done: done, Total: len(plan.Cells), Result: res})
			mu.Unlock()
		}
	})
	// Dispatch is sequential, so the cells a cancelled dispatcher never
	// handed out are exactly the suffix [dispatched:]. They still get a full
	// Result (with their derived seed, for later resumption) and a distinct
	// error, so reducers and reports see every cell exactly once.
	for i := dispatched; i < len(rs.Results); i++ {
		rs.Results[i] = Result{Cell: seeded(plan.Cells[i], opts.Seed), Err: ErrCancelled}
	}
	return rs, nil
}

// seeded fills a cell's derived seed.
func seeded(c Cell, base int64) Cell {
	if c.Seed == 0 {
		c.Seed = DeriveSeed(base, c)
	}
	return c
}

// execute runs one seeded cell, through memo when it is non-nil. The
// result's Stats are always a private snapshot.
func execute(cell Cell, memo *Memo, exec ExecFunc) (workloads.RunResult, bool, error) {
	if memo != nil {
		return memo.get(cell, exec)
	}
	run, err := exec(cell)
	if err == nil {
		run = detach(run)
	}
	return run, false, err
}
