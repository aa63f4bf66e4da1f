// Package crashtest is the crash-point exploration subsystem: exhaustive
// durability torture testing for the simulated machine.
//
// The repo's original crash tests prove crash consistency at one hand-picked
// instant (after each core's last committed-but-incomplete transaction). This
// package proves it at *every* instant: a counting pass runs the workload once
// with a PersistObserver installed on the memory controller, numbering every
// durable write (redo/undo appends, commit markers, sentinels, in-place
// write-backs, log truncations, each with its payload) as a crash point. The
// explorer then replays that trace onto the run's starting image and
// snapshots the persistent image just before each selected point's durable
// write k applies — exactly the image a power failure at that instant
// leaves behind, with all volatile state and not-yet-persisted writes
// dropped. The replay must end at the run's final image, which guards that
// the trace is the complete record of durable writes. For each point it
// optionally tears the in-flight write by applying a prefix of its words,
// runs recovery.Recover on the snapshot, and checks three oracles:
//
//  1. invariants — the workload's own Verify holds on the recovered image;
//  2. prefix consistency — the recovered image equals a reference image
//     computed *independently of the durable logs*, from the full persist
//     trace: every transaction whose commit record persisted before k has its
//     redo effects applied (in global persist order), every uncommitted
//     undo-logged transaction is rolled back, and nothing else changed;
//  3. idempotency — running recovery a second time replays and rolls back
//     nothing and leaves the image bit-identical.
//
// Judging fans the points out across the internal/runner worker pool;
// seeds derive from the configuration content exactly as experiment cells do,
// so any reported point is reproducible from its index alone (the
// dhtm-crashtest command's -point flag).
package crashtest

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dhtm/internal/memdev"
	"dhtm/internal/obs"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
	"dhtm/internal/txn"
)

// Exploration metrics land in obs.Default, the process-wide telemetry plane.
var (
	metricPoints = obs.Default.Counter("dhtm_crashtest_points_total",
		"Crash points selected for exploration.")
	metricImages = obs.Default.Counter("dhtm_crashtest_crash_images_total",
		"Crash images explored (points × adversary masks).")
	metricMasksPerPoint = obs.Default.Histogram("dhtm_crashtest_masks_per_point",
		"Adversary masks fanned out per crash point.", obs.ExpBuckets(1, 2, 12))
	metricPanics = obs.Default.Counter("dhtm_crashtest_panic_recoveries_total",
		"Panics recovered inside point exploration (each is also an oracle failure).")
	metricPhases = obs.CellPhaseHistograms(obs.Default)

	// metricOracleFailures has one fixed series per failure class; the label
	// value is the prefix judgePoint stamps on PointResult.Err.
	metricOracleFailures = func() map[string]*obs.Counter {
		m := make(map[string]*obs.Counter)
		for _, o := range []string{"invariant", "prefix", "idempotency", "differential", "recovery", "panic", "other"} {
			m[o] = obs.Default.Counter("dhtm_crashtest_oracle_failures_total",
				"Crash images that violated an oracle, by failure class.", obs.L("oracle", o))
		}
		return m
	}()
)

// oracleLabel maps a PointResult.Err to its metric label: the text before the
// first colon, with the " oracle" suffix dropped.
func oracleLabel(errStr string) string {
	head, _, ok := strings.Cut(errStr, ":")
	if !ok {
		return "other"
	}
	head = strings.TrimSuffix(head, " oracle")
	if _, known := metricOracleFailures[head]; !known {
		return "other"
	}
	return head
}

// Selection chooses which crash points of the persist-event space to explore.
type Selection struct {
	// Mode is "all" (exhaustive, the default), "stride" (every Stride-th
	// point), "random" (Samples points drawn from a seed-derived stream) or
	// "point" (the single point Point, the repro mode).
	Mode string `json:"mode"`
	// Stride is the step between explored points in stride mode; when 0,
	// Samples picks the stride so roughly Samples points are explored.
	Stride int `json:"stride,omitempty"`
	// Samples is the target point count for random mode (and for stride mode
	// when Stride is 0).
	Samples int `json:"samples,omitempty"`
	// Point is the single crash point explored in point mode.
	Point int `json:"point,omitempty"`
	// Mask, in point mode with a reordering window, replays exactly one
	// adversary mask (hex or decimal, e.g. "0x2a") instead of the adversary's
	// own enumeration — the repro mode for reordered crash images. Bit i of
	// the mask retires the i-th in-flight write of the point's window.
	Mask string `json:"mask,omitempty"`
}

// AdversaryConfig parameterises the persist-queue reordering adversary. The
// zero value models a strictly ordered queue: every crash image is an exact
// prefix of the persist-event sequence, bit-for-bit the pre-adversary
// behavior.
type AdversaryConfig struct {
	// Window is the reordering window W of the modelled persist queue: at a
	// crash, any subset of the last W non-drain writes may have failed to
	// retire. 0 disables reordering.
	Window int `json:"reorder_window,omitempty"`
	// Mode selects the subset enumeration per crash point: "exhaustive"
	// (every subset, 2^n per point), "sample" (Samples seed-derived subsets)
	// or "auto"/"" (exhaustive for windows up to 6, sampled beyond).
	Mode string `json:"mode,omitempty"`
	// Samples bounds the subsets per point in sample mode (0 = 16).
	Samples int `json:"samples,omitempty"`
}

// Validate rejects adversary configurations the explorer cannot honour.
func (a AdversaryConfig) Validate() error {
	if a.Window < 0 || a.Window > memdev.MaxAdversaryWindow {
		return fmt.Errorf("crashtest: reorder window %d outside [0,%d]", a.Window, memdev.MaxAdversaryWindow)
	}
	switch a.Mode {
	case "", "auto", "exhaustive", "sample":
	default:
		return fmt.Errorf("crashtest: unknown adversary mode %q (valid: auto, exhaustive, sample)", a.Mode)
	}
	if a.Mode == "exhaustive" && a.Window > 12 {
		return fmt.Errorf("crashtest: exhaustive enumeration of a %d-write window is intractable (max 12)", a.Window)
	}
	if a.Samples < 0 {
		return fmt.Errorf("crashtest: adversary samples must be >= 0")
	}
	return nil
}

// Config parameterises one exploration.
type Config struct {
	// Design is the transactional design to torture. Only designs whose
	// durability protocol recovery.Recover understands are accepted — see
	// Supported.
	Design string `json:"design"`
	// Workload names the benchmark driven during the run.
	Workload string `json:"workload"`
	// Cores is the simulated core count (0 = 4).
	Cores int `json:"cores"`
	// TxPerCore is the number of transactions each core issues (0 = 4).
	TxPerCore int `json:"tx_per_core"`
	// OpsPerTx overrides the workload's per-transaction operation count when
	// > 0; smaller transactions shrink the persist-event space, which keeps
	// exhaustive sweeps fast.
	OpsPerTx int `json:"ops_per_tx,omitempty"`
	// Seed is the base seed; the run seed derives from it and the
	// configuration content exactly as runner cells derive theirs (0 = the
	// runner default).
	Seed int64 `json:"seed"`
	// Torn additionally tears the in-flight write at each crash point: a
	// seed-derived prefix of its words reaches memory, modelling a line torn
	// mid-transfer. Single-word writes are 8-byte atomic and stay untorn.
	Torn bool `json:"torn"`
	// Adversary configures persist-queue reordering: with a window > 0 each
	// crash point fans out into one crash image per adversary mask.
	Adversary AdversaryConfig `json:"adversary,omitzero"`
	// Differential enables the cross-design oracle: each recovered image must
	// match a serial re-execution of the committed transaction sequence, and
	// the report carries per-commit-sequence heap digests so CrossCheck can
	// compare designs. The run seed then derives without the design name, so
	// every design drives the identical transaction stream.
	Differential bool `json:"differential,omitempty"`
	// Points selects the crash points to explore.
	Points Selection `json:"points"`
	// Factory, when non-nil, builds the runtime instead of the design
	// registry — the hook test fixtures use to torture deliberately broken
	// designs that the registry refuses to expose. Design then only labels
	// the report (and, unless Differential, still salts the run seed).
	Factory func(*txn.Env) (txn.Runtime, error) `json:"-"`
	// Parallel is the worker-pool size (<= 0 = GOMAXPROCS).
	Parallel int `json:"-"`
	// Progress, when non-nil, is called after each explored crash image.
	Progress func(done, total int) `json:"-"`
}

// Supported lists the designs the explorer accepts: those the registry
// marks crash-safe, i.e. whose durability goes through the hardware
// write-ahead logs that recovery.Recover replays. SO and sdTM model
// Mnemosyne-style software logging whose in-place persistence is deferred
// past the simulated window (their logs truncate before data reaches
// memory), so arbitrary-point recovery is undefined for them by
// construction; NP is volatile.
func Supported() []string {
	return registry.CrashSafeDesignNames()
}

// Validate rejects selections that could never resolve against any
// persist-event space — the pre-run subset of pickPoints' checks, so
// scenario compilation can fail fast instead of starting an exploration
// that dies after its counting pass.
func (s Selection) Validate() error {
	switch s.Mode {
	case "", "all":
	case "stride":
		if s.Stride <= 0 && s.Samples <= 0 {
			return fmt.Errorf("crashtest: stride selection needs Stride or Samples")
		}
	case "random":
		if s.Samples <= 0 {
			return fmt.Errorf("crashtest: random selection needs Samples > 0")
		}
	case "point":
		if s.Point < 0 {
			return fmt.Errorf("crashtest: point selection needs Point >= 0")
		}
	default:
		return fmt.Errorf("crashtest: unknown selection mode %q (valid: all, stride, random, point)", s.Mode)
	}
	if s.Mask != "" {
		if s.Mode != "point" {
			return fmt.Errorf("crashtest: a mask replay requires point mode, not %q", s.Mode)
		}
		if _, err := parseMask(s.Mask); err != nil {
			return err
		}
	}
	return nil
}

// parseMask parses an adversary mask (hex with 0x prefix, or decimal).
func parseMask(s string) (uint64, error) {
	m, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("crashtest: invalid adversary mask %q: %w", s, err)
	}
	return m, nil
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.TxPerCore <= 0 {
		c.TxPerCore = 4
	}
	if c.Seed == 0 {
		c.Seed = runner.DefaultSeed
	}
	if c.Points.Mode == "" {
		c.Points.Mode = "all"
	}
	return c
}

// validate rejects configurations the explorer cannot torture meaningfully.
func (c Config) validate() error {
	if err := c.Points.Validate(); err != nil {
		return err
	}
	if err := c.Adversary.Validate(); err != nil {
		return err
	}
	if c.Factory != nil {
		// A fixture bypasses the registry, so supportedness is the caller's
		// responsibility.
		return nil
	}
	for _, d := range Supported() {
		if c.Design == d {
			return nil
		}
	}
	return fmt.Errorf("crashtest: design %q is not supported (supported: %v)", c.Design, Supported())
}

// RunSeed returns the content-derived seed the exploration's runs use, the
// same derivation experiment cells use, so a point's workload can also be
// replayed standalone under dhtm-sim.
func (c Config) RunSeed() int64 {
	c = c.withDefaults()
	cell := runner.Cell{
		Design: c.Design, Workload: c.Workload, Cores: c.Cores, TxPerCore: c.TxPerCore,
	}
	if c.Differential {
		// The differential oracle compares designs on the same transaction
		// stream, so the seed must not depend on the design name.
		cell.Design = ""
	}
	return runner.DeriveSeed(c.Seed, cell)
}

// adversary resolves the configured adversary for this run.
func (c Config) adversary(runSeed int64) memdev.Adversary {
	samples := c.Adversary.Samples
	if samples <= 0 {
		samples = 16
	}
	switch c.Adversary.Mode {
	case "exhaustive":
		return memdev.ExhaustiveAdversary{}
	case "sample":
		return memdev.SampledAdversary{Seed: uint64(runSeed), Samples: samples}
	default: // "", "auto"
		if c.Adversary.Window <= 6 {
			return memdev.ExhaustiveAdversary{}
		}
		return memdev.SampledAdversary{Seed: uint64(runSeed), Samples: samples}
	}
}

// PointResult is the outcome of exploring one crash point.
type PointResult struct {
	// Point is the crash point's index in the persist-event space.
	Point int `json:"point"`
	// Class is the traffic class of the interrupted durable write.
	Class string `json:"class"`
	// TornWords is how many words of the in-flight write reached memory
	// (torn mode only; 0 means the write was lost entirely).
	TornWords int `json:"torn_words,omitempty"`
	// Window is the number of in-flight writes at this point (reordering
	// adversary only) and Mask the hex subset of them that retired — bit i
	// covers the i-th in-flight write. Both are omitted for strictly ordered
	// (window-0) crash images.
	Window int    `json:"window,omitempty"`
	Mask   string `json:"mask,omitempty"`
	// Replayed and RolledBack echo the recovery report at this point.
	Replayed   int `json:"replayed"`
	RolledBack int `json:"rolled_back"`
	// Err names the violated oracle; empty when every oracle passed.
	Err string `json:"error,omitempty"`

	// commitKey and digest feed the report's differential digest table.
	commitKey string
	digest    uint64
}

// Report aggregates one exploration.
type Report struct {
	Design    string `json:"design"`
	Workload  string `json:"workload"`
	Cores     int    `json:"cores"`
	TxPerCore int    `json:"tx_per_core"`
	OpsPerTx  int    `json:"ops_per_tx,omitempty"`
	BaseSeed  int64  `json:"base_seed"`
	RunSeed   int64  `json:"run_seed"`
	Torn      bool   `json:"torn"`
	// Adversary echoes the reordering configuration; Differential whether
	// the cross-design oracle ran. Both are omitted in the default
	// strictly-ordered, single-design mode, keeping window-0 reports
	// byte-identical to pre-adversary ones.
	Adversary    AdversaryConfig `json:"adversary,omitzero"`
	Differential bool            `json:"differential,omitempty"`

	// TotalPoints is the size of the run's persist-event space; Explored is
	// how many of those points were crashed and recovered. With a reordering
	// window each point fans out into one crash image per adversary mask;
	// Tasks counts those images (omitted at window 0, where it equals
	// Explored). Failed counts failing images, and the histograms cover the
	// passing ones, so ReplayHist sums to Tasks - Failed.
	TotalPoints int `json:"total_points"`
	Explored    int `json:"explored"`
	Tasks       int `json:"tasks,omitempty"`
	Failed      int `json:"failed"`

	// EventsByClass counts the full event space by traffic class.
	EventsByClass map[string]int `json:"events_by_class"`
	// ReplayHist[r] counts explored points whose recovery replayed r
	// committed-but-incomplete transactions; RollbackHist likewise for
	// rollbacks.
	ReplayHist   map[int]int `json:"replay_hist"`
	RollbackHist map[int]int `json:"rollback_hist"`

	// Failures lists every failing point in ascending point order;
	// FirstFailure duplicates the first for quick access and Repro is the
	// exact command that re-explores it (including the adversary window and
	// mask when reordering was in play).
	Failures     []PointResult `json:"failures,omitempty"`
	FirstFailure *PointResult  `json:"first_failure,omitempty"`
	Repro        string        `json:"repro,omitempty"`

	// CommitDigests, in differential mode, maps each observed committed
	// transaction sequence (canonical "thread:txid,..." activation order) to
	// the recovered heap digest all of its crash images produced — the table
	// CrossCheck compares across designs.
	CommitDigests map[string]string `json:"commit_digests,omitempty"`

	ElapsedNS int64 `json:"elapsed_ns"`
}

// Explore measures the configuration's persist-event space and crash-tests
// the selected points, returning the aggregated report. Oracle violations are
// recorded per point, not returned as an error; use Torture to fail on them.
// Cancelling ctx stops the exploration after the in-flight points finish and
// returns the context's error instead of a partial (and therefore
// misleading) report.
func Explore(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	runSeed := cfg.RunSeed()
	start := time.Now()

	run, err := cfg.countPass(runSeed)
	if err != nil {
		return nil, err
	}
	trace := run.trace
	points, err := pickPoints(len(trace), cfg.Points, runSeed)
	if err != nil {
		return nil, err
	}
	tasks, err := cfg.buildTasks(trace, points, runSeed)
	if err != nil {
		return nil, err
	}
	pre, err := run.preImages(tasks, cfg.Differential)
	if err != nil {
		return nil, err
	}
	var dc *diffCtx
	if cfg.Differential {
		if dc, err = cfg.newDiffCtx(runSeed, run); err != nil {
			return nil, err
		}
	}

	results := cfg.exploreTasks(ctx, runSeed, run, pre, tasks, dc)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("crashtest: exploration cancelled: %w", err)
	}
	metricPoints.Add(uint64(len(points)))
	metricImages.Add(uint64(len(tasks)))
	rep := cfg.report(runSeed, trace, len(points), results)
	rep.ElapsedNS = time.Since(start).Nanoseconds()
	return rep, nil
}

// exploreTasks judges every crash image of tasks from the pre-images of
// their window starts, in parallel, one point per worker at a time:
// buildTasks emits each point's images contiguously, and all of them share
// the point's pre-image. Each running point holds one of Parallel node
// arenas, which recycle the nodes its images' stores allocate and become
// garbage when the exploration returns.
func (c Config) exploreTasks(ctx context.Context, runSeed int64, run *pass, pre map[uint64]preImage, tasks []task, dc *diffCtx) []PointResult {
	var starts []int
	for i := range tasks {
		if i == 0 || tasks[i].point != tasks[i-1].point {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(tasks))
	results := make([]PointResult, len(tasks))
	var mu sync.Mutex
	done := 0
	progress := func() {
		if c.Progress != nil {
			mu.Lock()
			done++
			c.Progress(done, len(tasks))
			mu.Unlock()
		}
	}
	workers := c.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	arenas := make(chan *memdev.Arena, workers)
	for range workers {
		arenas <- new(memdev.Arena)
	}
	runner.ForEach(ctx, len(starts)-1, workers, func(g int) {
		lo, hi := starts[g], starts[g+1]
		arena := <-arenas
		c.judgePoint(runSeed, run, pre, run.w, tasks[lo:hi], dc, arena, results[lo:hi], progress)
		arenas <- arena
	})
	return results
}

// report aggregates the per-image results of an exploration of points crash
// points (ElapsedNS is left to the caller).
func (c Config) report(runSeed int64, trace []traceEvent, points int, results []PointResult) *Report {
	rep := &Report{
		Design: c.Design, Workload: c.Workload, Cores: c.Cores,
		TxPerCore: c.TxPerCore, OpsPerTx: c.OpsPerTx,
		BaseSeed: c.Seed, RunSeed: runSeed, Torn: c.Torn,
		Adversary:     c.Adversary,
		Differential:  c.Differential,
		TotalPoints:   len(trace),
		Explored:      points,
		EventsByClass: make(map[string]int),
		ReplayHist:    make(map[int]int),
		RollbackHist:  make(map[int]int),
	}
	if c.Adversary.Window > 0 {
		rep.Tasks = len(results)
	}
	if c.Differential {
		rep.CommitDigests = make(map[string]string)
	}
	for _, ev := range trace {
		rep.EventsByClass[ev.class.String()]++
	}
	for _, r := range results {
		if r.Err != "" {
			rep.Failed++
			rep.Failures = append(rep.Failures, r)
			o := oracleLabel(r.Err)
			metricOracleFailures[o].Inc()
			if o == "panic" {
				metricPanics.Inc()
			}
			continue
		}
		rep.ReplayHist[r.Replayed]++
		rep.RollbackHist[r.RolledBack]++
		if rep.CommitDigests != nil && r.commitKey != "" {
			rep.CommitDigests[r.commitKey] = fmt.Sprintf("%016x", r.digest)
		}
	}
	if len(rep.Failures) > 0 {
		first := rep.Failures[0]
		rep.FirstFailure = &first
		rep.Repro = c.reproCommand(first)
	}
	return rep
}

// task is one crash image to explore: a crash point plus the adversary's
// choice of which in-flight writes of its window [wStart, point) retired.
type task struct {
	point  int
	wStart uint64
	mask   uint64
}

// buildTasks fans the selected crash points out into crash images. Window
// starts come from replaying the recorded trace's traffic classes through
// the persist-queue model; at window 0 every window is empty and each point
// yields exactly its historical prefix image.
func (c Config) buildTasks(trace []traceEvent, points []int, runSeed int64) ([]task, error) {
	wStarts := make([]uint64, len(trace))
	q := memdev.NewPersistQueue(c.Adversary.Window)
	for i, ev := range trace {
		wStarts[i] = q.WindowStart(uint64(i), ev.class)
		q.Observe(uint64(i), ev.class)
	}
	if c.Points.Mask != "" {
		// Replay mode: the single selected point with exactly this mask.
		m, err := parseMask(c.Points.Mask)
		if err != nil {
			return nil, err
		}
		p := points[0]
		n := p - int(wStarts[p])
		if n < 64 && m >= 1<<n {
			return nil, fmt.Errorf("crashtest: mask %s has bits outside the %d-write in-flight window at point %d", c.Points.Mask, n, p)
		}
		return []task{{point: p, wStart: wStarts[p], mask: m}}, nil
	}
	adv := c.adversary(runSeed)
	var tasks []task
	for _, p := range points {
		n := p - int(wStarts[p])
		masks := adv.Masks(uint64(p), n)
		metricMasksPerPoint.Observe(float64(len(masks)))
		for _, m := range masks {
			tasks = append(tasks, task{point: p, wStart: wStarts[p], mask: m})
		}
	}
	return tasks, nil
}

// Torture is the sweep-test entry point: it explores the configured space and
// returns an error (alongside the report) if any point violated an oracle.
func Torture(ctx context.Context, cfg Config) (*Report, error) {
	rep, err := Explore(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		f := rep.FirstFailure
		return rep, fmt.Errorf("crashtest: %s/%s: %s; first at point %d (%s): %s — reproduce: %s",
			rep.Design, rep.Workload, rep.FailureSummary(), f.Point, f.Class, f.Err, rep.Repro)
	}
	return rep, nil
}

// FailureSummary renders "N of M crash points failed", counting in the unit
// Failed counts: with a reordering window each point fans out into several
// crash images, so it is then "N of M crash images failed" over Tasks.
func (r *Report) FailureSummary() string {
	if r.Tasks > 0 {
		return fmt.Sprintf("%d of %d crash images failed", r.Failed, r.Tasks)
	}
	return fmt.Sprintf("%d of %d crash points failed", r.Failed, r.Explored)
}

// reproCommand renders the exact dhtm-crashtest invocation that re-explores a
// single failing crash image of this configuration: the point, and — when the
// reordering adversary was in play — the window and the exact mask.
func (c Config) reproCommand(p PointResult) string {
	cmd := fmt.Sprintf("dhtm-crashtest -design %s -workload %s -cores %d -tx %d",
		c.Design, c.Workload, c.Cores, c.TxPerCore)
	if c.OpsPerTx > 0 {
		cmd += fmt.Sprintf(" -ops %d", c.OpsPerTx)
	}
	cmd += fmt.Sprintf(" -seed %d", c.Seed)
	if c.Torn {
		cmd += " -torn"
	}
	if c.Differential {
		cmd += " -differential"
	}
	cmd += fmt.Sprintf(" -point %d", p.Point)
	if c.Adversary.Window > 0 {
		cmd += fmt.Sprintf(" -window %d", c.Adversary.Window)
		mask := p.Mask
		if mask == "" {
			mask = "0x0"
		}
		cmd += " -mask " + mask
	}
	return cmd
}

// pickPoints resolves a Selection against a persist-event space of n points
// into a sorted, deduplicated index list.
func pickPoints(n int, sel Selection, runSeed int64) ([]int, error) {
	if n == 0 {
		return nil, fmt.Errorf("crashtest: the run produced no persist events")
	}
	switch sel.Mode {
	case "", "all":
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	case "stride":
		stride := sel.Stride
		if stride <= 0 {
			if sel.Samples <= 0 {
				return nil, fmt.Errorf("crashtest: stride selection needs Stride or Samples")
			}
			stride = (n + sel.Samples - 1) / sel.Samples
			if stride < 1 {
				stride = 1
			}
		}
		var out []int
		for i := 0; i < n; i += stride {
			out = append(out, i)
		}
		return out, nil
	case "random":
		if sel.Samples <= 0 {
			return nil, fmt.Errorf("crashtest: random selection needs Samples > 0")
		}
		if sel.Samples >= n {
			return pickPoints(n, Selection{Mode: "all"}, runSeed)
		}
		seen := make(map[int]bool, sel.Samples)
		var out []int
		state := uint64(runSeed)
		for len(out) < sel.Samples {
			state = runner.Mix64(state + 0x9e3779b97f4a7c15)
			p := int(state % uint64(n))
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		sort.Ints(out)
		return out, nil
	case "point":
		if sel.Point < 0 || sel.Point >= n {
			return nil, fmt.Errorf("crashtest: point %d outside the persist-event space [0,%d)", sel.Point, n)
		}
		return []int{sel.Point}, nil
	default:
		return nil, fmt.Errorf("crashtest: unknown selection mode %q (all, stride, random, point)", sel.Mode)
	}
}
