package scenario

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dhtm/internal/crashtest"
	"dhtm/internal/harness"
	"dhtm/internal/probe"
	"dhtm/internal/resultstore"
	"dhtm/internal/runner"
)

// RunOptions are the operational knobs of one execution. None of them
// changes what a campaign computes — the document pins that — so every
// surface running the same document renders the same bytes.
type RunOptions struct {
	// Store, when non-nil, answers cells from the result store instead of
	// simulating them (experiment and sweep modes).
	Store *resultstore.Store
	// Parallel sizes the cell or crash-point worker pool (<= 0 means
	// GOMAXPROCS).
	Parallel int
	// Trace enables cycle-domain probing of every simulated cell; the
	// timelines land in Result.Timelines in plan order.
	Trace probe.Config
	// OnCell, when non-nil, receives one event per completed cell, labelled
	// with the cell's experiment ID (experiment mode) or plan name (sweep
	// mode).
	OnCell func(label string, ev runner.ProgressEvent)
	// OnPoint, when non-nil, receives crash-point progress of each
	// exploration, labelled design/workload, at every 64th point and at the
	// last one.
	OnPoint func(label string, done, total int)
	// Out, when non-nil, receives each part of the rendering as soon as it
	// completes (an experiment's table, a crash report, the sweep table).
	// When Run returns, Out holds exactly the bytes Result.Render writes.
	Out io.Writer
}

// ExperimentOutcome is one experiment's result within an experiment-mode
// run.
type ExperimentOutcome struct {
	ID    string         `json:"id"`
	Title string         `json:"title"`
	Table *harness.Table `json:"table,omitempty"`
	Error string         `json:"error,omitempty"`
	// Cells are the executed cells with their derived seeds (nil when the
	// plan itself failed), so any cell can be re-run individually.
	Cells []runner.Cell `json:"-"`
	// Elapsed is the experiment's wall-clock time. It stays out of the
	// rendering so the rendered bytes are deterministic.
	Elapsed time.Duration `json:"-"`
}

// render writes the outcome's table, or its one-line failure.
func (o ExperimentOutcome) render(w io.Writer) {
	if o.Error != "" {
		fmt.Fprintf(w, "%s — FAILED: %s\n\n", o.ID, o.Error)
		return
	}
	o.Table.Render(w)
}

// Result is what a run produced; exactly the section of the compiled mode
// is populated. A run that fails or is cancelled still returns the part
// that completed.
type Result struct {
	Experiments []ExperimentOutcome
	// Name labels the sweep table (the plan name).
	Name       string
	Sweep      []SweepOutcome
	Crashtests []*crashtest.Report
	// Timelines are the probe recordings of the simulated cells in plan
	// order (cache hits carry none); empty unless RunOptions.Trace is on.
	Timelines []*probe.Timeline
}

// Render writes the run's tables: one per experiment (or its failure
// line), the sweep table, or one summary per crash report. It is the single
// renderer of every surface — CLI stdout and dhtm-serve's /tables — and
// carries no wall-clock time, so the same document renders the same bytes
// everywhere.
func (r *Result) Render(w io.Writer) {
	for _, o := range r.Experiments {
		o.render(w)
	}
	if r.Sweep != nil {
		SweepTable(r.Name, r.Sweep).Render(w)
	}
	for _, rep := range r.Crashtests {
		renderReport(w, rep)
	}
}

// Run executes a compiled campaign. Experiments run one after another
// (their cells fan out in parallel), as do crash explorations (their points
// fan out). Failures do not stop the run: the returned error joins every
// failed experiment, failed sweep cell, failing crash point and
// cross-design disagreement. Cancelling ctx stops the run at the next
// experiment or exploration boundary and returns the context's error. The
// Result is never nil.
func Run(ctx context.Context, c *Compiled, opts RunOptions) (*Result, error) {
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	r := &Result{}
	switch c.Doc.Mode {
	case ModeExperiment:
		return r, r.runExperiments(ctx, c, opts)
	case ModeSweep:
		return r, r.runSweep(ctx, c, opts)
	default:
		return r, r.runCrashtests(ctx, c, opts)
	}
}

// Cells counts the simulation cells a compiled campaign runs — 0 in
// crashtest mode, whose unit of progress is the crash point.
func (c *Compiled) Cells() int {
	n := len(c.Plan.Cells)
	for _, e := range c.Experiments {
		n += len(e.Plan(c.Options).Cells)
	}
	return n
}

func (r *Result) runExperiments(ctx context.Context, c *Compiled, opts RunOptions) error {
	var failures []string
	for _, e := range c.Experiments {
		if err := ctx.Err(); err != nil {
			return err
		}
		ho := c.Options
		ho.Parallel, ho.Store, ho.Trace = opts.Parallel, opts.Store, opts.Trace
		if opts.OnCell != nil {
			ho.Progress = func(ev runner.ProgressEvent) { opts.OnCell(e.ID, ev) }
		}
		start := time.Now()
		o := ExperimentOutcome{ID: e.ID, Title: e.Title}
		rs, err := e.RunGrid(ctx, ho)
		if err == nil {
			o.Cells = cellsOf(rs)
			r.Timelines = append(r.Timelines, timelinesOf(rs)...)
			if err = rs.Err(); err == nil {
				o.Table, err = e.Reduce(ho, rs)
			}
		}
		o.Elapsed = time.Since(start)
		if err != nil {
			o.Error = err.Error()
			failures = append(failures, e.ID+": "+o.Error)
		}
		r.Experiments = append(r.Experiments, o)
		o.render(opts.Out)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d experiments failed: %s", len(failures), len(c.Experiments), strings.Join(failures, "; "))
	}
	return nil
}

func (r *Result) runSweep(ctx context.Context, c *Compiled, opts RunOptions) error {
	plan := c.Plan
	plan.Store = opts.Store
	ro := runner.Options{Parallel: opts.Parallel, Seed: c.Seed}
	if opts.OnCell != nil {
		ro.Progress = func(ev runner.ProgressEvent) { opts.OnCell(plan.Name, ev) }
	}
	rs, err := runner.Run(ctx, plan, harness.ExecuteWith(opts.Trace), ro)
	if err != nil {
		return err
	}
	r.Name = plan.Name
	r.Sweep = SweepOutcomes(rs)
	r.Timelines = timelinesOf(rs)
	SweepTable(r.Name, r.Sweep).Render(opts.Out)
	return rs.Err()
}

func (r *Result) runCrashtests(ctx context.Context, c *Compiled, opts RunOptions) error {
	var failures []string
	for _, cfg := range c.Crashtests {
		if err := ctx.Err(); err != nil {
			return err
		}
		name := cfg.Design + "/" + cfg.Workload
		cfg.Parallel = opts.Parallel
		if opts.OnPoint != nil {
			// One notification per point would swamp progress consumers on
			// exhaustive explorations.
			cfg.Progress = func(done, total int) {
				if done%64 == 0 || done == total {
					opts.OnPoint(name, done, total)
				}
			}
		}
		rep, err := crashtest.Explore(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.Crashtests = append(r.Crashtests, rep)
		renderReport(opts.Out, rep)
		if rep.Failed > 0 {
			failures = append(failures, fmt.Sprintf("%s: %s; reproduce: %s",
				name, rep.FailureSummary(), rep.Repro))
		}
	}
	// The cross-design half of the differential oracle: designs that
	// explored the same committed sequences must agree on the recovered heap.
	if err := crashtest.CrossCheck(r.Crashtests); err != nil {
		failures = append(failures, err.Error())
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// cellsOf extracts the executed cells with their derived seeds.
func cellsOf(rs *runner.ResultSet) []runner.Cell {
	cells := make([]runner.Cell, len(rs.Results))
	for i, res := range rs.Results {
		cells[i] = res.Cell
	}
	return cells
}

// timelinesOf collects the probe timelines of a grid's simulated cells in
// plan order, keeping a trace file's process layout deterministic at any
// parallelism.
func timelinesOf(rs *runner.ResultSet) []*probe.Timeline {
	var out []*probe.Timeline
	for _, res := range rs.Results {
		if res.Run.Timeline != nil {
			out = append(out, res.Run.Timeline)
		}
	}
	return out
}

// renderReport writes one crash exploration as a compact summary: the
// configuration and verdict, the persist-event classes, the recovery
// histograms and, on failure, the first failing point with its repro
// command.
func renderReport(w io.Writer, r *crashtest.Report) {
	extras := ""
	if r.Torn {
		extras += " torn"
	}
	if r.Adversary.Window > 0 {
		extras += fmt.Sprintf(" window=%d", r.Adversary.Window)
	}
	if r.Differential {
		extras += " differential"
	}
	images := ""
	if r.Tasks > 0 {
		images = fmt.Sprintf(" (%d crash images)", r.Tasks)
	}
	fmt.Fprintf(w, "%s/%s (cores=%d tx=%d seed=%d%s): %d persist events, explored %d%s, %d failed\n",
		r.Design, r.Workload, r.Cores, r.TxPerCore, r.BaseSeed, extras,
		r.TotalPoints, r.Explored, images, r.Failed)
	keys := make([]string, 0, len(r.EventsByClass))
	for k := range r.EventsByClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.EventsByClass[k]))
	}
	fmt.Fprintf(w, "  events: %s\n", strings.Join(parts, " "))
	fmt.Fprintf(w, "  replays/point: %s   rollbacks/point: %s\n", intHistLine(r.ReplayHist), intHistLine(r.RollbackHist))
	if f := r.FirstFailure; f != nil {
		where := fmt.Sprintf("point %d (%s)", f.Point, f.Class)
		if f.Mask != "" {
			where += fmt.Sprintf(" mask %s of %d in flight", f.Mask, f.Window)
		}
		fmt.Fprintf(w, "  FIRST FAILURE at %s: %s\n  reproduce: %s\n", where, f.Err, r.Repro)
	}
}

// intHistLine renders an int-keyed histogram in ascending key order.
func intHistLine(h map[int]int) string {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d:%d", k, h[k])
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
