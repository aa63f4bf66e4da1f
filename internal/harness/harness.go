// Package harness defines the experiments of the paper's evaluation section
// (§VI): each table and figure is a declarative grid of independent
// simulation cells (a runner.Plan) plus a reducer that renders the same rows
// or series the paper reports from the grid's results. The runner package
// fans the cells out across a worker pool; because every cell builds a fresh
// simulated machine and seeds derive from cell content, parallel and serial
// sweeps render byte-identical tables. internal/scenario executes the
// experiments for every surface; the benchmarks in bench_test.go call this
// package directly.
package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"dhtm/internal/obs"
	"dhtm/internal/probe"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
	"dhtm/internal/snapshot"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// Design names accepted by registry.NewRuntime, re-exported from the
// registry (the single source of truth for the design catalog).
const (
	DesignSO          = registry.DesignSO
	DesignSdTM        = registry.DesignSdTM
	DesignATOM        = registry.DesignATOM
	DesignLogTMATOM   = registry.DesignLogTMATOM
	DesignNP          = registry.DesignNP
	DesignDHTM        = registry.DesignDHTM
	DesignDHTMInstant = registry.DesignDHTMInstant
	DesignDHTML1      = registry.DesignDHTML1
	DesignDHTMNoBuf   = registry.DesignDHTMNoBuf
)

// Designs lists every runnable design name, straight from the registry.
func Designs() []string { return registry.DesignNames() }

// Execute is the cell-runner callback: it builds a fully isolated machine
// for the cell (runner.Cell.Config: Table III plus the cell's core count
// and overrides) and runs it to completion. The setup phase is amortized through
// the process-wide snapshot cache — the cell's store is a copy-on-write
// clone of the post-Setup image for its (config, workload, params) key — and
// the cache arrays are drawn from and returned to the hierarchy pools. It is
// safe to call from many goroutines at once: snapshot images are frozen, and
// everything mutable is per-invocation.
func Execute(cell runner.Cell) (workloads.RunResult, error) {
	return execute(cell, probe.Config{})
}

// execute is Execute with an explicit trace config; ExecuteWith builds the
// traced variant on top of it.
func execute(cell runner.Cell, tc probe.Config) (workloads.RunResult, error) {
	trace := &obs.CellTrace{}
	cfg, err := cell.Config()
	if err != nil {
		return workloads.RunResult{}, err
	}
	p := workloads.Params{Seed: cell.Seed, OpsPerTx: cell.OpsPerTx}
	start := time.Now()
	prep, err := snapshot.Default.Prepare(cfg, cell.Workload, p)
	trace.Add(obs.PhaseSetup, time.Since(start))
	if err != nil {
		return workloads.RunResult{}, err
	}
	start = time.Now()
	env, err := txn.NewEnvOn(cfg, prep.NewStore())
	if err != nil {
		return workloads.RunResult{}, err
	}
	defer env.Release()
	rt, err := registry.NewRuntime(env, cell.Design)
	trace.Add(obs.PhaseClone, time.Since(start))
	if err != nil {
		return workloads.RunResult{}, err
	}
	if tc.Enabled() {
		env.Probe = TraceRecorder(tc, env, rt, cell)
	}
	txPerCore := cell.TxPerCore
	if txPerCore <= 0 {
		txPerCore = 16
	}
	start = time.Now()
	res, err := workloads.RunPrepared(env, rt, prep.Workload, p, txPerCore, true)
	trace.Add(obs.PhaseRun, time.Since(start))
	res.Phases = trace
	return res, err
}

// Options scales the experiments (Quick shrinks transaction counts so the
// whole suite finishes in seconds; the defaults give more stable numbers)
// and configures how their cell grids execute.
type Options struct {
	Cores     int
	TxPerCore int
	Quick     bool
	// Parallel is the sweep worker-pool size; <= 0 means GOMAXPROCS.
	Parallel int
	// Seed is the base seed per-cell seeds derive from (0 = runner default).
	Seed int64
	// Progress, when non-nil, receives one event per completed cell.
	Progress func(runner.ProgressEvent)
	// Trace enables cycle-domain probing for every cell of the grid (see
	// probe.Config), and every cell then carries its Timeline in the result
	// set. The zero value keeps tracing off.
	Trace probe.Config
}

// runnerOptions translates experiment options into sweep options.
func (o Options) runnerOptions() runner.Options {
	return runner.Options{Parallel: o.Parallel, Seed: o.Seed, Progress: o.Progress}
}

// txCount picks the per-core transaction count for a workload class.
func (o Options) txCount(oltp bool) int {
	if o.TxPerCore > 0 {
		return o.TxPerCore
	}
	switch {
	case o.Quick && oltp:
		return 3
	case o.Quick:
		return 8
	case oltp:
		return 8
	default:
		return 24
	}
}

// cell builds a grid cell with the options' core count applied, identified
// as design/workload; cells that share those add an ID suffix.
func (o Options) cell(design, workload string, oltp bool, ov runner.Overrides) runner.Cell {
	return runner.Cell{
		ID:        design + "/" + workload,
		Design:    design,
		Workload:  workload,
		Cores:     o.Cores,
		TxPerCore: o.txCount(oltp),
		Overrides: ov,
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// Render writes the table in an aligned plain-text format.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the table as one CSV block: a header row of column names
// prefixed by the experiment ID, then the data rows.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"experiment"}, t.Columns...)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(append([]string{t.ID}, row...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiment is one reproducible table or figure from the paper, expressed
// as a declarative cell grid plus a reducer over the grid's results.
type Experiment struct {
	ID    string
	Title string
	// Plan lays out the experiment's independent simulation cells.
	Plan func(o Options) runner.Plan
	// Reduce renders the paper's table from the completed grid. Reducers look
	// results up by cell ID, never by completion order, so they are
	// insensitive to parallel scheduling.
	Reduce func(o Options, rs *runner.ResultSet) (*Table, error)
}

// Run executes the experiment's grid (in parallel per o.Parallel) and
// reduces it to a table. Cell failures surface as one joined error after
// every cell has had its chance to run. Cancelling ctx surfaces as
// ErrCancelled cell failures.
func (e Experiment) Run(ctx context.Context, o Options) (*Table, error) {
	rs, err := e.RunGrid(ctx, o)
	if err != nil {
		return nil, err
	}
	if err := rs.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	return e.Reduce(o, rs)
}

// RunGrid executes the experiment's cells and returns the raw result set
// (for callers that want machine-readable per-cell results alongside the
// rendered table). Individual cell failures do not discard the set — they
// stay in their Results entries and in rs.Err(), so callers can still report
// the successful cells and the derived seeds of the failed ones. The
// returned error covers plan-level problems only.
func (e Experiment) RunGrid(ctx context.Context, o Options) (*runner.ResultSet, error) {
	rs, err := RunPlan(ctx, e.Plan(o), o.Trace, o.runnerOptions())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	return rs, nil
}

// RunPlan executes a grid of harness cells. An untraced grid reads through
// runner.DefaultMemo, so a cell that an earlier grid of the process already
// simulated is answered from memory. A traced grid simulates every cell, so
// each result carries its own Timeline.
func RunPlan(ctx context.Context, plan runner.Plan, trace probe.Config, opts runner.Options) (*runner.ResultSet, error) {
	if trace.Enabled() {
		return runner.Run(ctx, plan, ExecuteWith(trace), opts)
	}
	return runner.DefaultMemo.Run(ctx, plan, Execute, opts)
}

// Experiments returns every experiment in the order of the paper.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table4", Title: "Workload write-set sizes (Table IV)", Plan: planTable4, Reduce: reduceTable4},
		{ID: "fig5", Title: "Micro-benchmark throughput normalized to SO (Figure 5)", Plan: planFigure5, Reduce: reduceFigure5},
		{ID: "table5", Title: "Abort rates for sdTM and DHTM (Table V)", Plan: planTable5, Reduce: reduceTable5},
		{ID: "fig6", Title: "DHTM sensitivity to log-buffer size, hash (Figure 6)", Plan: planFigure6, Reduce: reduceFigure6},
		{ID: "table6", Title: "TPC-C and TATP throughput normalized to SO (Table VI)", Plan: planTable6, Reduce: reduceTable6},
		{ID: "table7", Title: "NP and DHTM vs memory bandwidth, hash (Table VII)", Plan: planTable7, Reduce: reduceTable7},
		{ID: "durability", Title: "The cost of atomic durability (Section VI.D)", Plan: planDurability, Reduce: reduceDurability},
		{ID: "ablation", Title: "DHTM design ablations (overflow, log buffer, conflict policy)", Plan: planAblations, Reduce: reduceAblations},
	}
}

// ExperimentIDs lists every experiment ID in paper order (the valid values
// of dhtm-bench -exp and a scenario document's experiment selection).
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// Find looks an experiment up by ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fmtRatio renders a throughput ratio the way the paper reports it.
func fmtRatio(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtPercent renders a rate as a whole percentage.
func fmtPercent(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
