// Command dhtm-bench regenerates the tables and figures of the DHTM paper's
// evaluation section (§VI) on the simulated machine. Each experiment is a
// grid of independent simulation cells that a worker pool fans out across
// the host's cores; results are byte-identical at any parallelism.
//
// Usage:
//
//	dhtm-bench                 # run every experiment at the default scale
//	dhtm-bench -exp fig5       # run one experiment (table4, fig5, table5, fig6,
//	                           #   table6, table7, durability, ablation)
//	dhtm-bench -quick          # smaller transaction counts, finishes in seconds
//	dhtm-bench -tx 32 -cores 8 # override the per-core transaction count / cores
//	dhtm-bench -parallel 4     # size of the cell worker pool (0 = GOMAXPROCS)
//	dhtm-bench -seed 7         # base seed for deterministic per-cell seeding
//	dhtm-bench -json           # machine-readable result document on stdout
//	dhtm-bench -csv            # CSV rows on stdout
//	dhtm-bench -progress       # per-cell progress on stderr
//	dhtm-bench -list           # list experiments
//	dhtm-bench -store results/ # persist cell results; warm re-runs simulate nothing
//	dhtm-bench -cpuprofile cpu.out -memprofile mem.out   # profile the run
//	dhtm-bench -metrics run.prom   # dump the metrics registry (Prometheus text) at exit
//	dhtm-bench -scenario examples/scenarios/table4-quick.json
//
// A failing experiment does not abort the run: every selected experiment
// executes, successful tables render, failures are reported together at the
// end, and the exit status is non-zero if anything failed.
//
// The -exp/-quick/-tx/-cores flags build an experiment-mode scenario
// document in process; -scenario loads one (experiment, sweep or crashtest
// mode) from a file instead. Either way the document compiles and runs
// through scenario.Run, and stdout carries exactly the rendered tables —
// byte-identical to what dhtm-serve's /api/v1/jobs/{id}/tables endpoint
// returns for the same document. Wall-clock timings go to stderr and -json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"dhtm/internal/harness"
	"dhtm/internal/obs"
	"dhtm/internal/probe"
	"dhtm/internal/resultstore"
	"dhtm/internal/runner"
	"dhtm/internal/scenario"
	"dhtm/internal/snapshot"
)

// experimentResult is one experiment's entry in the -json document.
type experimentResult struct {
	ID        string         `json:"id"`
	Title     string         `json:"title"`
	Table     *harness.Table `json:"table,omitempty"`
	Cells     []runner.Cell  `json:"cells,omitempty"`
	ElapsedMs float64        `json:"elapsed_ms"`
	Error     string         `json:"error,omitempty"`
}

// document is the top-level -json result document.
type document struct {
	Seed        int64                `json:"seed"`
	Parallel    int                  `json:"parallel"`
	Quick       bool                 `json:"quick"`
	Experiments []experimentResult   `json:"experiments"`
	Store       *resultstore.Metrics `json:"store,omitempty"`
	Snapshots   *snapshot.Metrics    `json:"snapshots,omitempty"`
}

// telemetrySummary folds the result-store and setup-snapshot counters —
// both now registry-backed — into one stderr line. store may be nil (no
// -store): the snapshot half still reports.
func telemetrySummary(store *resultstore.Store) snapshot.Metrics {
	sm := snapshot.Default.Metrics()
	line := "dhtm-bench: telemetry:"
	if store != nil {
		m := store.Metrics()
		line += fmt.Sprintf(" store %s %d hits (%d mem, %d disk) / %d misses / %d simulated / %d shared / %d written / %d corrupt;",
			store.Dir(), m.Hits(), m.MemHits, m.DiskHits, m.Misses, m.Computes, m.Shared, m.Writes, m.Corrupt)
	}
	line += fmt.Sprintf(" snapshots %d hits / %d misses / %d clones / %d cached images",
		sm.Hits, sm.Misses, sm.Clones, sm.Entries)
	fmt.Fprintln(os.Stderr, line)
	return sm
}

func main() { os.Exit(run()) }

// run holds main's body so deferred profile writers execute before the
// process exits with a status code.
func run() int {
	exp := flag.String("exp", "all", "experiment to run (comma separated), or 'all'")
	quick := flag.Bool("quick", false, "use reduced transaction counts")
	tx := flag.Int("tx", 0, "transactions per core (0 = per-experiment default)")
	cores := flag.Int("cores", 0, "number of simulated cores (0 = 8, as in the paper)")
	parallel := flag.Int("parallel", 0, "simulation cells to run concurrently (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 0, "base seed for per-cell deterministic seeding (0 = the document's seed, default 42)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON result document on stdout")
	csvOut := flag.Bool("csv", false, "emit CSV rows on stdout instead of aligned tables")
	progress := flag.Bool("progress", false, "report per-cell completion on stderr")
	list := flag.Bool("list", false, "list available experiments and exit")
	storeDir := flag.String("store", "", "read/write cell results through a content-addressed result store rooted at this directory (makes interrupted campaigns resumable)")
	scenarioPath := flag.String("scenario", "", "run a scenario file (experiment, sweep or crashtest mode); output is the rendered tables, byte-identical to dhtm-serve's /tables for the same file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	metricsOut := flag.String("metrics", "", "write the run's metrics registry in Prometheus text format to this file at exit")
	tracePath := flag.String("trace", "", "record cycle-domain probes for every computed cell and write one Chrome trace-event / Perfetto JSON file (load it at https://ui.perfetto.dev or chrome://tracing)")
	traceInterval := flag.Uint64("trace-interval", 0, "probe sampling interval in simulated cycles (0 = default "+fmt.Sprint(probe.DefaultInterval)+"; needs -trace)")
	flag.Parse()

	if *metricsOut != "" {
		defer func() {
			if err := obs.Default.WriteFile(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "dhtm-bench: writing metrics: %v\n", err)
			}
		}()
	}

	// Ctrl-C cancels the campaign cleanly: in-flight cells finish (and, with
	// -store, persist), skipped cells report runner.ErrCancelled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dhtm-bench: creating CPU profile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dhtm-bench: starting CPU profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dhtm-bench: creating memory profile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dhtm-bench: writing memory profile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *jsonOut && *csvOut {
		fmt.Fprintln(os.Stderr, "dhtm-bench: -json and -csv are mutually exclusive")
		return 2
	}

	var doc *scenario.Document
	if *scenarioPath != "" {
		// The scenario file owns the selection and scaling knobs; flags that
		// would silently fight it are rejected rather than ignored.
		if conflict := scenario.FlagConflict("exp", "quick", "tx", "cores", "json", "csv"); conflict != "" {
			fmt.Fprintf(os.Stderr, "dhtm-bench: -%s cannot be combined with -scenario (the scenario file pins it)\n", conflict)
			return 2
		}
		var err error
		if doc, err = scenario.Load(*scenarioPath); err != nil {
			fmt.Fprintf(os.Stderr, "dhtm-bench: %v\n", err)
			return 2
		}
	} else {
		ids := strings.FieldsFunc(*exp, func(r rune) bool { return r == ',' || r == ' ' })
		if len(ids) == 0 {
			// e.g. -exp "" — reject loudly instead of silently running nothing.
			fmt.Fprintf(os.Stderr, "dhtm-bench: -exp selects no experiments (valid: all, %s)\n",
				strings.Join(harness.ExperimentIDs(), ", "))
			return 2
		}
		doc = &scenario.Document{
			FormatVersion: scenario.FormatVersion, Mode: scenario.ModeExperiment,
			Experiments: ids, Quick: *quick,
			Axes: scenario.Axes{Cores: scenario.FlagAxis(*cores), TxPerCore: scenario.FlagAxis(*tx)},
		}
	}
	if *seed != 0 {
		doc.Seed = *seed
	}
	compiled, err := doc.Compile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dhtm-bench: %v\n", err)
		return 2
	}

	opts := scenario.RunOptions{Parallel: *parallel, Trace: probe.FlagConfig(*tracePath, *traceInterval)}
	if *storeDir == "" {
		*storeDir = doc.Store
	}
	if *storeDir != "" {
		if opts.Store, err = resultstore.Open(*storeDir, resultstore.Options{Registry: obs.Default}); err != nil {
			fmt.Fprintf(os.Stderr, "dhtm-bench: %v\n", err)
			return 1
		}
	}
	if *progress {
		opts.OnCell = func(_ string, ev runner.ProgressEvent) { progressLine(ev) }
		opts.OnPoint = func(label string, done, total int) {
			fmt.Fprintf(os.Stderr, "  %s: %d/%d points\n", label, done, total)
		}
	}
	if !*jsonOut && !*csvOut {
		opts.Out = os.Stdout
	}
	res, runErr := scenario.Run(ctx, compiled, opts)

	for _, o := range res.Experiments {
		fmt.Fprintf(os.Stderr, "dhtm-bench: %s completed in %v\n", o.ID, o.Elapsed.Round(time.Millisecond))
	}
	for _, rep := range res.Crashtests {
		fmt.Fprintf(os.Stderr, "dhtm-bench: %s/%s explored in %v\n", rep.Design, rep.Workload,
			time.Duration(rep.ElapsedNS).Round(time.Millisecond))
	}
	if *csvOut {
		for _, o := range res.Experiments {
			if o.Table == nil {
				continue
			}
			if err := o.Table.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "dhtm-bench: writing CSV: %v\n", err)
				return 1
			}
		}
	}
	if *tracePath != "" {
		if err := probe.WriteChromeTraceFile(*tracePath, res.Timelines); err != nil {
			fmt.Fprintf(os.Stderr, "dhtm-bench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "dhtm-bench: trace for %d cell(s) written to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", len(res.Timelines), *tracePath)
	}
	sm := telemetrySummary(opts.Store)
	if *jsonOut {
		jd := document{Seed: *seed, Parallel: *parallel, Quick: *quick, Snapshots: &sm}
		for _, o := range res.Experiments {
			jd.Experiments = append(jd.Experiments, experimentResult{
				ID: o.ID, Title: o.Title, Table: o.Table, Cells: o.Cells,
				ElapsedMs: float64(o.Elapsed) / float64(time.Millisecond), Error: o.Error,
			})
		}
		if opts.Store != nil {
			m := opts.Store.Metrics()
			jd.Store = &m
		}
		if err := writeJSON(os.Stdout, jd); err != nil {
			fmt.Fprintf(os.Stderr, "dhtm-bench: encoding JSON: %v\n", err)
			return 1
		}
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "dhtm-bench: interrupted; partial results above, re-run with the same -store to resume")
		return 1
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "dhtm-bench: %v\n", runErr)
		return 1
	}
	return 0
}

// progressLine is the -progress per-cell report.
func progressLine(ev runner.ProgressEvent) {
	status := "ok"
	if ev.Result.Cached {
		status = "cached"
	}
	if ev.Result.Err != nil {
		status = "FAILED: " + ev.Result.Err.Error()
	}
	fmt.Fprintf(os.Stderr, "  [%d/%d] %-32s %8v  %s\n",
		ev.Done, ev.Total, ev.Result.Cell.ID,
		ev.Result.Elapsed.Round(time.Millisecond), status)
}

// writeJSON encodes the document with stable indentation.
func writeJSON(w io.Writer, doc document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
