// Command dhtm-crashtest runs the crash-point exploration subsystem: it
// measures a workload run's persist-event space (every durable write is a
// numbered crash point), replays the recorded writes to build the image at
// each selected point, recovers each crash image and checks the durability
// oracles (workload invariants, prefix consistency, recovery idempotency,
// and — with -differential — agreement with a serial re-execution of the
// committed transactions). With -window W the persist-queue reordering
// adversary additionally fans each point out into one crash image per subset
// of the in-flight write window. Exploration fans out across a worker pool
// and is fully deterministic, so any reported failure reproduces from its
// point index (plus -window/-mask when the adversary was in play).
//
// The flags build a crashtest-mode scenario document, so they are validated
// and executed exactly like a scenario file run with dhtm-bench -scenario;
// reports print in registry (paper) design order.
//
// Examples:
//
//	dhtm-crashtest -design DHTM -workload hash                  # exhaustive
//	dhtm-crashtest -design DHTM,ATOM -workload hash,queue -mode stride -samples 64
//	dhtm-crashtest -design DHTM -workload queue -torn -mode random -samples 128
//	dhtm-crashtest -design DHTM -workload hash -window 3        # reordering adversary
//	dhtm-crashtest -design DHTM,LogTM-ATOM -workload hash -window 2 -differential
//	dhtm-crashtest -design DHTM -workload hash -point 1234      # one point
//	dhtm-crashtest -design DHTM -workload hash -point 1234 -window 3 -mask 0x5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dhtm/internal/crashtest"
	"dhtm/internal/obs"
	"dhtm/internal/scenario"
)

func main() {
	design := flag.String("design", "DHTM", "design(s) to torture, comma separated (supported: "+strings.Join(crashtest.Supported(), ", ")+")")
	workload := flag.String("workload", "hash", "workload(s) to drive, comma separated")
	cores := flag.Int("cores", 4, "number of simulated cores")
	tx := flag.Int("tx", 4, "transactions per core")
	ops := flag.Int("ops", 0, "operations per transaction (0 = workload default)")
	seed := flag.Int64("seed", 0, "base seed; run seeds derive deterministically from it and the configuration")
	mode := flag.String("mode", "all", "crash-point selection: all, stride, random")
	stride := flag.Int("stride", 0, "explore every N-th point (stride mode; 0 = derive from -samples)")
	samples := flag.Int("samples", 0, "target point count (stride and random modes)")
	point := flag.Int("point", -1, "explore exactly this crash point (repro mode; overrides -mode)")
	torn := flag.Bool("torn", false, "tear the in-flight write at each point (a seed-derived word prefix reaches memory)")
	window := flag.Int("window", 0, "persist-queue reordering window W: any subset of the last W non-drain writes may be lost at a crash (0 = strictly ordered)")
	masks := flag.String("masks", "auto", "adversary subset enumeration per point: auto, exhaustive, sample")
	maskSamples := flag.Int("mask-samples", 0, "subsets per point in sample mode (0 = 16)")
	mask := flag.String("mask", "", "replay exactly this adversary mask (hex or decimal; requires -point and -window)")
	differential := flag.Bool("differential", false, "enable the differential oracle: recovered images must match serial re-execution of the committed transactions, and designs are cross-checked against each other")
	parallel := flag.Int("parallel", 0, "points to explore concurrently (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON reports on stdout")
	progress := flag.Bool("progress", false, "log per-point completion to stderr")
	metricsOut := flag.String("metrics", "", "write the run's metrics registry in Prometheus text format to this file at exit")
	flag.Parse()

	if *mode == "point" {
		misuse("select a single crash point with -point N, not -mode point")
	}
	sel := crashtest.Selection{Mode: *mode, Stride: *stride, Samples: *samples, Mask: *mask}
	if *point >= 0 {
		sel = crashtest.Selection{Mode: "point", Point: *point, Mask: *mask}
	}
	maskMode := *masks
	if maskMode == "auto" {
		maskMode = "" // the explorer's default
	}
	list := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
	}
	doc := &scenario.Document{
		FormatVersion: scenario.FormatVersion, Mode: scenario.ModeCrashtest,
		Designs: list(*design), Workloads: list(*workload),
		Axes: scenario.Axes{
			Cores: scenario.FlagAxis(*cores), TxPerCore: scenario.FlagAxis(*tx),
			OpsPerTx: scenario.FlagAxis(*ops), ReorderWindow: scenario.FlagAxis(*window),
		},
		Torn: *torn, Points: &sel, MaskMode: maskMode, MaskSamples: *maskSamples,
		Differential: *differential, Seed: *seed,
	}
	// Compile validates every name, crash-safety, the point selection and
	// the adversary up front, so a typo in a later list entry cannot discard
	// the reports of explorations that already ran.
	compiled, err := doc.Compile()
	if err != nil {
		misuse("%v", err)
	}

	// Ctrl-C cancels the exploration after the in-flight points finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := scenario.RunOptions{Parallel: *parallel}
	if *progress {
		opts.OnPoint = func(label string, done, total int) {
			fmt.Fprintf(os.Stderr, "%s: %d/%d points\n", label, done, total)
		}
	}
	if !*jsonOut {
		opts.Out = os.Stdout
	}
	res, runErr := scenario.Run(ctx, compiled, opts)
	for _, rep := range res.Crashtests {
		fmt.Fprintf(os.Stderr, "dhtm-crashtest: %s/%s explored in %v\n", rep.Design, rep.Workload,
			time.Duration(rep.ElapsedNS).Round(time.Millisecond))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Crashtests); err != nil {
			fail("encoding JSON: %v", err)
		}
	}
	// Written before the exit-status check so a failing exploration still
	// leaves its dhtm_crashtest_* counters (points, crash images, per-oracle
	// failures) on disk for post-mortem.
	if *metricsOut != "" {
		if err := obs.Default.WriteFile(*metricsOut); err != nil {
			fail("writing metrics: %v", err)
		}
	}
	if ctx.Err() != nil {
		fail("interrupted")
	}
	if runErr != nil {
		fail("%v", runErr)
	}
}

// misuse reports a flag-usage error with exit code 2 (the repo convention:
// 2 = misuse, 1 = a crash point failed an oracle or the run itself failed).
func misuse(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dhtm-crashtest: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dhtm-crashtest: "+format+"\n", args...)
	os.Exit(1)
}
