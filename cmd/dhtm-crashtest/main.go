// Command dhtm-crashtest runs the crash-point exploration subsystem: it
// measures a workload run's persist-event space (every durable write is a
// numbered crash point), re-runs the workload with a crash injected at each
// selected point, recovers the resulting image and checks the durability
// oracles (workload invariants, prefix consistency, recovery idempotency,
// and — with -differential — agreement with a serial re-execution of the
// committed transactions). With -window W the persist-queue reordering
// adversary additionally fans each point out into one crash image per subset
// of the in-flight write window. Exploration fans out across a worker pool
// and is fully deterministic, so any reported failure reproduces from its
// point index (plus -window/-mask when the adversary was in play).
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
//	dhtm-crashtest -scenario examples/scenarios/crashtest-quick.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"dhtm/internal/crashtest"
	"dhtm/internal/obs"
	"dhtm/internal/registry"
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
	scenarioPath := flag.String("scenario", "", "run a crashtest-mode scenario file instead of -design/-workload (see examples/scenarios)")
	metricsOut := flag.String("metrics", "", "write the run's metrics registry in Prometheus text format to this file at exit")
	flag.Parse()

	var configs []crashtest.Config
	if *scenarioPath != "" {
		// The scenario file owns the semantic knobs; flags that would
		// silently fight it are rejected rather than ignored.
		if conflict := scenario.FlagConflict("design", "workload", "cores", "tx", "ops",
			"seed", "mode", "stride", "samples", "point", "torn",
			"window", "masks", "mask-samples", "mask", "differential"); conflict != "" {
			misuse("-%s cannot be combined with -scenario (the scenario file pins it)", conflict)
		}
		doc, err := scenario.Load(*scenarioPath)
		if err != nil {
			misuse("%v", err)
		}
		if doc.Mode != scenario.ModeCrashtest {
			misuse("%s: mode %q: dhtm-crashtest runs crashtest scenarios (experiment mode runs under dhtm-bench -scenario, sweep mode under dhtm-sim -scenario)", *scenarioPath, doc.Mode)
		}
		compiled, err := doc.Compile()
		if err != nil {
			misuse("%v", err)
		}
		configs = compiled.Crashtests
	} else {
		designs := splitList(*design)
		wls := splitList(*workload)
		if len(designs) == 0 || len(wls) == 0 {
			misuse("-design and -workload must each name at least one entry")
		}
		// Validate every combo up front so a typo in a later list entry cannot
		// discard the reports of sweeps that already ran (repo convention:
		// successes still render before a non-zero exit).
		for _, d := range designs {
			if err := registry.CheckDesign(d); err != nil {
				misuse("%v", err)
			}
			if !supported(d) {
				misuse("design %q is not supported by the crash-point explorer (supported: %s)", d, strings.Join(crashtest.Supported(), ", "))
			}
		}
		for _, w := range wls {
			if err := registry.CheckWorkload(w); err != nil {
				misuse("%v", err)
			}
		}
		if *mode == "point" {
			misuse("select a single crash point with -point N, not -mode point")
		}
		sel := crashtest.Selection{Mode: *mode, Stride: *stride, Samples: *samples}
		if *point >= 0 {
			if len(designs) > 1 || len(wls) > 1 {
				misuse("-point repro mode requires a single design and workload")
			}
			sel = crashtest.Selection{Mode: "point", Point: *point, Mask: *mask}
		} else if *mask != "" {
			misuse("-mask replays one adversary choice and requires -point")
		}
		maskMode := *masks
		if maskMode == "auto" {
			maskMode = "" // the explorer's default
		}
		adv := crashtest.AdversaryConfig{Window: *window, Mode: maskMode, Samples: *maskSamples}
		if err := adv.Validate(); err != nil {
			misuse("%v", err)
		}
		if *mask != "" && *window == 0 {
			misuse("-mask describes in-flight writes and requires -window > 0")
		}
		for _, d := range designs {
			for _, w := range wls {
				configs = append(configs, crashtest.Config{
					Design: d, Workload: w, Cores: *cores, TxPerCore: *tx, OpsPerTx: *ops,
					Seed: *seed, Torn: *torn, Adversary: adv, Differential: *differential,
					Points: sel,
				})
			}
		}
	}

	// Ctrl-C cancels the exploration after the in-flight points finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reports []*crashtest.Report
	failed := false
	for _, cfg := range configs {
		cfg.Parallel = *parallel
		name := cfg.Design + "/" + cfg.Workload
		if *progress {
			cfg.Progress = func(done, total int) {
				if done%64 == 0 || done == total {
					fmt.Fprintf(os.Stderr, "%s: %d/%d points\n", name, done, total)
				}
			}
		}
		rep, err := crashtest.Explore(ctx, cfg)
		if errors.Is(err, context.Canceled) {
			fail("%s: interrupted", name)
		}
		if err != nil {
			fail("%s: %v", name, err)
		}
		reports = append(reports, rep)
		if rep.Failed > 0 {
			failed = true
		}
		if !*jsonOut {
			render(rep)
		}
	}

	// The cross-design half of the differential oracle: designs that explored
	// the same committed sequences must agree on the recovered heap.
	if err := crashtest.CrossCheck(reports); err != nil {
		failed = true
		fmt.Fprintf(os.Stderr, "dhtm-crashtest: %v\n", err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fail("encoding JSON: %v", err)
		}
	}
	// Written before the exit-status check so a failing exploration still
	// leaves its dhtm_crashtest_* counters (points, crash images, per-oracle
	// failures) on disk for post-mortem.
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = obs.Default.WriteText(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fail("writing metrics: %v", err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// render prints one report in a compact human-readable form.
func render(r *crashtest.Report) {
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
	fmt.Printf("%s/%s (cores=%d tx=%d seed=%d%s): %d persist events, explored %d%s, %d failed  [%v]\n",
		r.Design, r.Workload, r.Cores, r.TxPerCore, r.BaseSeed, extras,
		r.TotalPoints, r.Explored, images, r.Failed, time.Duration(r.ElapsedNS).Round(time.Millisecond))
	keys := make([]string, 0, len(r.EventsByClass))
	for k := range r.EventsByClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.EventsByClass[k]))
	}
	fmt.Printf("  events: %s\n", strings.Join(parts, " "))
	fmt.Printf("  replays/point: %s   rollbacks/point: %s\n", intHistLine(r.ReplayHist), intHistLine(r.RollbackHist))
	if r.FirstFailure != nil {
		where := fmt.Sprintf("point %d (%s)", r.FirstFailure.Point, r.FirstFailure.Class)
		if r.FirstFailure.Mask != "" {
			where += fmt.Sprintf(" mask %s of %d in flight", r.FirstFailure.Mask, r.FirstFailure.Window)
		}
		fmt.Printf("  FIRST FAILURE at %s: %s\n  reproduce: %s\n",
			where, r.FirstFailure.Err, r.Repro)
	}
}

// intHistLine renders an int-keyed histogram in ascending key order.
func intHistLine(h map[int]int) string {
	max := -1
	for k := range h {
		if k > max {
			max = k
		}
	}
	var parts []string
	for k := 0; k <= max; k++ {
		if n, ok := h[k]; ok {
			parts = append(parts, fmt.Sprintf("%d:%d", k, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// supported reports whether the explorer accepts the design.
func supported(design string) bool {
	for _, d := range crashtest.Supported() {
		if d == design {
			return true
		}
	}
	return false
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
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
