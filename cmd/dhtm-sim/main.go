// Command dhtm-sim runs one design on one workload on the simulated machine
// and prints detailed statistics. It supports crash injection: -crash stops
// the run at the last transaction's commit point, simulates a power failure
// and writes the persistent-memory image to a file that cmd/dhtm-recover can
// replay. Grids of cells are scenario documents: run them with
// dhtm-bench -scenario.
//
// Examples:
//
//	dhtm-sim -design DHTM -workload hash -tx 24
//	dhtm-sim -design DHTM -workload queue -crash -image crash.img
//	dhtm-sim -design ATOM -workload tpcc -cores 4 -tx 4
//	dhtm-sim -design DHTM -workload tpcc -policy requester-wins -seed 7
//	dhtm-sim -design DHTM -workload hash -trace trace.json -trace-interval 128
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"dhtm/internal/config"
	"dhtm/internal/harness"
	"dhtm/internal/obs"
	"dhtm/internal/probe"
	"dhtm/internal/recovery"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

func main() {
	design := flag.String("design", registry.DesignDHTM, "design to run ("+strings.Join(registry.DesignNames(), ", ")+")")
	workload := flag.String("workload", "hash", "workload to run ("+strings.Join(registry.WorkloadNames(), ", ")+")")
	tx := flag.Int("tx", 16, "transactions per core")
	cores := flag.Int("cores", 0, "number of cores (0 = 8)")
	ops := flag.Int("ops", 0, "operations per transaction (0 = the workload's default)")
	logBuf := flag.Int("logbuf", 0, "DHTM log-buffer entries (0 = configured default of 64)")
	bw := flag.Float64("bw", 1.0, "memory bandwidth scale factor")
	policy := flag.String("policy", config.FirstWriterWins.String(), "conflict policy ("+config.FirstWriterWins.String()+", "+config.RequesterWins.String()+")")
	seed := flag.Int64("seed", 0, "workload generation seed (0 = the default, 42)")
	crash := flag.Bool("crash", false, "crash at the last commit point instead of finishing cleanly")
	image := flag.String("image", "", "write the persistent-memory image to this file (with -crash)")
	recoverFlag := flag.Bool("recover", false, "run the recovery manager in-process after a crash and verify the workload")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	tracePath := flag.String("trace", "", "record cycle-domain probes and write a Chrome trace-event / Perfetto JSON file (load it at https://ui.perfetto.dev or chrome://tracing)")
	traceInterval := flag.Uint64("trace-interval", 0, "probe sampling interval in simulated cycles (0 = default "+fmt.Sprint(probe.DefaultInterval)+"; needs -trace)")
	metricsOut := flag.String("metrics", "", "write the run's metrics registry in Prometheus text format to this file at exit")
	flag.Parse()

	if *metricsOut != "" {
		defer func() {
			if err := obs.Default.WriteFile(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "dhtm-sim: writing metrics: %v\n", err)
			}
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("creating CPU profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("starting CPU profile: %v", err)
		}
		done := false
		stopProfile = func() {
			if done {
				return
			}
			done = true
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}

	if err := registry.CheckDesign(*design); err != nil {
		misuse("%v", err)
	}
	if err := registry.CheckWorkload(*workload); err != nil {
		misuse("%v", err)
	}
	if *bw == 0 {
		misuse("bandwidth scale must be positive, got 0")
	}
	pol, err := config.ParseConflictPolicy(*policy)
	if err != nil {
		misuse("%v", err)
	}
	// One flag per runner.Cell field, so any sweep cell re-runs here with
	// its seed.
	cell := runner.Cell{
		ID: *design + "/" + *workload, Design: *design, Workload: *workload,
		Cores: *cores, TxPerCore: *tx, OpsPerTx: *ops, Seed: *seed,
		Overrides: runner.Overrides{LogBufferEntries: *logBuf, BandwidthScale: *bw, ConflictPolicy: pol},
	}
	cfg, err := cell.Config()
	if err != nil {
		misuse("%v", err)
	}
	runSingle(cell, cfg, *crash, *image, *recoverFlag, probe.FlagConfig(*tracePath, *traceInterval), *tracePath)
}

// runSingle runs the cell on cfg with full statistics, including crash
// injection, image capture, recovery and workload verification.
func runSingle(cell runner.Cell, cfg config.Config, crash bool, image string, recoverAfter bool, tc probe.Config, tracePath string) {
	env, err := txn.NewEnv(cfg)
	if err != nil {
		fail("building environment: %v", err)
	}
	rt, err := registry.NewRuntime(env, cell.Design)
	if err != nil {
		fail("%v", err)
	}
	w, err := registry.NewWorkload(cell.Workload)
	if err != nil {
		fail("%v", err)
	}
	if tc.Enabled() {
		env.Probe = harness.TraceRecorder(tc, env, rt, cell)
	}

	p := workloads.Params{Cores: cfg.NumCores, Seed: cell.Seed, OpsPerTx: cell.OpsPerTx}
	res, err := workloads.Run(env, rt, w, p, cell.TxPerCore, !crash)
	if err != nil {
		fail("running workload: %v", err)
	}
	fmt.Printf("%s on %s: %d transactions committed in %d cycles (%.3f tx/Mcycle)\n",
		rt.Name(), w.Name(), res.Committed, res.Cycles, res.Throughput())
	fmt.Print(env.Stats.Summary())
	if tracePath != "" {
		if err := probe.WriteChromeTraceFile(tracePath, []*probe.Timeline{res.Timeline}); err != nil {
			fail("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dhtm-sim: trace written to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", tracePath)
	}

	if crash {
		env.Hier.Crash()
		fmt.Println("crash injected: volatile state discarded, durable logs retained")
		if image != "" {
			f, err := os.Create(image)
			if err != nil {
				fail("creating image file: %v", err)
			}
			if err := env.Store().Save(f); err != nil {
				fail("writing image: %v", err)
			}
			if err := f.Close(); err != nil {
				fail("closing image: %v", err)
			}
			fmt.Printf("persistent-memory image written to %s (replay it with dhtm-recover)\n", image)
		}
		if recoverAfter {
			report, err := recovery.Recover(env.Store())
			if err != nil {
				fail("recovery: %v", err)
			}
			fmt.Print(report)
			if err := w.Verify(env.Store()); err != nil {
				fail("workload verification after recovery FAILED: %v", err)
			}
			fmt.Println("workload invariants verified after recovery")
		}
		return
	}

	env.Hier.DrainClean()
	if err := w.Verify(env.Store()); err != nil {
		fail("workload verification FAILED: %v", err)
	}
	fmt.Println("workload invariants verified")
}

// stopProfile flushes an active -cpuprofile; every exit path must call it so
// the profile file gets its trailer even when the run fails.
var stopProfile = func() {}

// misuse reports a flag-usage error with exit code 2 (the repo convention:
// 2 = misuse, 1 = the run itself failed).
func misuse(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dhtm-sim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dhtm-sim: "+format+"\n", args...)
	stopProfile()
	os.Exit(1)
}
