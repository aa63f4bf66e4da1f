// Command dhtm-sim runs one design on one workload on the simulated machine
// and prints detailed statistics. It supports crash injection: -crash stops
// the run at the last transaction's commit point, simulates a power failure
// and writes the persistent-memory image to a file that cmd/dhtm-recover can
// replay. Grids of cells are scenario documents: run them with
// dhtm-bench -scenario or POST them to dhtm-serve.
//
// Examples:
//
//	dhtm-sim -design DHTM -workload hash -tx 24
//	dhtm-sim -design DHTM -workload queue -crash -image crash.img
//	dhtm-sim -design ATOM -workload tpcc -cores 4 -tx 4
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
	logBuf := flag.Int("logbuf", 0, "DHTM log-buffer entries (0 = configured default of 64)")
	bw := flag.Float64("bw", 1.0, "memory bandwidth scale factor")
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
		fail("%v", err)
	}
	if err := registry.CheckWorkload(*workload); err != nil {
		fail("%v", err)
	}
	if *bw <= 0 {
		fail("bandwidth scale must be positive, got %g", *bw)
	}
	ov := runner.Overrides{LogBufferEntries: *logBuf}
	if *bw != 1.0 {
		ov.BandwidthScale = *bw
	}
	runSingle(*design, *workload, *tx, *cores, *seed, ov, *crash, *image, *recoverFlag,
		probe.FlagConfig(*tracePath, *traceInterval), *tracePath)
}

// runSingle runs the cell with full statistics, including crash injection,
// image capture, recovery and workload verification.
func runSingle(design, workload string, tx, cores int, seed int64, ov runner.Overrides, crash bool, image string, recoverAfter bool, tc probe.Config, tracePath string) {
	cfg := config.Default()
	if cores > 0 {
		cfg.NumCores = cores
	}
	cfg = ov.Apply(cfg)

	env, err := txn.NewEnv(cfg)
	if err != nil {
		fail("building environment: %v", err)
	}
	rt, err := registry.NewRuntime(env, design)
	if err != nil {
		fail("%v", err)
	}
	w, err := registry.NewWorkload(workload)
	if err != nil {
		fail("%v", err)
	}
	if tc.Enabled() {
		cell := runner.Cell{
			ID: design + "/" + workload, Design: design, Workload: workload,
			Cores: cfg.NumCores, TxPerCore: tx, Seed: seed,
		}
		env.Probe = harness.TraceRecorder(tc, env, rt, cell)
	}

	res, err := workloads.Run(env, rt, w, workloads.Params{Cores: cfg.NumCores, Seed: seed}, tx, !crash)
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

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dhtm-sim: "+format+"\n", args...)
	stopProfile()
	os.Exit(1)
}
