// Command benchmark is the repository's committed benchmark. It drives the
// simulator from outside, through the calls the CLIs make
// (harness.Experiment.RunGrid + Reduce, runner.Run + harness.Execute,
// crashtest.Explore + CrossCheck), on four workloads — paper, oltp, crash
// and cell — and prints end-to-end metrics and, in a traced run, per-layer
// metrics, a span tree and per-layer CPU shares. README.md is the metric
// catalog.
//
// Every repetition runs in a fresh child process (the binary re-executes
// itself with -child), so process-wide caches start cold as they do for a
// CLI user and peak RSS is per repetition. With several workloads the
// repetitions run round-robin, so host drift hits all of them alike.
//
//	bash benchmark/run.sh -workload paper -seed 1 -seconds 20
//	bash benchmark/run.sh -workload crash -seconds 20 -trace 1
//	bash benchmark/run.sh                  # all four workloads for about 30 s
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one repetition, which takes a few seconds on a
// 2-vCPU host.
const childTimeout = 150 * time.Second

// runConfig is one benchmark invocation.
type runConfig struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	traceDir  string
	smoke     bool
}

// repFunc runs one repetition of a workload. main re-executes the binary;
// tests run the repetition in-process. profile, when non-empty, is where a
// traced repetition writes its CPU profile.
type repFunc func(ctx context.Context, name, profile string) (*repResult, error)

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same simulated work")
	seconds := flag.Float64("seconds", 30, "measure for about this many seconds (at least two rounds)")
	trace := flag.Int("trace", 0, "1 = traced run: alternate untraced and traced repetitions and report per-layer metrics")
	traceDir := flag.String("tracedir", filepath.Join(".bench_build", "trace"), "directory a traced run writes spans and CPU profiles to")
	smoke := flag.Bool("smoke", false, "tiny grids: checks that everything runs, measures nothing useful")
	child := flag.Bool("child", false, "internal: run one repetition and print it as JSON")
	spawned := flag.Int64("spawned", 0, "internal: parent's spawn time, Unix nanoseconds")
	profile := flag.String("profile", "", "internal: CPU profile path of a traced repetition")
	flag.Parse()

	if *child {
		r, err := runRep(context.Background(), *workload, *seed, *smoke, time.Unix(0, *spawned), *profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, smoke: *smoke}
	switch {
	case *workload == "all":
		cfg.workloads = workloadNames()
	case lookupWorkload(*workload) != nil:
		cfg.workloads = []string{*workload}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (valid: %s, all)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := measure(ctx, cfg, spawnRep(cfg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// spawnRep runs each repetition in a fresh child process of this binary.
func spawnRep(cfg runConfig) repFunc {
	return func(ctx context.Context, name, profile string) (*repResult, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(ctx, childTimeout)
		defer cancel()
		args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10)}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		if profile != "" {
			args = append(args, "-profile", profile)
		}
		args = append(args, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s repetition: %w", name, err)
		}
		var r repResult
		if err := json.Unmarshal(out, &r); err != nil {
			return nil, fmt.Errorf("%s repetition: decoding its result: %w", name, err)
		}
		return &r, nil
	}
}

// measure runs rounds of one repetition per selected workload until the
// next round would end past the time budget, then folds the repetitions
// into per-workload results. In a traced run even rounds are untraced and
// odd rounds traced, so the two interleave under the same host conditions.
func measure(ctx context.Context, cfg runConfig, run repFunc) (*result, error) {
	if cfg.trace {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	res := newResult(cfg)
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		traced := cfg.trace && round%2 == 1
		for _, name := range cfg.workloads {
			profile := ""
			if traced {
				profile = filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d-rep%02d.pprof", name, cfg.seed, round))
			}
			r, err := run(ctx, name, profile)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			res.add(name, r, err, profile)
		}
		// Two rounds at least: the digest check needs a second repetition,
		// and a traced run one round of each kind.
		if round >= 1 && time.Since(start)+time.Since(roundStart) > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	if err := res.finish(ctx, cfg); err != nil {
		return nil, err
	}
	return res, nil
}
