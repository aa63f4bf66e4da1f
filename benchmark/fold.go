package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// layers are the README's architecture layers a CPU sample can fold into,
// plus the Go runtime for samples outside the simulator.
var layers = []string{"engine", "cache", "hier", "memdev", "designs", "durability", "recovery",
	"workloads", "snapshot", "runner", "harness", "crashtest", "runtime"}

// layerOfPkg maps dhtm/internal packages to layers. Packages absent here
// (stats, obs, probe, config, registry, ...) fold into their caller's layer.
var layerOfPkg = map[string]string{
	"engine": "engine", "cache": "cache", "hier": "hier", "memdev": "memdev",
	"core": "designs", "baselines": "designs", "htm": "designs", "locks": "designs", "txn": "designs",
	"wal": "durability", "logbuf": "durability", "palloc": "durability",
	"recovery": "recovery", "workloads": "workloads", "snapshot": "snapshot",
	"runner": "runner", "harness": "harness", "crashtest": "crashtest",
}

// frameLayer returns the layer of one stack frame's function name, or ""
// when the frame is not in a mapped dhtm/internal package.
func frameLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, "dhtm/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return layerOfPkg[rest]
}

// foldTraces folds the text of `go tool pprof -traces` into CPU time per
// layer: each sample goes to the layer of its innermost mapped dhtm/internal
// frame, so runtime frames (allocation, GC assists, memclr) count to the
// layer that called them; samples with no such frame count to runtime.
func foldTraces(r io.Reader) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSample := false
	var value time.Duration
	layer := ""
	flush := func() {
		if !inSample {
			return
		}
		if layer == "" {
			layer = "runtime"
		}
		out[layer] += value
		inSample, layer = false, ""
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // the header: File, Type, Time, Duration
		}
		// A sample's first line carries its value before the leaf frame;
		// the frames of its callers follow one per line.
		if !inSample {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("fold: unexpected trace line %q", line)
			}
			inSample, value = true, d
			fields = fields[1:]
		}
		if layer == "" {
			layer = frameLayer(fields[0])
		}
	}
	flush()
	return out, sc.Err()
}

// foldProfiles merges CPU profiles with the installed go tool pprof and
// returns each layer's share of the samples.
func foldProfiles(ctx context.Context, paths []string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("fold: the go command is needed for go tool pprof: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, goBin, append([]string{"tool", "pprof", "-traces"}, paths...)...)
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("fold: go tool pprof: %w: %s", err, stderr.String())
	}
	byLayer, err := foldTraces(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	var total time.Duration
	for _, d := range byLayer {
		total += d
	}
	frac := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			frac[l] = float64(byLayer[l]) / float64(total)
		}
	}
	return frac, nil
}
