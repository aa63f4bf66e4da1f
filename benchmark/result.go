package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported from
// untraced repetitions on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"items_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs. The
// per-repetition ones are medians over the run's untraced repetitions; the
// cell percentiles pool every cell of those repetitions; the cpu_frac and
// trace_overhead_frac metrics come from the traced repetitions. A layer a
// workload does not exercise reads 0.
var perLayer = append([]metricDef{
	{"runner.cell_p50_ms", "ms"},
	{"runner.cell_p98_ms", "ms"},
	{"runner.busy_frac", "ratio"},
	{"snapshot.setup_s", "s"},
	{"snapshot.misses", "count"},
	{"snapshot.clones", "count"},
	{"snapshot.clone_s", "s"},
	{"txn.env_s", "s"},
	{"workloads.run_s", "s"},
	{"crashtest.images", "count"},
	{"crashtest.points", "count"},
	{"crashtest.verify_s", "s"},
	{"crashtest.crosscheck_ms", "ms"},
	{"harness.redundant_frac", "ratio"},
	{"harness.reduce_ms", "ms"},
	{"harness.paper_err", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_kb_per_item", "kB/item"},
	{"sim.commits", "count"},
	{"sim.aborts_per_commit", "ratio"},
	{"sim.l1_accesses", "count"},
	{"sim.llc_misses", "count"},
	{"sim.log_bytes_per_tx", "B/tx"},
	{"sim.overflowed_lines", "count"},
	{"sim.mcycles", "Mcycles"},
	{"sim.host_us_per_attempt", "us"},
	{"trace_overhead_frac", "ratio"},
}, cpuFracMetrics()...)

func cpuFracMetrics() []metricDef {
	out := make([]metricDef, len(layers))
	for i, l := range layers {
		out[i] = metricDef{l + ".cpu_frac", "ratio"}
	}
	return out
}

// stat summarizes one metric's values. A pooled stat is a single value
// computed over n samples (a percentile, a share), with no quartiles.
type stat struct {
	median, p25, p75 float64
	n                int
	pooled           bool
}

// summarize returns the median and quartiles of vals, the quartiles by
// Python's statistics.quantiles(vals, n=4) (the "exclusive" method).
func summarize(vals []float64) stat {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	st := stat{n: len(s)}
	switch len(s) {
	case 0:
		return st
	case 1:
		st.median, st.p25, st.p75 = s[0], s[0], s[0]
		return st
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	st.p25, st.median, st.p75 = q(1), percentile(s, 0.5), q(3)
	return st
}

// percentile returns the p-quantile of sorted values, interpolating
// linearly between the two nearest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// workloadResult folds every repetition of one workload.
type workloadResult struct {
	untraced, traced []*repResult
	profiles         []string
	attempted        int
	failed           int
	errs             []string
	digest           string
	e2e, layer       map[string]stat
	selfMS           map[string]float64 // per traced repetition
	tracePath        string
}

// result is one benchmark invocation's outcome.
type result struct {
	order  []string
	byName map[string]*workloadResult
}

func newResult(cfg runConfig) *result {
	res := &result{order: cfg.workloads, byName: make(map[string]*workloadResult)}
	for _, n := range cfg.workloads {
		res.byName[n] = &workloadResult{}
	}
	return res
}

// add folds one repetition (or its failure to run) into its workload. Each
// repetition also counts as one operation: the check that its sim_digest
// equals the first repetition's.
func (res *result) add(name string, r *repResult, err error, profile string) {
	w := res.byName[name]
	w.attempted++
	if err != nil {
		w.failed++
		w.errs = append(w.errs, err.Error())
		return
	}
	w.attempted += r.Attempted
	w.failed += r.Failed
	w.errs = append(w.errs, r.Errors...)
	switch {
	case w.digest == "":
		w.digest = r.Digest
	case r.Digest != w.digest:
		w.failed++
		w.errs = append(w.errs, fmt.Sprintf("sim_digest %s differs from the first repetition's %s", r.Digest, w.digest))
	}
	if r.Traced {
		w.traced = append(w.traced, r)
		w.profiles = append(w.profiles, profile)
	} else {
		w.untraced = append(w.untraced, r)
	}
}

// finish computes every workload's metrics; a traced run also folds the
// CPU profiles and writes the span trace.
func (res *result) finish(ctx context.Context, cfg runConfig) error {
	for _, name := range res.order {
		w := res.byName[name]
		if len(w.untraced) == 0 {
			return fmt.Errorf("%s: no repetition completed: %s", name, strings.Join(w.errs, "; "))
		}
		col := func(f func(*repResult) float64) stat {
			vals := make([]float64, len(w.untraced))
			for i, r := range w.untraced {
				vals[i] = f(r)
			}
			return summarize(vals)
		}
		w.e2e = map[string]stat{
			"setup_s":     col(func(r *repResult) float64 { return r.SetupS }),
			"wall_s":      col(func(r *repResult) float64 { return r.WallS }),
			"items_per_s": col(func(r *repResult) float64 { return r.Items / r.WallS }),
			"peak_rss_mb": col(func(r *repResult) float64 { return r.PeakRSSMB }),
		}
		w.layer = make(map[string]stat)
		for _, m := range perLayer {
			w.layer[m.name] = col(func(r *repResult) float64 { return r.Layer[m.name] })
		}
		var cells []float64
		for _, r := range w.untraced {
			cells = append(cells, r.CellsMS...)
		}
		sort.Float64s(cells)
		w.layer["runner.cell_p50_ms"] = stat{median: percentile(cells, 0.50), n: len(cells), pooled: true}
		w.layer["runner.cell_p98_ms"] = stat{median: percentile(cells, 0.98), n: len(cells), pooled: true}
		if !cfg.trace {
			continue
		}
		if len(w.traced) == 0 {
			return fmt.Errorf("%s: no traced repetition completed: %s", name, strings.Join(w.errs, "; "))
		}
		frac, err := foldProfiles(ctx, w.profiles)
		if err != nil {
			return err
		}
		for _, l := range layers {
			w.layer[l+".cpu_frac"] = stat{median: frac[l], n: len(w.profiles), pooled: true}
		}
		wall := func(reps []*repResult) float64 {
			vals := make([]float64, len(reps))
			for i, r := range reps {
				vals[i] = r.WallS
			}
			return summarize(vals).median
		}
		w.layer["trace_overhead_frac"] = stat{median: wall(w.traced)/wall(w.untraced) - 1, n: len(w.traced), pooled: true}
		w.selfMS = make(map[string]float64)
		for _, r := range w.traced {
			for l, d := range selfTimes(r.Spans) {
				w.selfMS[l] += float64(d) / float64(time.Millisecond) / float64(len(w.traced))
			}
		}
		w.tracePath = filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.trace.json", name, cfg.seed))
		if err := writeChromeTrace(w.tracePath, w.traced); err != nil {
			return err
		}
	}
	return nil
}

// print writes the human-readable report, then the result line: one JSON
// object whose metrics are the end-to-end ones, or in a traced run the
// per-layer ones. With several workloads each metric name is prefixed by
// its workload ("paper/wall_s").
func (res *result) print(out io.Writer, cfg runConfig) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "benchmark: seed %d, nproc %d (GOMAXPROCS %d), cpu %q, %s\n",
		cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	correct := true
	attempted, failed := 0, 0
	metrics := make(map[string]any)
	for _, name := range res.order {
		wr := res.byName[name]
		attempted += wr.attempted
		failed += wr.failed
		correct = correct && wr.failed == 0
		fmt.Fprintf(w, "\n== %s: %d untraced + %d traced repetitions, sim_digest %s, %d of %d operations failed\n",
			name, len(wr.untraced), len(wr.traced), wr.digest, wr.failed, wr.attempted)
		for _, e := range wr.errs {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		fmt.Fprintf(w, "  %-28s %-8s %12s %12s %12s %4s\n", "end-to-end", "unit", "median", "p25", "p75", "n")
		for _, m := range endToEnd {
			st := wr.e2e[m.name]
			fmt.Fprintf(w, "  %-28s %-8s %12.6g %12.6g %12.6g %4d\n", m.name, m.unit, st.median, st.p25, st.p75, st.n)
		}
		fmt.Fprintf(w, "  %-28s %-8s %12s %12s %12s %4s\n", "per-layer", "unit", "median", "p25", "p75", "n")
		for _, m := range perLayer {
			st := wr.layer[m.name]
			switch {
			case !cfg.trace && (strings.HasSuffix(m.name, ".cpu_frac") || m.name == "trace_overhead_frac"):
			case st.pooled:
				fmt.Fprintf(w, "  %-28s %-8s %12.6g %12s %12s %4d\n", m.name, m.unit, st.median, "-", "-", st.n)
			default:
				fmt.Fprintf(w, "  %-28s %-8s %12.6g %12.6g %12.6g %4d\n", m.name, m.unit, st.median, st.p25, st.p75, st.n)
			}
		}
		if cfg.trace {
			fmt.Fprintf(w, "  self time per traced repetition (ms):")
			for _, l := range slices.Sorted(maps.Keys(wr.selfMS)) {
				fmt.Fprintf(w, " %s %.1f", l, wr.selfMS[l])
			}
			fmt.Fprintf(w, "\n  spans: %s\n  profiles: %s\n", wr.tracePath, strings.Join(wr.profiles, " "))
		}
		defs, stats := endToEnd, wr.e2e
		if cfg.trace {
			defs, stats = perLayer, wr.layer
		}
		for _, m := range defs {
			key := m.name
			if len(res.order) > 1 {
				key = name + "/" + m.name
			}
			metrics[key] = map[string]any{"value": stats[m.name].median, "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
