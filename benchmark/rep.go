package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dhtm/internal/obs"
	"dhtm/internal/runner"
	"dhtm/internal/snapshot"
	"dhtm/internal/stats"
)

// repResult is one repetition's measurements, sent from the child process
// to the parent as JSON.
type repResult struct {
	Traced bool `json:"traced"`
	// SetupS runs from the parent's spawn of the child to the first timed
	// call; WallS is the timed repetition itself.
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// Items is the repetition's unit of work: committed simulated
	// transactions in the result set, or explored crash images.
	Items float64 `json:"items"`
	// CellsMS is the host latency of every simulation cell, in plan order.
	CellsMS   []float64 `json:"cells_ms,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	// Digest hashes every simulated outcome of the repetition; equal seeds
	// must give equal digests.
	Digest    string             `json:"sim_digest"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Layer     map[string]float64 `json:"layer"`
	Spans     []span             `json:"spans,omitempty"`
}

// rep accumulates one repetition while it runs.
type rep struct {
	tr *tracer
	// workers is the number of clients issuing cells (0 when the workload
	// has no cells), the denominator of runner.busy_frac.
	workers  int
	cellsMS  []float64
	busy     time.Duration
	items    float64
	attempts int
	failed   int
	errs     []string
	digest   hash.Hash64
	sim      *stats.Stats
	cycles   uint64
	phases   [obs.NumPhases]time.Duration
	// distinct holds every (cell key, seed) simulated, for
	// harness.redundant_frac.
	distinct map[string]bool
	layer    map[string]float64
}

func newRep(traced bool) *rep {
	r := &rep{digest: fnv.New64a(), sim: stats.New(0), distinct: map[string]bool{}, layer: map[string]float64{}}
	if traced {
		r.tr = &tracer{t0: time.Now()}
	}
	return r
}

// fail records one failed operation.
func (r *rep) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// cell folds one completed simulation cell into the repetition: its
// latency, phases and counters, and a check that every transaction the cell
// issued committed. Every workload's cells set TxPerCore; the simulated core
// count is the number of cores the cell's counters cover.
func (r *rep) cell(res runner.Result) {
	r.attempts++
	r.cellsMS = append(r.cellsMS, float64(res.Elapsed)/float64(time.Millisecond))
	r.busy += res.Elapsed
	if res.Err != nil {
		r.fail(fmt.Errorf("cell %s: %w", res.Cell.ID, res.Err))
		return
	}
	c, run := res.Cell, res.Run
	if want := uint64(len(run.Stats.Cores) * c.TxPerCore); want == 0 || run.Committed != want {
		r.fail(fmt.Errorf("cell %s: %d of %d transactions committed", c.ID, run.Committed, want))
		return
	}
	r.items += float64(run.Committed)
	r.distinct[fmt.Sprintf("%s|%d", c.Key(), c.Seed)] = true
	r.sim.Merge(run.Stats)
	r.cycles += run.Cycles
	run.Phases.Each(func(p obs.Phase, d time.Duration) { r.phases[p] += d })
	sj, err := json.Marshal(run.Stats)
	if err != nil {
		r.fail(err)
		return
	}
	fmt.Fprintf(r.digest, "%s|%d|%d|%d|%s\n", c.ID, c.Seed, run.Committed, run.Cycles, sj)
}

// cellSpans places a completed cell on the trace: the cell spans
// [end-Elapsed, end], and its setup, clone and run phases follow one another
// from its start in harness.execute order.
func (r *rep) cellSpans(parent int, res runner.Result, end time.Time) {
	if r.tr == nil {
		return
	}
	start := end.Add(-res.Elapsed)
	id := r.tr.add("runner.cell", parent, start, end)
	for _, ph := range []struct {
		p    obs.Phase
		name string
	}{{obs.PhaseSetup, "snapshot.prepare"}, {obs.PhaseClone, "txn.env"}, {obs.PhaseRun, "workloads.run"}} {
		d := res.Run.Phases.Get(ph.p)
		r.tr.add(ph.name, id, start, start.Add(d))
		start = start.Add(d)
	}
}

// probes are the process-wide counters read before and after a repetition.
type probes struct {
	snap                snapshot.Metrics
	cloneS, verifyS     float64
	cellsOK             uint64
	gcCPU, cpu, idleCPU float64
	allocBytes          uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readProbes reads the series the simulator's packages registered in
// obs.Default at init; asking the registry for an existing (name, labels)
// pair returns the live handle and changes nothing.
func readProbes() probes {
	metrics.Read(runtimeSamples)
	return probes{
		snap:       snapshot.Default.Metrics(),
		cloneS:     obs.Default.Histogram("dhtm_snapshot_clone_seconds", "", nil).Sum(),
		verifyS:    obs.Default.Histogram("dhtm_cell_phase_seconds", "", nil, obs.L("phase", obs.PhaseVerify.String())).Sum(),
		cellsOK:    obs.Default.Counter("dhtm_runner_cells_completed_total", "", obs.L("status", "ok")).Value(),
		gcCPU:      runtimeSamples[0].Value.Float64(),
		cpu:        runtimeSamples[1].Value.Float64(),
		idleCPU:    runtimeSamples[2].Value.Float64(),
		allocBytes: runtimeSamples[3].Value.Uint64(),
	}
}

// runRep runs one repetition of the named workload in this process. spawned
// is when the process (or, in-process, the call) started, so SetupS covers
// everything before the first timed call.
func runRep(ctx context.Context, name string, seed int64, smoke bool, spawned time.Time, profile string) (*repResult, error) {
	w := lookupWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	r := newRep(profile != "")
	before := readProbes()
	var prof *os.File
	if profile != "" {
		var err error
		if prof, err = os.Create(profile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
	}
	start := time.Now()
	root := r.tr.begin("workload", -1)
	w.run(ctx, r, root, seed, smoke)
	r.tr.end(root)
	wall := time.Since(start)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	after := readProbes()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := &repResult{
		Traced:    profile != "",
		SetupS:    start.Sub(spawned).Seconds(),
		WallS:     wall.Seconds(),
		Items:     r.items,
		CellsMS:   r.cellsMS,
		Attempted: r.attempts,
		Failed:    r.failed,
		Errors:    r.errs,
		Digest:    fmt.Sprintf("%016x", r.digest.Sum64()),
		PeakRSSMB: peakRSSMB(),
		Layer:     r.layer,
	}
	if r.tr != nil {
		out.Spans = r.tr.spans
	}
	l := out.Layer
	if r.workers > 0 {
		l["runner.busy_frac"] = r.busy.Seconds() / (wall.Seconds() * float64(r.workers))
	}
	l["snapshot.setup_s"] = r.phases[obs.PhaseSetup].Seconds()
	l["txn.env_s"] = r.phases[obs.PhaseClone].Seconds()
	l["workloads.run_s"] = r.phases[obs.PhaseRun].Seconds()
	l["snapshot.misses"] = float64(after.snap.Misses - before.snap.Misses)
	l["snapshot.clones"] = float64(after.snap.Clones - before.snap.Clones)
	l["snapshot.clone_s"] = after.cloneS - before.cloneS
	l["crashtest.verify_s"] = after.verifyS - before.verifyS
	if simulated := float64(after.cellsOK - before.cellsOK); simulated > 0 {
		l["harness.redundant_frac"] = (simulated - float64(len(r.distinct))) / simulated
	}
	if used := (after.cpu - before.cpu) - (after.idleCPU - before.idleCPU); used > 0 {
		l["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / used
	}
	if r.items > 0 {
		l["runtime.alloc_kb_per_item"] = float64(after.allocBytes-before.allocBytes) / 1024 / r.items
	}
	s := r.sim
	commits, aborts := s.TotalCommits(), s.TotalAborts()
	var l1, llcMiss uint64
	for _, c := range s.Cores {
		l1 += c.L1Hits + c.L1Misses
		llcMiss += c.LLCMisses
	}
	l["sim.commits"] = float64(commits)
	l["sim.l1_accesses"] = float64(l1)
	l["sim.llc_misses"] = float64(llcMiss)
	l["sim.overflowed_lines"] = float64(s.OverflowedLines)
	l["sim.mcycles"] = float64(r.cycles) / 1e6
	if commits > 0 {
		l["sim.aborts_per_commit"] = float64(aborts) / float64(commits)
		l["sim.log_bytes_per_tx"] = float64(s.LogBytes) / float64(commits)
		l["sim.host_us_per_attempt"] = r.phases[obs.PhaseRun].Seconds() * 1e6 / float64(commits+aborts)
	}
	return out, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
