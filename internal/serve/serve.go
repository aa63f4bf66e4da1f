// Package serve is the campaign service of the reproduction: an HTTP API
// that accepts experiment, sweep and crash-test campaigns as JSON jobs,
// executes them on a bounded worker pool through the existing runner, and
// streams per-cell progress to any number of clients. Wired to a
// resultstore.Store, it is the serving layer the ROADMAP's production
// north-star asks for: a cell is simulated at most once ever — concurrent
// submits share in-flight computes (singleflight), later submits are
// answered from memory or disk without simulating, and interrupted
// campaigns resume from what already persisted.
//
// API (all under /api/v1):
//
//	POST   /jobs             submit a JobSpec               -> Status (202)
//	GET    /jobs             list jobs                      -> []Status
//	GET    /jobs/{id}        poll one job                   -> Status
//	DELETE /jobs/{id}        cancel a queued or running job -> Status
//	GET    /jobs/{id}/events Server-Sent Events progress stream
//	GET    /jobs/{id}/tables rendered harness tables (text/plain)
//	GET    /store            result-store and snapshot-cache metrics
//	GET    /catalog          experiments, designs, workloads the service runs
//	GET    /healthz          liveness (also at top level /healthz)
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dhtm/internal/crashtest"
	"dhtm/internal/harness"
	"dhtm/internal/obs"
	"dhtm/internal/probe"
	"dhtm/internal/registry"
	"dhtm/internal/resultstore"
	"dhtm/internal/runner"
	"dhtm/internal/scenario"
	"dhtm/internal/snapshot"
)

// Config assembles a server.
type Config struct {
	// Store answers repeated cells without simulating. Required; use a
	// memory-only store (resultstore.Open("", ...)) to serve without
	// persistence.
	Store *resultstore.Store
	// Workers bounds how many jobs execute concurrently (<= 0 means 2).
	// Queued jobs wait their turn in submission order.
	Workers int
	// CellParallel caps each job's cell worker pool (<= 0 means GOMAXPROCS).
	// A job asking for more is clamped, so one greedy campaign cannot
	// oversubscribe the host.
	CellParallel int
	// MaxJobs bounds the retained job history (<= 0 means 1024). Submits
	// beyond it are rejected with 503 until old terminal jobs are evicted.
	MaxJobs int
	// Registry receives the server's dhtm_serve_* metric families and backs
	// GET /metrics. Nil means obs.Default — the process-wide plane that the
	// runner, crashtest and snapshot layers already report into.
	Registry *obs.Registry
	// Logger receives structured request and job lifecycle logs. Nil disables
	// logging.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: profiling endpoints expose heap contents and should be
	// opted into on trusted listeners only.
	Pprof bool
	// TraceInterval, when > 0, records cycle-domain probes for every cell
	// the server actually simulates, sampling every TraceInterval simulated
	// cycles. Traces are served per cell from
	// GET /api/v1/jobs/{id}/cells/{key}/trace; cache hits carry none.
	TraceInterval uint64
}

// serveMetrics bundles the server's registry handles. All methods are
// nil-receiver-safe so Jobs built outside a server (tests) need no wiring.
type serveMetrics struct {
	queueDepth *obs.Gauge
	sseSubs    *obs.Gauge
	jobSeconds *obs.Histogram
	jobsTotal  map[JobState]*obs.Counter
	jobsGauge  map[JobState]*obs.Gauge
	reg        *obs.Registry
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	m := &serveMetrics{
		reg: reg,
		queueDepth: reg.Gauge("dhtm_serve_queue_depth",
			"Jobs accepted but still waiting for a worker slot."),
		sseSubs: reg.Gauge("dhtm_serve_sse_subscribers",
			"Currently connected SSE progress streams."),
		jobSeconds: reg.Histogram("dhtm_serve_job_seconds",
			"Job wall-clock time from submission to a terminal state.", obs.DurationBuckets),
		jobsTotal: make(map[JobState]*obs.Counter),
		jobsGauge: make(map[JobState]*obs.Gauge),
	}
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		m.jobsTotal[st] = reg.Counter("dhtm_serve_jobs_total",
			"Job state transitions entered, by state.", obs.L("state", string(st)))
		m.jobsGauge[st] = reg.Gauge("dhtm_serve_jobs",
			"Retained jobs currently in each state.", obs.L("state", string(st)))
	}
	return m
}

// jobAccepted records a freshly submitted job (its first state is queued,
// entered without a setState transition).
func (m *serveMetrics) jobAccepted() {
	if m == nil {
		return
	}
	m.jobsTotal[StateQueued].Inc()
	m.jobsGauge[StateQueued].Inc()
	m.queueDepth.Inc()
}

// jobTransition records a state change; on a terminal state it also observes
// the job's submit-to-finish latency.
func (m *serveMetrics) jobTransition(from, to JobState, submitted time.Time) {
	if m == nil || from == to {
		return
	}
	m.jobsTotal[to].Inc()
	if g, ok := m.jobsGauge[from]; ok {
		g.Dec()
	}
	m.jobsGauge[to].Inc()
	if to.terminal() {
		m.jobSeconds.ObserveSince(submitted)
	}
}

// jobEvicted drops an evicted job from the composition gauge.
func (m *serveMetrics) jobEvicted(state JobState) {
	if m == nil {
		return
	}
	if g, ok := m.jobsGauge[state]; ok {
		g.Dec()
	}
}

// Server executes campaigns. Create with New, expose with Handler.
type Server struct {
	cfg     Config
	metrics *serveMetrics
	log     *slog.Logger
	nextReq atomic.Uint64 // request-ID counter

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing and eviction
	nextID int

	sem      chan struct{} // job worker-pool slots
	wg       sync.WaitGroup
	baseCtx  context.Context
	stop     context.CancelFunc
	draining atomic.Bool
}

// New returns a ready server. Call Close to cancel running jobs on
// shutdown.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.CellParallel <= 0 {
		// Without a cap a client could ask for arbitrary per-job parallelism;
		// GOMAXPROCS keeps "one greedy campaign cannot oversubscribe the
		// host" true by default.
		cfg.CellParallel = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		metrics: newServeMetrics(cfg.Registry),
		log:     log,
		jobs:    make(map[string]*Job),
		sem:     make(chan struct{}, cfg.Workers),
		baseCtx: ctx,
		stop:    cancel,
	}, nil
}

// Close cancels every job and waits for the running ones to wind down.
func (s *Server) Close() {
	s.stop()
	s.wg.Wait()
}

// Drain is the graceful half of shutdown: new submissions are rejected with
// 503, queued and running jobs run to completion, and only then does the
// server close. A caller that cannot wait (a second SIGTERM) should call
// Close, which cancels the remaining jobs outright.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.wg.Wait()
	s.Close()
}

// Store exposes the server's result store (the CLI reports its metrics on
// shutdown).
func (s *Server) Store() *resultstore.Store { return s.cfg.Store }

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.cfg.Registry.Handler())
	mux.HandleFunc("GET /api/v1/store", s.handleStore)
	mux.HandleFunc("GET /api/v1/catalog", s.handleCatalog)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/tables", s.handleTables)
	mux.HandleFunc("GET /api/v1/jobs/{id}/cells/{key}/trace", s.handleTrace)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// statusWriter captures the response code for request metrics and logs. It
// forwards Flush so SSE streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the API with per-handler request metrics and structured
// request logging. Handlers are labelled by their route pattern, never the
// raw URL, so the label space stays bounded.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := fmt.Sprintf("req-%06d", s.nextReq.Add(1))
		w.Header().Set("X-Request-Id", reqID)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		elapsed := time.Since(start)

		pattern := r.Pattern
		if pattern == "" {
			pattern = "unmatched"
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.cfg.Registry.Counter("dhtm_serve_requests_total",
			"HTTP requests served, by route pattern.", obs.L("handler", pattern)).Inc()
		s.cfg.Registry.Histogram("dhtm_serve_request_seconds",
			"HTTP request latency, by route pattern.", obs.DurationBuckets, obs.L("handler", pattern)).Observe(elapsed.Seconds())
		s.log.Info("request",
			"req_id", reqID,
			"method", r.Method,
			"path", r.URL.Path,
			"handler", pattern,
			"status", sw.status,
			"elapsed", elapsed,
		)
	})
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.order)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "jobs": n})
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"dir":       s.cfg.Store.Dir(),
		"metrics":   s.cfg.Store.Metrics(),
		"snapshots": snapshot.Default.Metrics(),
	})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	type experiment struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var exps []experiment
	for _, e := range harness.Experiments() {
		exps = append(exps, experiment{ID: e.ID, Title: e.Title})
	}
	// The design and workload sections are the registry entries verbatim —
	// names, descriptions, tags and crash-safety — so the catalog is always
	// exactly what submissions validate against.
	writeJSON(w, http.StatusOK, map[string]any{
		"experiments":             exps,
		"designs":                 registry.Designs(),
		"workloads":               registry.Workloads(),
		"crashtest_designs":       crashtest.Supported(),
		"job_kinds":               []JobKind{KindExperiment, KindSweep, KindCrashtest},
		"scenario_format_version": scenario.FormatVersion,
		"workers":                 s.cfg.Workers,
		"cell_parallel_cap":       s.cfg.CellParallel,
		"result_store_dir":        s.cfg.Store.Dir(),
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading job body: %v", err)
		return
	}
	var spec JobSpec
	if scenario.Sniff(body) {
		// A scenario document (it carries a format_version) — the exact file
		// the CLIs run with -scenario. Compile it to a job spec, so one
		// campaign spec runs identically on a laptop and against the service.
		doc, err := scenario.Parse(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		compiled, err := doc.Compile()
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		spec = specFromScenario(compiled)
	} else {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
			return
		}
	}
	if err := spec.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.submit(spec)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.status())
}

// submit registers the job and hands it to the worker pool.
func (s *Server) submit(spec JobSpec) (*Job, error) {
	if s.draining.Load() {
		return nil, fmt.Errorf("server is draining; not accepting new jobs")
	}
	s.mu.Lock()
	if len(s.order) >= s.cfg.MaxJobs && !s.evictOneLocked() {
		s.mu.Unlock()
		return nil, fmt.Errorf("job table full (%d jobs, none terminal)", s.cfg.MaxJobs)
	}
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	job := &Job{
		ID:        fmt.Sprintf("job-%06d", s.nextID),
		Kind:      spec.Kind,
		spec:      spec,
		ctx:       ctx,
		cancel:    cancel,
		metrics:   s.metrics,
		state:     StateQueued,
		submitted: time.Now(),
		subs:      map[chan Event]struct{}{},
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()
	s.metrics.jobAccepted()
	s.log.Info("job accepted", "job", job.ID, "kind", job.Kind)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		// Take a worker slot; a cancel while queued must not wedge the slot.
		select {
		case s.sem <- struct{}{}:
			s.metrics.queueDepth.Dec()
			defer func() { <-s.sem }()
		case <-ctx.Done():
			s.metrics.queueDepth.Dec()
			job.setState(StateCancelled, "cancelled while queued")
			return
		}
		s.run(job)
	}()
	return job, nil
}

// evictOneLocked drops the oldest terminal job to make room. Reports false
// when every retained job is still live.
func (s *Server) evictOneLocked() bool {
	for i, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state.terminal() {
			delete(s.jobs, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			s.metrics.jobEvicted(state)
			return true
		}
	}
	return false
}

// run executes one job to a terminal state.
func (s *Server) run(job *Job) {
	if err := job.ctx.Err(); err != nil {
		job.setState(StateCancelled, "cancelled while queued")
		return
	}
	job.setState(StateRunning, "")

	var err error
	switch job.Kind {
	case KindExperiment:
		err = s.runExperiments(job)
	case KindSweep:
		err = s.runSweep(job)
	case KindCrashtest:
		err = s.runCrashtest(job)
	}

	switch {
	case err == nil:
		// A cancel that raced a successful completion does not un-complete
		// the job: every result computed and persisted, so report done.
		job.setState(StateDone, "")
	case errors.Is(err, context.Canceled) || job.ctx.Err() != nil:
		job.setState(StateCancelled, "cancelled")
	default:
		job.setState(StateFailed, err.Error())
	}
	st := job.summary()
	s.log.Info("job finished",
		"job", job.ID, "kind", job.Kind, "state", st.State, "error", st.Error,
		"cells", st.Cells.Done, "cached", st.Cells.Cached, "failed", st.Cells.Failed,
		"elapsed", st.FinishedAt.Sub(st.QueuedAt),
	)
}

// parallel clamps a job's requested cell parallelism to the server cap.
func (s *Server) parallel(requested int) int {
	p := requested
	if s.cfg.CellParallel > 0 && (p <= 0 || p > s.cfg.CellParallel) {
		p = s.cfg.CellParallel
	}
	return p
}

// traceConfig is the per-cell probe config the server's jobs run with;
// disabled unless Config.TraceInterval asked for tracing.
func (s *Server) traceConfig() probe.Config {
	return probe.Config{Interval: s.cfg.TraceInterval}
}

// runExperiments executes the selected harness experiments sequentially
// (their cells fan out in parallel) so tables stream out as they finish.
func (s *Server) runExperiments(job *Job) error {
	ids := job.spec.experimentIDs()
	opts := harness.Options{
		Quick: job.spec.Quick, TxPerCore: job.spec.TxPerCore, Cores: job.spec.Cores,
		Seed: job.spec.Seed, Parallel: s.parallel(job.spec.Parallel),
		Store: s.cfg.Store, Trace: s.traceConfig(),
	}

	// Pre-size the cell counter so progress fractions are stable from the
	// first event.
	total := 0
	for _, id := range ids {
		e, _ := harness.Find(id)
		total += len(e.Plan(opts).Cells)
	}
	job.mu.Lock()
	job.cells.Total = total
	job.mu.Unlock()

	var failures []string
	for _, id := range ids {
		if job.ctx.Err() != nil {
			return context.Canceled
		}
		e, _ := harness.Find(id)
		expOpts := opts
		expOpts.Progress = func(ev runner.ProgressEvent) { job.cellDone(id, ev) }
		outcome := ExperimentOutcome{ID: e.ID, Title: e.Title}
		rs, err := e.RunGrid(job.ctx, expOpts)
		if err == nil {
			if err = rs.Err(); err == nil {
				outcome.Table, err = e.Reduce(expOpts, rs)
			}
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return context.Canceled
			}
			outcome.Error = err.Error()
			failures = append(failures, fmt.Sprintf("%s: %v", e.ID, err))
		}
		job.mu.Lock()
		job.experiments = append(job.experiments, outcome)
		job.mu.Unlock()
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d experiments failed: %s", len(failures), len(ids), strings.Join(failures, "; "))
	}
	return nil
}

// runSweep executes a literal cell plan through the store.
func (s *Server) runSweep(job *Job) error {
	plan := *job.spec.Plan
	plan.Store = s.cfg.Store
	job.mu.Lock()
	job.cells.Total = len(plan.Cells)
	job.mu.Unlock()

	rs, err := runner.Run(job.ctx, plan, harness.ExecuteWith(s.traceConfig()), runner.Options{
		Parallel: s.parallel(job.spec.Parallel),
		Seed:     job.spec.Seed,
		Progress: func(ev runner.ProgressEvent) { job.cellDone(plan.Name, ev) },
	})
	if err != nil {
		return err
	}
	outcomes := scenario.SweepOutcomes(rs)
	job.mu.Lock()
	job.sweep = outcomes
	job.mu.Unlock()
	return rs.Err()
}

// runCrashtest executes the job's crash-point explorations sequentially
// (each exploration fans its points out in parallel), mapping point
// progress onto job events.
func (s *Server) runCrashtest(job *Job) error {
	var failures []string
	for _, cfg := range job.spec.crashtestConfigs() {
		if err := job.ctx.Err(); err != nil {
			return context.Canceled
		}
		cfg.Parallel = s.parallel(job.spec.Parallel)
		if cfg.Seed == 0 {
			cfg.Seed = job.spec.Seed
		}
		// One event per explored point would swamp the history and the SSE
		// streams on exhaustive explorations; batch like the CLI's progress
		// log.
		name := cfg.Design + "/" + cfg.Workload
		cfg.Progress = func(done, total int) {
			if done%64 == 0 || done == total {
				job.publish(Event{Type: "point", Experiment: name, Done: done, Total: total})
			}
		}
		rep, err := crashtest.Explore(job.ctx, cfg)
		if err != nil {
			return err
		}
		job.mu.Lock()
		job.crashtests = append(job.crashtests, rep)
		job.mu.Unlock()
		if rep.Failed > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d of %d crash points failed; reproduce: %s",
				name, rep.Failed, rep.Explored, rep.Repro))
		}
	}
	// The cross-design half of the differential oracle: every design in the
	// grid that explored the same committed sequences must have recovered
	// the same heap.
	job.mu.Lock()
	reports := append([]*crashtest.Report(nil), job.crashtests...)
	job.mu.Unlock()
	if err := crashtest.CrossCheck(reports); err != nil {
		failures = append(failures, err.Error())
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}

// lookup resolves {id}, writing the 404 itself on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return job
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	statuses := make([]Status, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.summary()
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job := s.lookup(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	job.cancel()
	writeJSON(w, http.StatusAccepted, job.status())
}

// handleEvents streams the job's progress as Server-Sent Events: the full
// history first, then live events until the job reaches a terminal state or
// the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	history, live := job.subscribe()
	s.metrics.sseSubs.Inc()
	defer s.metrics.sseSubs.Dec()
	defer job.unsubscribe(live)
	for _, ev := range history {
		if err := writeSSE(w, ev); err != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				// Terminal: tell the client explicitly so curl loops can stop.
				fmt.Fprintf(w, "event: done\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one event in SSE framing.
func writeSSE(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	return err
}

// handleTables renders a job's results as the same aligned plain text the
// CLIs print: harness tables for experiment jobs, a synthesized grid table
// for sweep jobs, a summary for crash tests. The default output is
// byte-identical to the CLI rendering (CI diffs the two); ?meta=1 appends a
// job-lifecycle footer with timestamps and the phase breakdown.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	st := job.status()
	if !st.State.terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; tables render once it finishes", st.ID, st.State)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch job.Kind {
	case KindExperiment:
		for _, o := range st.Experiments {
			if o.Error != "" {
				harness.RenderFailure(w, o.ID, o.Error)
				continue
			}
			o.Table.Render(w)
		}
	case KindSweep:
		name := ""
		if st.Spec != nil && st.Spec.Plan != nil {
			name = st.Spec.Plan.Name
		}
		scenario.SweepTable(name, st.Sweep).Render(w)
	case KindCrashtest:
		if len(st.Crashtests) == 0 {
			fmt.Fprintf(w, "crashtest produced no report: %s\n", st.Error)
			return
		}
		for _, rep := range st.Crashtests {
			fmt.Fprintf(w, "%s/%s: %d persist events, explored %d, %d failed\n",
				rep.Design, rep.Workload, rep.TotalPoints, rep.Explored, rep.Failed)
			classes := make([]string, 0, len(rep.EventsByClass))
			for c := range rep.EventsByClass {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				fmt.Fprintf(w, "  %s=%d\n", c, rep.EventsByClass[c])
			}
			if rep.FirstFailure != nil {
				fmt.Fprintf(w, "  first failure at point %d (%s): %s\n  reproduce: %s\n",
					rep.FirstFailure.Point, rep.FirstFailure.Class, rep.FirstFailure.Err, rep.Repro)
			}
		}
	}
	if r.URL.Query().Get("meta") != "" {
		writeTablesMeta(w, st)
	}
}

// handleTrace serves one cell's cycle-domain probe recording. The default
// body is Chrome trace-event / Perfetto JSON (load it at
// https://ui.perfetto.dev); ?format=timeline returns the compact versioned
// timeline instead. Cell keys containing "/" are addressed with %2F (the
// route's {key} matches a single path segment). A 404 names the reasons a
// trace can be missing — the dashboard shows that state verbatim.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	key := r.PathValue("key")
	tl := job.trace(key)
	if tl == nil {
		writeError(w, http.StatusNotFound,
			"no trace recorded for cell %q of job %s (tracing disabled, cell answered from the result store, or trace evicted)",
			key, job.ID)
		return
	}
	if r.URL.Query().Get("format") == "timeline" {
		writeJSON(w, http.StatusOK, tl)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	probe.WriteChromeTrace(w, []*probe.Timeline{tl})
}

// writeTablesMeta renders the ?meta=1 footer of /tables: job lifecycle
// timestamps and the per-phase time breakdown.
func writeTablesMeta(w io.Writer, st Status) {
	fmt.Fprintf(w, "# job %s (%s) %s\n", st.ID, st.Kind, st.State)
	fmt.Fprintf(w, "# queued_at   %s\n", st.QueuedAt.Format(time.RFC3339))
	if !st.StartedAt.IsZero() {
		fmt.Fprintf(w, "# started_at  %s\n", st.StartedAt.Format(time.RFC3339))
	}
	if !st.FinishedAt.IsZero() {
		fmt.Fprintf(w, "# finished_at %s\n", st.FinishedAt.Format(time.RFC3339))
	}
	for _, name := range obs.PhaseNames() {
		if ns, ok := st.PhaseNS[name]; ok {
			fmt.Fprintf(w, "# phase %-11s %s\n", name, time.Duration(ns))
		}
	}
}
