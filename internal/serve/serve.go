// Package serve is the campaign service of the reproduction: an HTTP API
// that accepts experiment, sweep and crash-test campaigns as scenario
// documents (internal/scenario), executes them on a bounded worker pool
// through scenario.Run — the executor every CLI uses — and streams per-cell
// progress to any number of clients. Wired to a
// resultstore.Store, it is the serving layer the ROADMAP's production
// north-star asks for: a cell is simulated at most once ever — concurrent
// submits share in-flight computes (singleflight), later submits are
// answered from memory or disk without simulating, and interrupted
// campaigns resume from what already persisted.
//
// API (all under /api/v1):
//
//	POST   /jobs             submit a scenario document     -> Status (202)
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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dhtm/internal/crashtest"
	"dhtm/internal/harness"
	"dhtm/internal/obs"
	"dhtm/internal/probe"
	"dhtm/internal/registry"
	"dhtm/internal/resultstore"
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
	// CellParallel sizes each job's cell (or crash-point) worker pool (<= 0
	// means GOMAXPROCS), so one campaign cannot oversubscribe the host.
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
		"job_kinds":               []scenario.Mode{scenario.ModeExperiment, scenario.ModeSweep, scenario.ModeCrashtest},
		"scenario_format_version": scenario.FormatVersion,
		"workers":                 s.cfg.Workers,
		"cell_parallel_cap":       s.cfg.CellParallel,
		"result_store_dir":        s.cfg.Store.Dir(),
	})
}

// handleSubmit accepts a scenario document — the exact file dhtm-bench
// runs with -scenario — and compiles it at the door, so a queued job can
// only fail by simulating, never by parsing.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading job body: %v", err)
		return
	}
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
	job, err := s.submit(compiled)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.status())
}

// submit registers the job and hands it to the worker pool.
func (s *Server) submit(c *scenario.Compiled) (*Job, error) {
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
		Kind:      c.Doc.Mode,
		compiled:  c,
		ctx:       ctx,
		cancel:    cancel,
		metrics:   s.metrics,
		state:     StateQueued,
		submitted: time.Now(),
		subs:      map[chan Event]struct{}{},
		cells:     CellProgress{Total: c.Cells()},
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

	res, err := scenario.Run(job.ctx, job.compiled, scenario.RunOptions{
		Store:    s.cfg.Store,
		Parallel: s.cfg.CellParallel,
		Trace:    probe.Config{Interval: s.cfg.TraceInterval},
		OnCell:   job.cellDone,
		OnPoint: func(label string, done, total int) {
			job.publish(Event{Type: "point", Experiment: label, Done: done, Total: total})
		},
	})
	// The job keeps its own capped per-cell traces (see cellDone).
	res.Timelines = nil
	job.mu.Lock()
	job.result = res
	job.mu.Unlock()

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

// handleTables renders a job's results through scenario.Result.Render, the
// renderer dhtm-bench prints with, so the default output is byte-identical
// to the CLI's for the same document (CI diffs the two); ?meta=1 appends a
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
	job.mu.Lock()
	res := job.result
	job.mu.Unlock()
	if res != nil {
		res.Render(w)
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
