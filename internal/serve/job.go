package serve

import (
	"context"
	"sort"
	"sync"
	"time"

	"dhtm/internal/crashtest"
	"dhtm/internal/obs"
	"dhtm/internal/probe"
	"dhtm/internal/runner"
	"dhtm/internal/scenario"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// CellProgress counts a job's cells.
type CellProgress struct {
	Total int `json:"total"`
	Done  int `json:"done"`
	// Cached cells were answered by the result store without simulating;
	// Failed cells returned an error (cancellation included).
	Cached int `json:"cached"`
	Failed int `json:"failed"`
}

// Event is one progress notification, delivered over SSE and retained (up
// to maxEventHistory) for replay to later subscribers. Seq is dense per
// job, so a client that spots a gap — it drained too slowly and missed live
// deliveries, or old history was trimmed — knows to reconnect to /events
// for a fresh replay of everything still retained.
type Event struct {
	Seq  int       `json:"seq"`
	Type string    `json:"type"` // "state", "cell", "point", "done"
	Job  string    `json:"job"`
	Time time.Time `json:"time"`

	// State events.
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`

	// Cell events (experiment and sweep jobs).
	Experiment string        `json:"experiment,omitempty"`
	Cell       string        `json:"cell,omitempty"`
	Cached     bool          `json:"cached,omitempty"`
	CellError  string        `json:"cell_error,omitempty"`
	Elapsed    time.Duration `json:"elapsed_ns,omitempty"`

	// Shared progress counters (cells for cell events, crash points for
	// point events).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// Job is one submitted campaign. All mutable state is guarded by mu; the
// HTTP layer reads through snapshot methods.
type Job struct {
	ID string `json:"id"`
	// Kind is the scenario's mode.
	Kind scenario.Mode `json:"kind"`

	compiled *scenario.Compiled // compiled.Doc is the submitted document
	ctx      context.Context
	cancel   context.CancelFunc
	metrics  *serveMetrics // nil for jobs built outside a server (tests)

	mu        sync.Mutex
	state     JobState
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cells     CellProgress
	phases    obs.CellTrace // summed over the job's simulated cells
	events    []Event
	nextSeq   int
	subs      map[chan Event]struct{}

	// result is the run's outcome, set once it returns (partial when the
	// job failed or was cancelled).
	result *scenario.Result

	// traces holds the cycle-domain probe recordings of the job's simulated
	// cells (present only when the server runs with tracing on; cache hits
	// carry none), capped at maxJobTraces per job.
	traces map[string]*probe.Timeline
}

// Status is the polling view of a job (GET /api/v1/jobs/{id}). The JSON
// shape is pinned by the golden test in status_golden_test.go.
type Status struct {
	ID    string        `json:"id"`
	Kind  scenario.Mode `json:"kind"`
	State JobState      `json:"state"`
	Error string        `json:"error,omitempty"`
	// QueuedAt is when the job was accepted; StartedAt/FinishedAt bound its
	// execution and are omitted until reached (RFC 3339 like every
	// encoding/json time).
	QueuedAt   time.Time    `json:"queued_at"`
	StartedAt  time.Time    `json:"started_at,omitzero"`
	FinishedAt time.Time    `json:"finished_at,omitzero"`
	Cells      CellProgress `json:"cells"`
	// PhaseNS is the wall-clock phase breakdown summed over the job's
	// actually-simulated cells, keyed by obs phase name (clone, setup, run,
	// verify, store_write), in nanoseconds. Cached cells contribute nothing.
	PhaseNS map[string]int64 `json:"phase_ns,omitempty"`
	Events  int              `json:"events"`

	// Scenario and the result payloads below are included by the single-job
	// endpoint and omitted from listings.
	Scenario *scenario.Document `json:"scenario,omitempty"`

	Experiments []scenario.ExperimentOutcome `json:"experiments,omitempty"`
	Sweep       []scenario.SweepOutcome      `json:"sweep,omitempty"`
	Crashtests  []*crashtest.Report          `json:"crashtests,omitempty"`

	// Traces lists the cell keys with a recorded probe timeline, each served
	// by GET /api/v1/jobs/{id}/cells/{key}/trace. Empty when the server runs
	// without tracing or every cell was a cache hit.
	Traces []string `json:"traces,omitempty"`
}

// status snapshots the job under its lock, results included.
func (j *Job) status() Status {
	st := j.summary()
	j.mu.Lock()
	defer j.mu.Unlock()
	st.Scenario = j.compiled.Doc
	if r := j.result; r != nil {
		st.Experiments, st.Sweep, st.Crashtests = r.Experiments, r.Sweep, r.Crashtests
	}
	if len(j.traces) > 0 {
		st.Traces = make([]string, 0, len(j.traces))
		for key := range j.traces {
			st.Traces = append(st.Traces, key)
		}
		sort.Strings(st.Traces)
	}
	return st
}

// trace returns the probe timeline recorded for one cell, or nil.
func (j *Job) trace(key string) *probe.Timeline {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traces[key]
}

// maxJobTraces caps the probe timelines retained per job: a full-suite
// campaign has hundreds of cells and each timeline is tens of kilobytes, so
// the job keeps the first arrivals and the status lists exactly which.
const maxJobTraces = 64

// summary is the listing view: lifecycle and counters only, no result
// payloads — a job list stays constant-size per job no matter how many
// tables and cells each job produced.
func (j *Job) summary() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, Kind: j.Kind, State: j.state, Error: j.err,
		QueuedAt: j.submitted, StartedAt: j.started, FinishedAt: j.finished,
		Cells: j.cells, Events: j.nextSeq,
	}
	j.phases.Each(func(p obs.Phase, d time.Duration) {
		if st.PhaseNS == nil {
			st.PhaseNS = make(map[string]int64, obs.NumPhases)
		}
		st.PhaseNS[p.String()] = int64(d)
	})
	return st
}

// maxEventHistory caps a job's retained event history. History exists only
// to replay progress to late SSE subscribers, so when a job outgrows the
// cap (an exhaustive crashtest has tens of thousands of points) the oldest
// half is dropped — late subscribers see a Seq gap, not a memory leak.
const maxEventHistory = 4096

// publish appends an event to the job's history and fans it out to SSE
// subscribers. A subscriber too slow to drain its buffer misses the live
// delivery; the Seq gap tells it to reconnect for a replay.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	ev.Seq = j.nextSeq
	j.nextSeq++
	ev.Job = j.ID
	ev.Time = time.Now()
	if len(j.events) >= maxEventHistory {
		j.events = append(j.events[:0], j.events[maxEventHistory/2:]...)
	}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe returns the event history so far and a channel carrying every
// later event. When the job is already terminal the channel arrives closed.
func (j *Job) subscribe() ([]Event, chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history := append([]Event(nil), j.events...)
	ch := make(chan Event, 256)
	if j.state.terminal() {
		close(ch)
		return history, ch
	}
	j.subs[ch] = struct{}{}
	return history, ch
}

// unsubscribe detaches an SSE client.
func (j *Job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
}

// setState transitions the job and publishes a state event.
func (j *Job) setState(state JobState, errMsg string) {
	j.mu.Lock()
	prev := j.state
	j.state = state
	j.err = errMsg
	switch state {
	case StateRunning:
		j.started = time.Now()
	case StateDone, StateFailed, StateCancelled:
		j.finished = time.Now()
	}
	submitted := j.submitted
	j.mu.Unlock()
	j.metrics.jobTransition(prev, state, submitted)
	j.publish(Event{Type: "state", State: state, Error: errMsg})
	if state.terminal() {
		j.mu.Lock()
		subs := j.subs
		j.subs = map[chan Event]struct{}{}
		j.mu.Unlock()
		for ch := range subs {
			close(ch)
		}
	}
}

// cellDone folds one completed cell into the job's counters and publishes
// its event.
func (j *Job) cellDone(experiment string, ev runner.ProgressEvent) {
	j.mu.Lock()
	j.cells.Done++
	if ev.Result.Cached {
		j.cells.Cached++
	}
	if ev.Result.Err != nil {
		j.cells.Failed++
	}
	ev.Result.Run.Phases.Each(func(p obs.Phase, d time.Duration) { j.phases.Add(p, d) })
	if tl := ev.Result.Run.Timeline; tl != nil && len(j.traces) < maxJobTraces {
		if j.traces == nil {
			j.traces = make(map[string]*probe.Timeline)
		}
		j.traces[ev.Result.Cell.ID] = tl
	}
	done, total := j.cells.Done, j.cells.Total
	j.mu.Unlock()
	cellErr := ""
	if ev.Result.Err != nil {
		cellErr = ev.Result.Err.Error()
	}
	j.publish(Event{
		Type: "cell", Experiment: experiment, Cell: ev.Result.Cell.ID,
		Cached: ev.Result.Cached, CellError: cellErr, Elapsed: ev.Result.Elapsed,
		Done: done, Total: total,
	})
}
