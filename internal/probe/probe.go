// Package probe is the cycle-domain observability plane of the simulated
// machine: a time-series sampler that the engine's discrete-event loop
// drives at a fixed simulated-cycle interval, recording per-core and
// per-system signals (WAL occupancy, persist-queue backlog, abort rates,
// bandwidth-class bytes, cache miss counters) into preallocated columns.
//
// Where internal/obs measures the *simulator* in host wall-clock time, probe
// measures the *simulated hardware* in simulated cycles; together they make
// a cell inspectable both as a waveform (this package) and as aggregate
// counters (stats.Stats).
//
// The design constraints mirror internal/obs: the package imports nothing
// else in the repo (every instrumented layer imports probe, never the other
// way round), recording a sample row is 0 allocs/op once the recorder is
// built, and a machine without a recorder pays exactly one scalar compare
// per engine Advance — see engine.SetSampler.
//
// Sample rows are stamped at the *scheduled* cycle (multiples of the
// interval), not at the event-granular cycle the engine happened to reach,
// so stamps are monotonically nondecreasing, land on the same grid for
// every design, and are bit-identical across runs of the same seed. When a
// run outlives the preallocated capacity the recorder decimates in place —
// it keeps every second row and doubles the sampling stride — so memory
// stays bounded and the surviving stamps still lie on a uniform grid.
package probe

// Default sampling parameters: one row every DefaultInterval simulated
// cycles, decimating once DefaultMaxSamples rows have accumulated.
const (
	DefaultInterval   = 256
	DefaultMaxSamples = 4096
)

// Config selects per-cell tracing. The zero value means disabled — cells
// run exactly as before, with no recorder attached.
type Config struct {
	// Interval is the sampling period in simulated cycles (0 = disabled,
	// negative values are impossible by type).
	Interval uint64 `json:"interval,omitempty"`
	// MaxSamples caps the number of rows kept per cell; when reached the
	// recorder halves the resolution in place (0 = DefaultMaxSamples).
	MaxSamples int `json:"max_samples,omitempty"`
}

// Enabled reports whether the config asks for tracing at all.
func (c Config) Enabled() bool { return c.Interval > 0 }

// FlagConfig is the probe configuration of a CLI's -trace/-trace-interval
// flag pair: tracing is on exactly when a trace file is named, sampling every
// interval simulated cycles (0 = DefaultInterval).
func FlagConfig(tracePath string, interval uint64) Config {
	if tracePath == "" {
		return Config{}
	}
	if interval == 0 {
		interval = DefaultInterval
	}
	return Config{Interval: interval}
}

// withDefaults fills unset fields of an enabled config.
func (c Config) withDefaults() Config {
	if c.MaxSamples <= 1 {
		c.MaxSamples = DefaultMaxSamples
	}
	return c
}

// Kind distinguishes signals whose samples are instantaneous levels from
// signals whose samples are cumulative totals.
type Kind uint8

const (
	// Gauge samples are instantaneous levels (queue depth, occupancy).
	Gauge Kind = iota
	// Counter samples are cumulative, nondecreasing totals (bytes, commits);
	// exporters may derive per-interval rates from them.
	Counter
)

// String returns the kind's wire name.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// SampleFunc reads one signal's current value. The scheduled sample cycle is
// passed in because some gauges are defined relative to simulated time (the
// memory channel backlog is "how far past now is the channel booked").
// Implementations must not allocate and must not mutate simulator state.
type SampleFunc func(cycle uint64) float64

// Registrar is implemented by design runtimes (and any other layer resolved
// dynamically) that have signals to contribute to a cell's recorder.
type Registrar interface {
	RegisterProbes(*Recorder)
}

// signal is one registered time series; values shares its row index with the
// recorder's cycles column.
type signal struct {
	name   string
	unit   string
	source string
	kind   Kind
	fn     SampleFunc
	values []float64
}

// Recorder collects one cell's timeline. Build it with NewRecorder, register
// every signal before the run starts, then let the engine drive Sample; none
// of the methods are safe for concurrent use (the engine is single-threaded
// by construction).
type Recorder struct {
	interval uint64 // current stride (doubles on decimation)
	max      int
	next     uint64 // next scheduled sample cycle

	cycles []uint64 // shared stamp column, one entry per row
	sigs   []signal

	cfg      Config
	label    string
	design   string
	workload string
	seed     int64
}

// NewRecorder builds a recorder for one cell. cfg is defaulted; a disabled
// config yields a recorder that still works (at DefaultInterval) so callers
// gate on Config.Enabled, not on nil-ness of what this returns.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	interval := cfg.Interval
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Recorder{
		interval: interval,
		max:      cfg.MaxSamples,
		cycles:   make([]uint64, 0, cfg.MaxSamples),
		cfg:      cfg,
	}
}

// SetMeta attaches the cell identity exported with the timeline: the cell
// label ("DHTM/hash/..."), the design and workload names, and the derived
// seed the cell ran with.
func (r *Recorder) SetMeta(label, design, workload string, seed int64) {
	r.label, r.design, r.workload, r.seed = label, design, workload, seed
}

// Register adds a signal. All registration must happen before Start; the
// column is preallocated to the recorder's row capacity so sampling never
// allocates.
func (r *Recorder) Register(name, unit, source string, kind Kind, fn SampleFunc) {
	if len(r.cycles) > 0 {
		panic("probe: Register after sampling started")
	}
	r.sigs = append(r.sigs, signal{
		name: name, unit: unit, source: source, kind: kind, fn: fn,
		values: make([]float64, 0, r.max),
	})
}

// Gauge registers an instantaneous-level signal.
func (r *Recorder) Gauge(name, unit, source string, fn SampleFunc) {
	r.Register(name, unit, source, Gauge, fn)
}

// Counter registers a cumulative-total signal.
func (r *Recorder) Counter(name, unit, source string, fn SampleFunc) {
	r.Register(name, unit, source, Counter, fn)
}

// Start records the cycle-0 row (the state of the freshly prepared machine)
// and arms the schedule. Call it once, after registration and before the
// engine runs.
func (r *Recorder) Start() {
	if len(r.cycles) == 0 {
		r.record(0)
	}
}

// NextDue returns the next scheduled sample cycle, i.e. the first-due cycle
// to hand to engine.SetSampler.
func (r *Recorder) NextDue() uint64 { return r.next }

// Sample is the engine callback: it records a row stamped with the scheduled
// cycle and returns the next due cycle (always > cycle, so the engine's
// catch-up loop terminates). 0 allocs/op within capacity; a decimation step
// moves values in place and allocates nothing either.
func (r *Recorder) Sample(cycle uint64) uint64 {
	r.record(cycle)
	return r.next
}

// Finish records a final row stamped at the run's makespan if the schedule
// had not reached it, so every timeline ends with the terminal state of the
// machine (drained queues, final totals).
func (r *Recorder) Finish(makespan uint64) {
	if n := len(r.cycles); n == 0 || r.cycles[n-1] < makespan {
		r.record(makespan)
	}
}

// record appends one row, decimating first when at capacity.
func (r *Recorder) record(cycle uint64) {
	if len(r.cycles) >= r.max {
		r.decimate()
	}
	r.cycles = append(r.cycles, cycle)
	for i := range r.sigs {
		s := &r.sigs[i]
		s.values = append(s.values, s.fn(cycle))
	}
	r.next = cycle + r.interval
}

// decimate halves the resolution in place: keep the even-index rows (row 0
// survives every decimation) and double the stride for future samples.
func (r *Recorder) decimate() {
	n := len(r.cycles)
	keep := 0
	for i := 0; i < n; i += 2 {
		r.cycles[keep] = r.cycles[i]
		keep++
	}
	r.cycles = r.cycles[:keep]
	for j := range r.sigs {
		v := r.sigs[j].values
		k := 0
		for i := 0; i < n; i += 2 {
			v[k] = v[i]
			k++
		}
		r.sigs[j].values = v[:k]
	}
	r.interval *= 2
}

// Rows returns the number of recorded sample rows.
func (r *Recorder) Rows() int { return len(r.cycles) }
