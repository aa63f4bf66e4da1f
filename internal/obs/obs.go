// Package obs is the repo's telemetry plane: a dependency-free metrics
// registry (counters, gauges, histograms with fixed exponential buckets)
// that renders the Prometheus text exposition format, plus a lightweight
// per-cell phase tracer (trace.go).
//
// Design constraints, in order:
//
//  1. The increment path is hot — runner cells, store lookups and snapshot
//     clones fire it thousands of times per campaign — so Counter.Add,
//     Gauge.Set/Add and Histogram.Observe are lock-free atomics with zero
//     allocations (pinned by TestZeroAllocHotPath and the benchmarks).
//  2. Registration is idempotent: asking a registry for an already-registered
//     (name, labels) pair returns the existing handle, so any package can
//     resolve its handles at init without coordinating ownership. Conflicting
//     re-registration (same name, different kind or buckets) panics — that is
//     a programming error, not a runtime condition.
//  3. Exposition is deterministic: families sort by name, series by label
//     signature, so -metrics dumps are diffable and golden-testable.
//
// The process-wide Default registry is what the CLIs dump with -metrics;
// subsystems that need isolated counters (per-store, per-cache, tests)
// create their own Registry.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry. Package-level instrumentation
// (runner cells, crashtest points, the snapshot Default cache) registers
// here; the CLIs dump it with -metrics.
var Default = NewRegistry()

// Label is one name="value" pair on a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates the metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered metric instance (a family member with a concrete
// label set).
type series struct {
	labels  []Label
	sig     string // rendered label signature, the dedup + sort key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups every series registered under one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64 // histogram families only
	series  []*series
}

// Registry holds metric families and renders them. Safe for concurrent use;
// the handles it returns are independent of the registry lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter registered under name with exactly these
// labels, registering it on first use. A counter is a monotone uint64.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, nil, labels)
	return s.counter
}

// Gauge returns the gauge registered under name with exactly these labels,
// registering it on first use. A gauge is a float64 that may go up and down.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, nil, labels)
	return s.gauge
}

// Histogram returns the histogram registered under name with exactly these
// labels, registering it on first use. buckets are the ascending upper
// bounds (exclusive of +Inf, which is implicit); every series of a family
// shares the family's buckets — the buckets of the first registration win,
// and a later registration with different buckets panics.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, buckets, labels)
	return s.hist
}

// register resolves or creates the (name, labels) series.
func (r *Registry) register(name, help string, k kind, buckets []float64, labels []Label) *series {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		if k == kindHistogram {
			buckets = checkBuckets(name, buckets)
		}
		f = &family{name: name, help: help, kind: k, buckets: buckets}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k, f.kind))
	}
	if k == kindHistogram && buckets != nil && !sameBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	for _, s := range f.series {
		if s.sig == sig {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...), sig: sig}
	switch k {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newHistogram(f.buckets)
	}
	f.series = append(f.series, s)
	return s
}

// checkBuckets validates histogram bounds at registration time so Observe
// never has to.
func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram %q bucket %d is not finite", name, i))
		}
		if i > 0 && b <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending at %d", name, i))
		}
	}
	return append([]float64(nil), buckets...)
}

func sameBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// labelSignature renders labels in key-sorted order — the series identity
// within a family and its exposition order.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Counter is a monotone counter. The zero value is usable but callers should
// obtain counters from a Registry so they render.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a float64 that can move both ways, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets and tracks their sum.
// Observe is lock-free and allocation-free; the per-bucket counts are
// non-cumulative internally and rendered cumulatively (le-style) at
// exposition.
type Histogram struct {
	upper  []float64 // ascending upper bounds; the final +Inf bucket is counts[len(upper)]
	counts []atomic.Uint64
	sum    Gauge // float64 bits, CAS-added
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the seconds elapsed since start — the idiomatic call
// for duration histograms.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) from the
// bucket counts, using the bucket upper bound as the estimate — the same
// resolution a Prometheus histogram_quantile has. It exists for in-process
// summaries (CLI exit lines, the dashboard's p99); exposition carries the
// raw buckets.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(h.upper) {
				return h.upper[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// ExpBuckets returns n strictly ascending bucket bounds starting at start
// and growing by factor: start, start*factor, ..., start*factor^(n-1).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets covers 100µs to ~52s doubling per bucket — the range of a
// simulation cell or of a whole experiment.
var DurationBuckets = ExpBuckets(100e-6, 2, 20)

// IOBuckets covers 2µs to ~32s in ×4 steps — the range of one
// copy-on-write image clone, from a tiny heap to a pathological one.
var IOBuckets = ExpBuckets(2e-6, 4, 13)
