package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExpositionGolden pins the Prometheus text exposition format: family
// ordering, label rendering, cumulative histogram buckets and float
// formatting. Regenerate with -update after an intentional format change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("dhtm_test_requests_total", "Requests served.", L("handler", "jobs"), L("code", "200")).Add(3)
	r.Counter("dhtm_test_requests_total", "Requests served.", L("handler", "jobs"), L("code", "404")).Inc()
	r.Counter("dhtm_test_cells_total", "Cells executed.").Add(7)
	r.Gauge("dhtm_test_queue_depth", "Jobs waiting.").Set(2)
	r.Gauge("dhtm_test_ratio", "A fractional gauge.").Set(0.375)
	h := r.Histogram("dhtm_test_latency_seconds", "Request latency.", []float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 5} {
		h.Observe(v)
	}
	r.Histogram("dhtm_test_latency_seconds", "Request latency.", []float64{0.001, 0.01, 0.1, 1}, L("phase", "run")).Observe(0.02)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "expo.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestHistogramBucketBoundaries is the bucket-boundary table test: values on
// and around each exponential bound must land in the right bucket, with the
// Prometheus "le" convention (bounds are inclusive upper limits).
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := ExpBuckets(1e-4, 2, 4) // 0.0001 0.0002 0.0004 0.0008
	cases := []struct {
		v      float64
		bucket int // index into counts; len(bounds) = +Inf
	}{
		{0, 0},
		{5e-5, 0},
		{1e-4, 0},      // exactly on the first bound: inclusive
		{1.0001e-4, 1}, // just past it
		{2e-4, 1},      // on the second bound
		{3e-4, 2},      // between bounds
		{4e-4, 2},      // on the third bound
		{8e-4, 3},      // on the last finite bound
		{8.0001e-4, 4}, // past every bound: +Inf
		{math.Inf(1), 4},
	}
	for _, tc := range cases {
		h := newHistogram(bounds)
		h.Observe(tc.v)
		for i := range h.counts {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%g): bucket %d = %d, want %d", tc.v, i, got, want)
			}
		}
	}
}

// TestExpBuckets checks the generator itself against a hand-computed table.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(100e-6, 2, 5)
	want := []float64{100e-6, 200e-6, 400e-6, 800e-6, 1600e-6}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestConcurrentIncrements hammers one counter, gauge and histogram from
// many goroutines and checks nothing is lost. CI runs this package under
// -race, which is the point: the hot path must be provably data-race-free.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", DurationBuckets)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%10) * 1e-3)
				// Concurrent registration of an existing series must return
				// the same handle, not a fresh one.
				if r.Counter("c_total", "c") != c {
					panic("duplicate counter handle")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %g, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestZeroAllocHotPath enforces the package's core contract in a test (the
// benchmarks report the same numbers but do not fail the build).
func TestZeroAllocHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", DurationBuckets)
	tr := &CellTrace{}
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(2.5) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.0042) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Add(PhaseRun, time.Millisecond) }); n != 0 {
		t.Errorf("CellTrace.Add allocates %v/op, want 0", n)
	}
}

// TestRegistryConflictsPanic pins the fail-fast behavior on programming
// errors: kind and bucket conflicts panic instead of silently aliasing.
func TestRegistryConflictsPanic(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("x_total", "x")
	expectPanic("kind conflict", func() { r.Gauge("x_total", "x") })
	r.Histogram("h_seconds", "h", []float64{1, 2})
	expectPanic("bucket conflict", func() { r.Histogram("h_seconds", "h", []float64{1, 2, 3}) })
	expectPanic("empty name", func() { r.Counter("", "x") })
	expectPanic("bad buckets", func() { r.Histogram("h2_seconds", "h", []float64{2, 1}) })
}
