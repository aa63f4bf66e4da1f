package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dhtm/internal/resultstore"
)

// newTracedServer is newTestServer with cycle-domain probe tracing enabled.
func newTracedServer(t *testing.T, dir string, interval uint64) (*Server, *httptest.Server) {
	t.Helper()
	store, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Workers: 1, TraceInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// getBody fetches a URL and returns status code and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestTraceEndpoint drives a traced sweep end to end: the finished job lists
// its traced cells, serves each one as a Chrome trace-event document (with a
// slash-bearing cell key addressed as one escaped path segment) and as the
// compact timeline, and stamps every sampled row on a nondecreasing cycle
// grid.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTracedServer(t, t.TempDir(), 256)

	st := submit(t, ts, quickSweep())
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	if len(final.Traces) != 2 {
		t.Fatalf("traces = %v, want both cells", final.Traces)
	}
	if final.Traces[0] != "ATOM/hash/cores=2/tx=2" || final.Traces[1] != "DHTM/hash/cores=2/tx=2" {
		t.Fatalf("traces not sorted: %v", final.Traces)
	}

	// Cell keys contain a slash; they travel as one escaped segment.
	base := ts.URL + "/api/v1/jobs/" + st.ID + "/cells/DHTM%2Fhash%2Fcores=2%2Ftx=2/trace"

	code, body := getBody(t, base)
	if code != http.StatusOK {
		t.Fatalf("chrome trace: status %d: %s", code, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   uint64         `json:"ts"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome trace shape: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	if ev := doc.TraceEvents[0]; ev.Ph != "M" || ev.Name != "process_name" {
		t.Fatalf("first event should name the process, got %+v", ev)
	}
	lastTS := map[string]uint64{}
	counters := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "C" {
			continue
		}
		counters++
		if prev, ok := lastTS[ev.Name]; ok && ev.TS < prev {
			t.Fatalf("counter %s went backwards: %d after %d", ev.Name, ev.TS, prev)
		}
		lastTS[ev.Name] = ev.TS
	}
	if counters == 0 {
		t.Fatal("chrome trace carries no counter samples")
	}

	code, body = getBody(t, base+"?format=timeline")
	if code != http.StatusOK {
		t.Fatalf("timeline: status %d: %s", code, body)
	}
	var tl struct {
		FormatVersion int      `json:"format_version"`
		Cell          string   `json:"cell"`
		Interval      uint64   `json:"interval"`
		Cycles        []uint64 `json:"cycles"`
		Signals       []struct {
			Name   string    `json:"name"`
			Values []float64 `json:"values"`
		} `json:"signals"`
	}
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if tl.FormatVersion != 1 || tl.Cell != "DHTM/hash/cores=2/tx=2" || tl.Interval != 256 {
		t.Fatalf("timeline header: %+v", tl)
	}
	for i := 1; i < len(tl.Cycles); i++ {
		if tl.Cycles[i] < tl.Cycles[i-1] {
			t.Fatalf("cycle stamps went backwards at %d: %v", i, tl.Cycles)
		}
	}
	want := map[string]bool{
		"wal/occupancy_max": false, "mem/persist_queue_depth": false,
		"htm/abort_rate": false, "mem/log_bytes": false,
	}
	for _, sig := range tl.Signals {
		if len(sig.Values) != len(tl.Cycles) {
			t.Fatalf("signal %s has %d values for %d stamps", sig.Name, len(sig.Values), len(tl.Cycles))
		}
		if _, ok := want[sig.Name]; ok {
			want[sig.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("timeline missing signal %s (have %d signals)", name, len(tl.Signals))
		}
	}
}

// TestTraceCacheHitAndDisabled pins the graceful degradation: a job whose
// cells were all answered from the result store records no trace, as does a
// server running with tracing off — both answer 404 with a message saying
// why, and neither lists traced cells in its status.
func TestTraceCacheHitAndDisabled(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTracedServer(t, dir, 256)

	first := await(t, ts, submit(t, ts, quickSweep()).ID)
	if len(first.Traces) != 2 {
		t.Fatalf("warm-up job traces = %v", first.Traces)
	}

	// Same campaign again: every cell is a store hit, so no simulation ran
	// and no trace exists.
	second := await(t, ts, submit(t, ts, quickSweep()).ID)
	if second.Cells.Cached != 2 {
		t.Fatalf("resubmit should be a full cache hit, got %+v", second.Cells)
	}
	if len(second.Traces) != 0 {
		t.Fatalf("cache-hit job should record no traces, got %v", second.Traces)
	}
	code, body := getBody(t, ts.URL+"/api/v1/jobs/"+second.ID+"/cells/DHTM%2Fhash%2Fcores=2%2Ftx=2/trace")
	if code != http.StatusNotFound || !strings.Contains(body, "no trace recorded") {
		t.Fatalf("cache-hit trace fetch: status %d body %q", code, body)
	}

	// Tracing off entirely: same 404.
	_, off := newTestServer(t, t.TempDir(), 1)
	done := await(t, off, submit(t, off, quickSweep()).ID)
	if len(done.Traces) != 0 {
		t.Fatalf("untraced server recorded traces: %v", done.Traces)
	}
	code, body = getBody(t, off.URL+"/api/v1/jobs/"+done.ID+"/cells/DHTM%2Fhash%2Fcores=2%2Ftx=2/trace")
	if code != http.StatusNotFound || !strings.Contains(body, "no trace recorded") {
		t.Fatalf("untraced trace fetch: status %d body %q", code, body)
	}
}
