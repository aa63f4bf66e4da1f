package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dhtm/internal/obs"
	"dhtm/internal/runner"
	"dhtm/internal/scenario"
)

// newObsTestServer is newTestServer with a private metrics registry, so the
// telemetry assertions below see exactly this server's dhtm_serve_*
// counters. The cell memo's counters stay in obs.Default.
func newObsTestServer(t *testing.T, workers int) (*obs.Registry, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := New(Config{Workers: workers, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return reg, ts
}

// TestStoreEndpointShape is the back-compat test for GET /api/v1/store: the
// JSON shape predates the obs registry and clients (the CI smoke, jq users)
// depend on these exact keys.
func TestStoreEndpointShape(t *testing.T) {
	_, ts := newObsTestServer(t, 1)
	before := runner.DefaultMemo.Metrics().Computes
	st := submit(t, ts, quickSweep())
	await(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/api/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics struct {
			MemHits  *uint64 `json:"mem_hits"`
			Misses   *uint64 `json:"misses"`
			Computes *uint64 `json:"computes"`
			Shared   *uint64 `json:"shared"`
		} `json:"metrics"`
		Snapshots struct {
			Hits    *uint64 `json:"hits"`
			Misses  *uint64 `json:"misses"`
			Clones  *uint64 `json:"clones"`
			Entries *int    `json:"entries"`
		} `json:"snapshots"`
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("store document no longer parses: %v\n%s", err, raw)
	}
	for name, p := range map[string]*uint64{
		"metrics.mem_hits": doc.Metrics.MemHits, "metrics.misses": doc.Metrics.Misses,
		"metrics.computes": doc.Metrics.Computes, "metrics.shared": doc.Metrics.Shared,
		"snapshots.hits": doc.Snapshots.Hits, "snapshots.misses": doc.Snapshots.Misses,
		"snapshots.clones": doc.Snapshots.Clones,
	} {
		if p == nil {
			t.Errorf("store document lost key %s:\n%s", name, raw)
		}
	}
	if doc.Snapshots.Entries == nil {
		t.Errorf("store document lost key snapshots.entries:\n%s", raw)
	}
	if got := *doc.Metrics.Computes - before; got != 2 {
		t.Errorf("computes rose by %d, want 2", got)
	}
}

// TestMetricsEndpoint runs a sweep twice (cold, then warm from the memo)
// and checks that GET /metrics exposes the serve families, and obs.Default
// — what dhtm-serve's /metrics serves — the memo's dhtm_resultstore_*
// families, with the expected values: the same assertions the CI smoke
// greps for.
func TestMetricsEndpoint(t *testing.T) {
	reg, ts := newObsTestServer(t, 1)
	before := runner.DefaultMemo.Metrics()
	doc := quickSweep()
	await(t, ts, submit(t, ts, doc).ID)
	await(t, ts, submit(t, ts, doc).ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE dhtm_serve_jobs_total counter",
		`dhtm_serve_jobs_total{state="queued"} 2`,
		`dhtm_serve_jobs_total{state="done"} 2`,
		`dhtm_serve_jobs{state="done"} 2`,
		"dhtm_serve_queue_depth 0",
		`dhtm_serve_requests_total{handler="POST /api/v1/jobs"} 2`,
		"# TYPE dhtm_serve_job_seconds histogram",
		"# TYPE dhtm_serve_request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := reg.Counter("dhtm_serve_jobs_total", "", obs.L("state", "done")).Value(); got != 2 {
		t.Errorf("done jobs counter = %d, want 2", got)
	}
	if reg.Histogram("dhtm_serve_job_seconds", "", obs.DurationBuckets).Count() != 2 {
		t.Errorf("job latency histogram did not observe both jobs")
	}

	after := runner.DefaultMemo.Metrics()
	if hits, computes := after.MemHits-before.MemHits, after.Computes-before.Computes; hits != 2 || computes != 2 {
		t.Errorf("memo: %d hits and %d computes, want 2 and 2", hits, computes)
	}
	var def strings.Builder
	if err := obs.Default.WriteText(&def); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`dhtm_resultstore_hits_total{tier="mem"} `, "dhtm_resultstore_computes_total "} {
		if !strings.Contains(def.String(), want) {
			t.Errorf("obs.Default exposition missing %q", want)
		}
	}
}

// TestStatusTimestampsAndPhases checks the new Status lifecycle fields: a
// finished job carries queued_at <= started_at <= finished_at and a phase
// breakdown covering the simulated (non-cached) cells.
func TestStatusTimestampsAndPhases(t *testing.T) {
	_, ts := newObsTestServer(t, 1)
	doc := quickSweep()
	final := await(t, ts, submit(t, ts, doc).ID)
	if final.QueuedAt.IsZero() || final.StartedAt.IsZero() || final.FinishedAt.IsZero() {
		t.Fatalf("missing lifecycle timestamps: %+v", final)
	}
	if final.StartedAt.Before(final.QueuedAt) || final.FinishedAt.Before(final.StartedAt) {
		t.Fatalf("timestamps out of order: queued=%v started=%v finished=%v",
			final.QueuedAt, final.StartedAt, final.FinishedAt)
	}
	if final.PhaseNS["run"] <= 0 {
		t.Fatalf("phase breakdown missing the run phase: %v", final.PhaseNS)
	}

	// A warm resubmit answers every cell from the memo: no new simulation,
	// so no phase breakdown.
	warm := await(t, ts, submit(t, ts, doc).ID)
	if warm.Cells.Cached != 2 {
		t.Fatalf("warm resubmit cached %d of 2 cells", warm.Cells.Cached)
	}
	if len(warm.PhaseNS) != 0 {
		t.Fatalf("cached job carries a phase breakdown: %v", warm.PhaseNS)
	}
}

// TestTablesMetaFooter checks that /tables stays byte-stable by default and
// gains the lifecycle footer under ?meta=1.
func TestTablesMetaFooter(t *testing.T) {
	_, ts := newObsTestServer(t, 1)
	st := await(t, ts, submit(t, ts, quickSweep()).ID)

	get := func(q string) string {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/tables" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	plain, meta := get(""), get("?meta=1")
	if strings.Contains(plain, "# job") {
		t.Fatalf("plain tables output grew a meta footer:\n%s", plain)
	}
	if !strings.HasPrefix(meta, plain) {
		t.Fatalf("?meta=1 output does not extend the plain output")
	}
	footer := strings.TrimPrefix(meta, plain)
	for _, want := range []string{"# job " + st.ID, "# queued_at", "# started_at", "# finished_at", "# phase run"} {
		if !strings.Contains(footer, want) {
			t.Errorf("meta footer missing %q:\n%s", want, footer)
		}
	}
}

// TestDashboardAndRequestID checks the dashboard route and the request-ID
// header the instrumentation middleware stamps on every response.
func TestDashboardAndRequestID(t *testing.T) {
	_, ts := newObsTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("dashboard content type %q", ct)
	}
	if rid := resp.Header.Get("X-Request-Id"); !strings.HasPrefix(rid, "req-") {
		t.Fatalf("missing request ID header, got %q", rid)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"dhtm-serve", "/api/v1/jobs", "EventSource"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dashboard HTML missing %q", want)
		}
	}

	// Pprof stays off unless opted in.
	pp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without opt-in: status %d", pp.StatusCode)
	}
}

// TestStatusGolden pins the Status JSON shape (the satellite's golden):
// field names and time encoding are client-visible API surface.
func TestStatusGolden(t *testing.T) {
	q := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	j := &Job{
		ID:        "job-000042",
		Kind:      scenario.ModeSweep,
		state:     StateDone,
		submitted: q,
		started:   q.Add(1 * time.Second),
		finished:  q.Add(5 * time.Second),
		cells:     CellProgress{Total: 2, Done: 2, Cached: 1},
		nextSeq:   7,
	}
	j.phases.Add(obs.PhaseRun, 1500*time.Millisecond)
	j.phases.Add(obs.PhaseSetup, 250*time.Millisecond)
	got, err := json.MarshalIndent(j.summary(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "id": "job-000042",
  "kind": "sweep",
  "state": "done",
  "queued_at": "2026-08-08T10:00:00Z",
  "started_at": "2026-08-08T10:00:01Z",
  "finished_at": "2026-08-08T10:00:05Z",
  "cells": {
    "total": 2,
    "done": 2,
    "cached": 1,
    "failed": 0
  },
  "phase_ns": {
    "run": 1500000000,
    "setup": 250000000
  },
  "events": 7
}`
	if string(got) != want {
		t.Fatalf("Status JSON drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// A queued job omits the unreached timestamps entirely.
	fresh := &Job{ID: "job-000001", Kind: scenario.ModeSweep, state: StateQueued, submitted: q}
	got, err = json.Marshal(fresh.summary())
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"started_at", "finished_at", "phase_ns"} {
		if strings.Contains(string(got), absent) {
			t.Errorf("queued Status should omit %s: %s", absent, got)
		}
	}
}
