package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhtm/internal/runner"
	"dhtm/internal/scenario"
)

// newTestServer spins up a server over an httptest listener.
func newTestServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Workers: workers})
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

// submit posts a scenario document and decodes the accepted status.
func submit(t *testing.T, ts *httptest.Server, doc string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return st
}

// getStatus polls one job.
func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// await polls until the job is terminal.
func await(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return Status{}
}

// sweepSeeds numbers the quickSweep documents of the process.
var sweepSeeds atomic.Int64

// quickSweep is a fast two-cell sweep scenario used across the tests. Its
// cells are ATOM/hash/cores=2/tx=2 and DHTM/hash/cores=2/tx=2, in registry
// order. Every call returns a base seed no earlier call used: the cell memo
// is shared by every server of the process, so a test that needs its cells
// simulated must not find them left behind by another test. A test that
// resubmits a campaign keeps one document.
func quickSweep() string {
	return fmt.Sprintf(`{"format_version": 1, "name": "smoke", "mode": "sweep",
		"designs": ["DHTM", "ATOM"], "workloads": ["hash"], "seed": %d,
		"axes": {"cores": [2], "tx_per_core": [2]}}`, 1000+sweepSeeds.Add(1))
}

// TestSweepJobLifecycle drives a sweep campaign end to end over HTTP: submit,
// poll to done, check per-cell outcomes and the rendered table.
func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, 2)

	st := submit(t, ts, quickSweep())
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	if final.Cells.Total != 2 || final.Cells.Done != 2 || final.Cells.Failed != 0 {
		t.Fatalf("cell progress = %+v", final.Cells)
	}
	if len(final.Sweep) != 2 {
		t.Fatalf("sweep outcomes = %d, want 2", len(final.Sweep))
	}
	for _, o := range final.Sweep {
		if o.Committed == 0 || o.Cycles == 0 {
			t.Fatalf("cell %s reported empty result: %+v", o.Cell.ID, o)
		}
		if o.Cell.Seed == 0 {
			t.Fatalf("cell %s lost its derived seed", o.Cell.ID)
		}
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{"DHTM/hash/cores=2/tx=2", "ATOM/hash/cores=2/tx=2", "tx/Mcycle"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("tables output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWarmResubmitIsFullCacheHit is the acceptance criterion: the second
// submit of the same campaign answers every cell from the memo, simulating
// nothing, and produces identical results.
func TestWarmResubmitIsFullCacheHit(t *testing.T) {
	_, ts := newTestServer(t, 2)
	doc := quickSweep()

	cold := await(t, ts, submit(t, ts, doc).ID)
	if cold.State != StateDone || cold.Cells.Cached != 0 {
		t.Fatalf("cold run: %+v", cold.Cells)
	}
	computed := runner.DefaultMemo.Metrics().Computes

	warm := await(t, ts, submit(t, ts, doc).ID)
	if warm.State != StateDone {
		t.Fatalf("warm run finished %s (%s)", warm.State, warm.Error)
	}
	if warm.Cells.Cached != warm.Cells.Total {
		t.Fatalf("warm run cached %d of %d cells, want all", warm.Cells.Cached, warm.Cells.Total)
	}
	if got := runner.DefaultMemo.Metrics().Computes; got != computed {
		t.Fatalf("warm run simulated %d extra cells, want 0", got-computed)
	}
	for i := range cold.Sweep {
		c, w := cold.Sweep[i], warm.Sweep[i]
		if c.Committed != w.Committed || c.Cycles != w.Cycles || c.Cell.Seed != w.Cell.Seed {
			t.Fatalf("cell %s: warm result differs: cold %+v warm %+v", c.Cell.ID, c, w)
		}
	}
}

// TestConcurrentSubmitsSimulateEachCellOnce is the other acceptance
// criterion: two concurrent submits of the same campaign share the
// singleflight, so each cell simulates exactly once across both jobs.
func TestConcurrentSubmitsSimulateEachCellOnce(t *testing.T) {
	_, ts := newTestServer(t, 2)
	doc := quickSweep()
	before := runner.DefaultMemo.Metrics().Computes

	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, ts, doc).ID
		}(i)
	}
	wg.Wait()
	a, b := await(t, ts, ids[0]), await(t, ts, ids[1])
	if a.State != StateDone || b.State != StateDone {
		t.Fatalf("jobs finished %s/%s", a.State, b.State)
	}
	if got := runner.DefaultMemo.Metrics().Computes - before; got != 2 {
		t.Fatalf("two concurrent submits simulated %d cells, want exactly 2 (one per distinct cell)", got)
	}
	for i := range a.Sweep {
		if a.Sweep[i].Committed != b.Sweep[i].Committed {
			t.Fatalf("concurrent jobs disagree on cell %s", a.Sweep[i].Cell.ID)
		}
	}
}

// TestExperimentJob runs a real (quick, tiny) harness experiment through
// the service and fetches its rendered table.
func TestExperimentJob(t *testing.T) {
	_, ts := newTestServer(t, 1)
	st := submit(t, ts, `{"format_version": 1, "mode": "experiment",
		"experiments": ["table4"], "quick": true, "seed": 7,
		"axes": {"cores": [2], "tx_per_core": [1]}}`)
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("experiment job finished %s (%s)", final.State, final.Error)
	}
	if len(final.Experiments) != 1 || final.Experiments[0].Table == nil {
		t.Fatalf("experiment outcome missing table: %+v", final.Experiments)
	}
	if final.Cells.Total == 0 || final.Cells.Done != final.Cells.Total {
		t.Fatalf("cell progress = %+v", final.Cells)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "Table IV") {
		t.Fatalf("tables output missing the Table IV header:\n%s", buf.String())
	}
}

// TestSSEStreamsProgress subscribes to a job's event stream and checks the
// full event sequence arrives: states, one event per cell, and the final
// done frame.
func TestSSEStreamsProgress(t *testing.T) {
	_, ts := newTestServer(t, 1)
	st := submit(t, ts, quickSweep())

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var cellEvents, stateEvents int
	sawDone := false
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "event: cell":
			cellEvents++
		case line == "event: state":
			stateEvents++
		case line == "event: done":
			sawDone = true
		}
		if sawDone {
			break
		}
	}
	if cellEvents != 2 {
		t.Fatalf("saw %d cell events, want 2", cellEvents)
	}
	if stateEvents < 2 {
		t.Fatalf("saw %d state events, want at least running+terminal", stateEvents)
	}
	if !sawDone {
		t.Fatalf("stream ended without a done frame")
	}
}

// TestCancelJob cancels a running crashtest campaign and checks it lands in
// cancelled, not failed.
func TestCancelJob(t *testing.T) {
	_, ts := newTestServer(t, 1)
	// An exhaustive crashtest is comfortably slow enough to catch mid-run.
	st := submit(t, ts, `{"format_version": 1, "mode": "crashtest",
		"designs": ["DHTM"], "workloads": ["hash"],
		"axes": {"cores": [4], "tx_per_core": [4]}}`)
	// Wait until it actually runs, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).State == StateQueued && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	final := await(t, ts, st.ID)
	if final.State != StateCancelled && final.State != StateDone {
		t.Fatalf("cancelled job finished %s (%s)", final.State, final.Error)
	}
}

// TestScenarioSubmit posts a raw scenario document — the same bytes a CLI
// runs with -scenario — to the jobs endpoint and checks it compiles into a
// sweep job whose cells carry the scenario's grid IDs.
func TestScenarioSubmit(t *testing.T) {
	_, ts := newTestServer(t, 1)
	body := `{
		"format_version": 1,
		"name": "scenario-smoke",
		"mode": "sweep",
		"designs": ["DHTM"],
		"workloads": ["hash", "queue"],
		"axes": {"cores": [2], "tx_per_core": [2]}
	}`
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scenario submit: status %d (%s)", resp.StatusCode, st.Error)
	}
	if st.Kind != scenario.ModeSweep {
		t.Fatalf("scenario compiled to kind %q, want sweep", st.Kind)
	}
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("scenario job finished %s (%s)", final.State, final.Error)
	}
	// The workload set resolves into registry (Table IV) order: queue
	// precedes hash.
	wantIDs := []string{"DHTM/queue/cores=2/tx=2", "DHTM/hash/cores=2/tx=2"}
	if len(final.Sweep) != len(wantIDs) {
		t.Fatalf("sweep outcomes = %d, want %d", len(final.Sweep), len(wantIDs))
	}
	for i, want := range wantIDs {
		if final.Sweep[i].Cell.ID != want {
			t.Fatalf("cell %d = %q, want %q", i, final.Sweep[i].Cell.ID, want)
		}
		if final.Sweep[i].Committed == 0 {
			t.Fatalf("cell %q reported no commits", want)
		}
	}

	// Invalid scenario documents die at the door like invalid job specs.
	for name, tc := range map[string]struct{ body, want string }{
		"version skew":   {`{"format_version":99,"mode":"sweep"}`, "format_version 99"},
		"unknown design": {`{"format_version":1,"mode":"sweep","designs":["NOPE"],"workloads":["hash"]}`, "unknown design"},
		"empty grid":     {`{"format_version":1,"mode":"sweep"}`, "empty grid"},
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var apiErr apiError
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(apiErr.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", apiErr.Error, tc.want)
			}
		})
	}
}

// TestCrashtestGridJob submits a multi-design crashtest scenario and checks
// every exploration reports.
func TestCrashtestGridJob(t *testing.T) {
	_, ts := newTestServer(t, 1)
	st := submit(t, ts, `{"format_version": 1, "mode": "crashtest",
		"designs": ["DHTM", "ATOM"], "workloads": ["hash"],
		"axes": {"cores": [2], "tx_per_core": [1]},
		"points": {"mode": "point", "point": 0}}`)
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("crashtest grid finished %s (%s)", final.State, final.Error)
	}
	if len(final.Crashtests) != 2 {
		t.Fatalf("crashtest reports = %d, want 2", len(final.Crashtests))
	}
	for _, rep := range final.Crashtests {
		if rep.Explored != 1 || rep.Failed != 0 {
			t.Fatalf("%s/%s explored %d failed %d, want 1 explored 0 failed",
				rep.Design, rep.Workload, rep.Explored, rep.Failed)
		}
	}
}

// TestCrashtestDifferentialJob runs a reordering-adversary grid with the
// differential oracle over two designs and checks the job passes the
// cross-design half of the oracle (recovered heaps agree across designs).
func TestCrashtestDifferentialJob(t *testing.T) {
	_, ts := newTestServer(t, 1)
	st := submit(t, ts, `{"format_version": 1, "mode": "crashtest",
		"designs": ["DHTM", "LogTM-ATOM"], "workloads": ["queue"],
		"axes": {"cores": [2], "tx_per_core": [1], "ops_per_tx": [4], "reorder_window": [1]},
		"points": {"mode": "stride", "samples": 4},
		"mask_mode": "exhaustive", "differential": true}`)
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("differential grid finished %s (%s)", final.State, final.Error)
	}
	if len(final.Crashtests) != 2 {
		t.Fatalf("crashtest reports = %d, want 2", len(final.Crashtests))
	}
	for _, rep := range final.Crashtests {
		if !rep.Differential || rep.Failed != 0 {
			t.Fatalf("%s/%s differential=%v failed=%d", rep.Design, rep.Workload, rep.Differential, rep.Failed)
		}
		if len(rep.CommitDigests) == 0 {
			t.Fatalf("%s/%s recorded no commit digests", rep.Design, rep.Workload)
		}
	}
	if final.Crashtests[0].RunSeed != final.Crashtests[1].RunSeed {
		t.Fatalf("differential run seeds diverged: %d vs %d",
			final.Crashtests[0].RunSeed, final.Crashtests[1].RunSeed)
	}
}

// TestSubmitValidation checks malformed documents die at the door with
// 400s that name the field at fault and the valid values. The endpoint takes
// scenario documents only: a legacy {"kind": ...} job body is rejected
// naming format_version.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, 1)
	const ct = `"format_version":1,"mode":"crashtest","designs":["DHTM"],"workloads":["hash"]`
	cases := []struct {
		name string
		body string
		want string
	}{
		{"unknown kind", `{"format_version":1,"mode":"nope"}`, "unknown mode"},
		{"unknown experiment", `{"format_version":1,"mode":"experiment","experiments":["fig99"]}`, "unknown experiment"},
		{"empty sweep", `{"format_version":1,"mode":"sweep"}`, "empty grid"},
		{"bad design", `{"format_version":1,"mode":"sweep","designs":["NOPE"],"workloads":["hash"]}`, "unknown design"},
		{"bad workload", `{"format_version":1,"mode":"sweep","designs":["DHTM"],"workloads":["nope"]}`, "unknown workload"},
		{"crashtest without config", `{"format_version":1,"mode":"crashtest"}`, "empty grid"},
		{"unsupported crashtest design", `{"format_version":1,"mode":"crashtest","designs":["NP"],"workloads":["hash"]}`, "not supported"},
		{"bad crashtest point selection", `{` + ct + `,"points":{"mode":"bogus"}}`, "unknown selection mode"},
		{"both crashtest fields", `{"kind":"crashtest","crashtest":{"design":"DHTM","workload":"hash"},"crashtests":[{"design":"DHTM","workload":"hash"}]}`, "format_version"},
		{"legacy experiment body", `{"kind":"experiment","experiments":["table4"],"quick":true}`, "format_version"},
		{"oversized reorder window", `{` + ct + `,"axes":{"reorder_window":[17]}}`, "reorder window"},
		{"bad adversary mode", `{` + ct + `,"axes":{"reorder_window":[2]},"mask_mode":"chaos"}`, "adversary mode"},
		{"bad replay mask", `{` + ct + `,"points":{"mode":"point","point":3,"mask":"xyz"}}`, "mask"},
		{"mask without window", `{` + ct + `,"points":{"mode":"point","point":3,"mask":"0x1"}}`, "reorder_window"},
		{"unknown field", `{"format_version":1,"mode":"sweep","plam":{}}`, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var apiErr apiError
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(apiErr.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", apiErr.Error, tc.want)
			}
		})
	}

	// Unknown job id paths 404.
	for _, path := range []string{"/api/v1/jobs/job-999999", "/api/v1/jobs/job-999999/events", "/api/v1/jobs/job-999999/tables"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHealthAndStoreEndpoints sanity-checks the operational endpoints.
func TestHealthAndStoreEndpoints(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, path := range []string{"/healthz", "/api/v1/store", "/api/v1/catalog", "/api/v1/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestDrainRejectsNewJobs: a draining server refuses submissions with 503
// while finishing what it already accepted.
func TestDrainRejectsNewJobs(t *testing.T) {
	srv, ts := newTestServer(t, 1)

	st := submit(t, ts, quickSweep())
	srv.Drain() // blocks until the accepted job ran to completion

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(quickSweep()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "draining") {
		t.Fatalf("drain rejection body: %s", b)
	}

	// The job accepted before the drain still finished.
	if got := getStatus(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("pre-drain job state = %s (%s)", got.State, got.Error)
	}
}
