// Command dhtm-serve runs the campaign service: an HTTP API that accepts
// experiment, sweep and crash-test campaigns as scenario documents (the
// files dhtm-bench -scenario runs), executes them on a bounded worker pool,
// streams per-cell progress, and answers every cell the process already
// simulated from its in-memory cell memo. Results do not survive a restart.
//
// Usage:
//
//	dhtm-serve -addr :8080
//
// Submit a campaign, watch it, fetch its tables:
//
//	curl -s localhost:8080/api/v1/jobs -d '{"format_version":1,"mode":"experiment","experiments":["table4"],"quick":true}'
//	curl -s localhost:8080/api/v1/jobs -d @examples/scenarios/table4-quick.json
//	curl -s localhost:8080/api/v1/jobs/job-000001            # poll
//	curl -N localhost:8080/api/v1/jobs/job-000001/events     # SSE stream
//	curl -s localhost:8080/api/v1/jobs/job-000001/tables     # rendered tables
//	curl -s localhost:8080/api/v1/store                      # memo hit counters
//	curl -s localhost:8080/metrics                           # Prometheus exposition
//
// GET / serves a live HTML dashboard (jobs, progress bars, phase breakdowns,
// memo hit ratios) over the same API. -pprof mounts net/http/pprof under
// /debug/pprof/ for profiling a running service.
//
// Re-submitting the same campaign answers every cell from the memo — zero
// cells simulated (watch "cached" climb in /api/v1/jobs/{id} and the memo
// hit counters in /api/v1/store). With -trace-interval every cell is
// simulated so that each one carries its trace.
//
// SIGTERM drains gracefully: the server stops accepting jobs and lets the
// running ones finish (a second signal forces immediate shutdown).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dhtm/internal/obs"
	"dhtm/internal/runner"
	"dhtm/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "jobs executing concurrently; queued jobs wait in submission order")
	parallel := flag.Int("parallel", 0, "per-job cell worker-pool size (0 = GOMAXPROCS)")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON lines instead of logfmt-style text")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes heap contents; trusted listeners only)")
	traceInterval := flag.Uint64("trace-interval", 0, "record cycle-domain probes for every simulated cell, sampling every N simulated cycles (0 = tracing off); traces are served from /api/v1/jobs/{id}/cells/{key}/trace")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	// Everything reports into the process-wide obs.Default plane — the
	// runner/memo/snapshot/crashtest layers at package init and the server's
	// own families — so GET /metrics is one coherent view.
	srv, err := serve.New(serve.Config{
		Workers: *workers, CellParallel: *parallel,
		Registry: obs.Default, Logger: logger, Pprof: *withPprof,
		TraceInterval: *traceInterval,
	})
	if err != nil {
		fail("%v", err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	fmt.Fprintf(os.Stderr, "dhtm-serve: listening on %s, %d job workers; dashboard at /, metrics at /metrics\n",
		*addr, *workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
	case <-ctx.Done():
		stop() // restore default handling so a third signal kills outright
		fmt.Fprintln(os.Stderr, "dhtm-serve: draining (finishing running jobs; signal again to force)")
		// Graceful half: reject new jobs, let the running ones finish. A
		// second signal falls through to the forced path, which cancels
		// them. Either way the jobs terminate, which closes their SSE
		// streams (with a done frame), which lets Shutdown actually drain
		// the handlers instead of stalling its full timeout on them.
		drained := make(chan struct{})
		go func() { srv.Drain(); close(drained) }()
		force, forceStop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		select {
		case <-drained:
		case <-force.Done():
			fmt.Fprintln(os.Stderr, "dhtm-serve: forcing shutdown")
			srv.Close()
			<-drained
		}
		forceStop()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
		m := runner.DefaultMemo.Metrics()
		fmt.Fprintf(os.Stderr, "dhtm-serve: memo served %d hits, simulated %d cells, shared %d in-flight\n",
			m.MemHits, m.Computes, m.Shared)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dhtm-serve: "+format+"\n", args...)
	os.Exit(1)
}
