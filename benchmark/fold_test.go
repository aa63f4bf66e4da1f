package main

import (
	"strings"
	"testing"
	"time"
)

// tracesText is canned `go tool pprof -traces` output.
const tracesText = `File: dhtm-benchmark
Type: cpu
Time: 2026-10-16 02:25:09 UTC
Duration: 402.70ms, Total samples = 200ms (49.66%)
-----------+-------------------------------------------------------
      20ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             dhtm/internal/cache.(*Cache).ForEach
             dhtm/internal/core.(*DHTM).abortCleanup
             dhtm/internal/workloads.RunPrepared.func1
-----------+-------------------------------------------------------
      10ms   dhtm/internal/stats.(*Stats).Core (inline)
             dhtm/internal/core.(*DHTM).Run
             dhtm/internal/engine.(*Engine).Run.func1
-----------+-------------------------------------------------------
      1.5s   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
     500us   dhtm/internal/memdev.(*Store).ForEachLine
             dhtm/internal/crashtest.(*Config).explorePoint
-----------+-------------------------------------------------------
      10ms   iter.Pull[go.shape.struct {}].func1
             dhtm/internal/harness.Execute (inline)
-----------+-------------------------------------------------------
`

// TestFoldTraces checks that each sample lands on its innermost mapped
// dhtm/internal frame, skipping runtime and unmapped packages (stats), and
// that samples with no such frame count to runtime.
func TestFoldTraces(t *testing.T) {
	got, err := foldTraces(strings.NewReader(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"cache":   20 * time.Millisecond,
		"designs": 10 * time.Millisecond,
		"runtime": 1500 * time.Millisecond,
		"memdev":  500 * time.Microsecond,
		"harness": 10 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s = %v, want %v", l, got[l], d)
		}
	}
}

// TestLayerMapCoversLayers keeps the package map and the layer list in step.
func TestLayerMapCoversLayers(t *testing.T) {
	mapped := map[string]bool{"runtime": true}
	for _, l := range layerOfPkg {
		mapped[l] = true
	}
	for _, l := range layers {
		if !mapped[l] {
			t.Errorf("layer %s has no package", l)
		}
		delete(mapped, l)
	}
	for l := range mapped {
		t.Errorf("packages map to %s, which is not in layers", l)
	}
}
