package resultstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dhtm/internal/obs"
	"dhtm/internal/stats"
	"dhtm/internal/workloads"
)

// result builds a distinctive RunResult for key identification in tests.
func result(commits uint64) workloads.RunResult {
	st := stats.New(1)
	st.Core(0).Commits = commits
	st.Core(0).FinalCycle = commits * 10
	st.LogBytes = commits * 64
	return workloads.RunResult{
		Design: "DHTM", Workload: "hash", Stats: st,
		Committed: commits, Cycles: commits * 10,
	}
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPutGetRoundTrip checks disk persistence across store instances — the
// "resumable campaign" property — and that Get is a deep, detached copy.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k := Key{Cell: "DHTM|hash|cores=8|tx=16", Seed: 42}

	s1 := open(t, dir, Options{})
	want := result(100)
	if err := s1.Put(k, want); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory (cold LRU) must serve the record.
	s2 := open(t, dir, Options{})
	got, ok := s2.Get(k)
	if !ok {
		t.Fatalf("fresh store missed a persisted key")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", got, want)
	}
	if s2.Metrics().DiskHits != 1 {
		t.Fatalf("metrics = %+v, want one disk hit", s2.Metrics())
	}

	// Mutating the returned result must not poison the cache.
	got.Stats.Core(0).Commits = 999
	again, _ := s2.Get(k)
	if again.Stats.Core(0).Commits != 100 {
		t.Fatalf("caller mutation leaked into the cached result")
	}
	if m := s2.Metrics(); m.MemHits != 1 {
		t.Fatalf("second lookup should hit the LRU: %+v", m)
	}
}

// TestMissOnUnknownKey checks the trivial miss path and its accounting.
func TestMissOnUnknownKey(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if _, ok := s.Get(Key{Cell: "nope", Seed: 1}); ok {
		t.Fatalf("hit on an empty store")
	}
	if m := s.Metrics(); m.Misses != 1 || m.Corrupt != 0 {
		t.Fatalf("metrics = %+v, want one clean miss", m)
	}
}

// TestCorruptRecordIsAMiss proves every corruption mode is treated as a
// miss — never an error, never a crash — and recomputed over.
func TestCorruptRecordIsAMiss(t *testing.T) {
	k := Key{Cell: "DHTM|hash|cores=8|tx=16", Seed: 42}
	h := k.hash()

	corruptions := map[string]func(t *testing.T, path string){
		"truncated": func(t *testing.T, path string) {
			raw, _ := os.ReadFile(path)
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("\x00\xffnot json"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty": func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"version-skew": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(fmt.Sprintf(
				`{"version":%d,"key":{"cell":%q,"seed":42},"result":{"design":"DHTM"}}`,
				FormatVersion+1, k.Cell)), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"key-mismatch": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(fmt.Sprintf(
				`{"version":%d,"key":{"cell":"other","seed":7},"result":{"design":"DHTM"}}`,
				FormatVersion)), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{MemEntries: -1}) // no LRU: force disk reads
			if err := s.Put(k, result(5)); err != nil {
				t.Fatal(err)
			}
			corrupt(t, filepath.Join(dir, versionDir(), h[:2], h+".json"))

			if _, ok := s.Get(k); ok {
				t.Fatalf("corrupt record served as a hit")
			}
			if m := s.Metrics(); m.Corrupt != 1 || m.Misses != 1 {
				t.Fatalf("metrics = %+v, want corrupt=1 misses=1", m)
			}

			// GetOrCompute must recompute and heal the record in place.
			var calls atomic.Int64
			res, hit, err := s.GetOrCompute(k, func() (workloads.RunResult, error) {
				calls.Add(1)
				return result(7), nil
			})
			if err != nil || hit || calls.Load() != 1 {
				t.Fatalf("recompute: hit=%v err=%v calls=%d", hit, err, calls.Load())
			}
			if res.Committed != 7 {
				t.Fatalf("recompute returned %d commits, want 7", res.Committed)
			}
			if got, ok := s.Get(k); !ok || got.Committed != 7 {
				t.Fatalf("healed record not served: ok=%v %+v", ok, got)
			}
		})
	}
}

// TestGetOrComputeSingleflight proves n concurrent requests for one key run
// the compute exactly once and all observe its result.
func TestGetOrComputeSingleflight(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	k := Key{Cell: "DHTM|queue|cores=4|tx=8", Seed: 7}

	const n = 32
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]workloads.RunResult, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = s.GetOrCompute(k, func() (workloads.RunResult, error) {
				close(started) // only one compute may run: a second close panics
				calls.Add(1)
				<-release // hold the flight open until every goroutine has piled in
				return result(11), nil
			})
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want exactly once", calls.Load())
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].Committed != 11 {
			t.Fatalf("caller %d got %d commits, want 11", i, results[i].Committed)
		}
	}
	if m := s.Metrics(); m.Computes != 1 || m.Writes != 1 {
		t.Fatalf("metrics = %+v, want computes=1 writes=1", m)
	}
}

// TestComputeErrorsAreNotCached checks that a failed compute propagates to
// all waiters but leaves nothing behind, so a retry runs again.
func TestComputeErrorsAreNotCached(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	k := Key{Cell: "DHTM|hash|cores=2|tx=4", Seed: 3}
	boom := errors.New("boom")

	if _, _, err := s.GetOrCompute(k, func() (workloads.RunResult, error) {
		return workloads.RunResult{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatalf("failed compute left a cached result")
	}
	res, hit, err := s.GetOrCompute(k, func() (workloads.RunResult, error) {
		return result(4), nil
	})
	if err != nil || hit || res.Committed != 4 {
		t.Fatalf("retry after error: hit=%v err=%v res=%+v", hit, err, res)
	}
}

// TestMemoryOnlyStore checks that an empty dir disables persistence but
// keeps the LRU and singleflight behaviour.
func TestMemoryOnlyStore(t *testing.T) {
	s := open(t, "", Options{})
	k := Key{Cell: "c", Seed: 1}
	if err := s.Put(k, result(9)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || got.Committed != 9 {
		t.Fatalf("memory-only store missed its own Put")
	}
	if m := s.Metrics(); m.Writes != 0 {
		t.Fatalf("memory-only store claims disk writes: %+v", m)
	}
}

// TestLRUEviction checks the LRU front is capacity-bounded and recency-
// ordered; on a disk-backed store evicted entries still hit via disk.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MemEntries: 2})
	keys := []Key{{Cell: "a", Seed: 1}, {Cell: "b", Seed: 1}, {Cell: "c", Seed: 1}}
	for i, k := range keys {
		if err := s.Put(k, result(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// "a" was evicted by "c"; it must come back via disk, not memory.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatalf("evicted key lost entirely")
	}
	m := s.Metrics()
	if m.DiskHits != 1 || m.MemHits != 0 {
		t.Fatalf("metrics = %+v, want the evicted key answered from disk", m)
	}

	// Memory-only with the same capacity: eviction is a hard miss.
	mem := open(t, "", Options{MemEntries: 2})
	for i, k := range keys {
		if err := mem.Put(k, result(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := mem.Get(keys[0]); ok {
		t.Fatalf("memory-only store resurrected an evicted key")
	}
	if _, ok := mem.Get(keys[1]); !ok {
		t.Fatalf("recent key evicted out of order")
	}
}

// TestDistinctKeysDoNotCollide checks seeds and cell keys both separate
// addresses.
func TestDistinctKeysDoNotCollide(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	a := Key{Cell: "DHTM|hash|cores=8|tx=16", Seed: 1}
	b := Key{Cell: "DHTM|hash|cores=8|tx=16", Seed: 2}
	c := Key{Cell: "ATOM|hash|cores=8|tx=16", Seed: 1}
	for i, k := range []Key{a, b, c} {
		if err := s.Put(k, result(uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range []Key{a, b, c} {
		got, ok := s.Get(k)
		if !ok || got.Committed != uint64(100+i) {
			t.Fatalf("key %d: ok=%v commits=%d, want %d", i, ok, got.Committed, 100+i)
		}
	}
}

// TestPersistFailureStillServesResult checks that a compute whose record
// cannot reach disk is not discarded: the caller gets the result, the LRU
// serves it afterwards, and WriteErrors records the sick disk.
func TestPersistFailureStillServesResult(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	k := Key{Cell: "DHTM|hash|cores=8|tx=16", Seed: 42}
	// Occupy the shard directory's name with a file so MkdirAll fails.
	shard := filepath.Join(dir, versionDir(), k.hash()[:2])
	if err := os.WriteFile(shard, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, hit, err := s.GetOrCompute(k, func() (workloads.RunResult, error) {
		return result(13), nil
	})
	if err != nil || hit || res.Committed != 13 {
		t.Fatalf("persist failure discarded the computed result: hit=%v err=%v res=%+v", hit, err, res)
	}
	if m := s.Metrics(); m.WriteErrors != 1 || m.Writes != 0 {
		t.Fatalf("metrics = %+v, want write_errors=1 writes=0", m)
	}
	// The in-memory copy still answers.
	if got, ok := s.Get(k); !ok || got.Committed != 13 {
		t.Fatalf("unpersisted result lost from memory: ok=%v %+v", ok, got)
	}
}

// TestTierMetricLabels pins the dhtm_resultstore_* series each kind of store
// exposes: a directory store reports its hits, misses and record latencies
// under tier="disk"; a memory-only store reports its misses under
// tier="mem", keeps a zero disk-hit series, and has no latency histograms.
func TestTierMetricLabels(t *testing.T) {
	k := Key{Cell: "cell", Seed: 1}
	exposition := func(t *testing.T, reg *obs.Registry) string {
		t.Helper()
		var buf strings.Builder
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	t.Run("disk", func(t *testing.T) {
		reg := obs.NewRegistry()
		dir := t.TempDir()
		s := open(t, dir, Options{Registry: reg})
		if _, ok := s.Get(k); ok { // miss
			t.Fatal("unexpected hit on empty store")
		}
		if err := s.Put(k, result(7)); err != nil {
			t.Fatal(err)
		}
		if _, ok := open(t, dir, Options{Registry: reg}).Get(k); !ok { // disk hit
			t.Fatal("expected disk hit")
		}
		text := exposition(t, reg)
		for _, want := range []string{
			`dhtm_resultstore_hits_total{tier="disk"} 1`,
			`dhtm_resultstore_misses_total{tier="disk"} 1`,
			`dhtm_resultstore_read_seconds_count{tier="disk"} 1`,
			`dhtm_resultstore_write_seconds_count{tier="disk"} 1`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("exposition missing %q\n%s", want, text)
			}
		}
	})

	t.Run("mem", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := open(t, "", Options{Registry: reg})
		if _, ok := s.Get(k); ok {
			t.Fatal("unexpected hit on empty store")
		}
		text := exposition(t, reg)
		for _, want := range []string{
			`dhtm_resultstore_misses_total{tier="mem"} 1`,
			`dhtm_resultstore_hits_total{tier="disk"} 0`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("exposition missing %q\n%s", want, text)
			}
		}
		for _, absent := range []string{"dhtm_resultstore_read_seconds", "dhtm_resultstore_write_seconds"} {
			if strings.Contains(text, absent) {
				t.Errorf("memory-only store exposes %s\n%s", absent, text)
			}
		}
	})
}
