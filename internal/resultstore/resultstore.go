// Package resultstore is a content-addressed, on-disk store of simulation
// results. A cell's outcome is a pure function of its semantic identity
// (runner.Cell.Key()) and its workload seed, so the pair addresses the result
// forever: computed once, a result can be served to any number of later
// sweeps, processes, or HTTP clients without re-simulating.
//
// The store has three layers:
//
//   - an in-memory LRU front that answers repeated lookups within a process
//     without touching disk;
//   - a sharded directory tree of versioned JSON records, written via
//     temp-file + atomic rename so a crashed writer can never leave a
//     half-record under a live name, and read corruption-tolerantly — an
//     unparsable, version-skewed or key-mismatched record is a miss, never an
//     error;
//   - an in-flight table (singleflight) so concurrent requests for the same
//     key compute it exactly once and share the result.
//
// A Store with an empty directory is memory-only: the LRU and singleflight
// still work, nothing persists.
package resultstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dhtm/internal/engine"
	"dhtm/internal/obs"
	"dhtm/internal/workloads"
)

// FormatVersion identifies the on-disk record format. It participates in the
// content address (a version bump orphans old records rather than
// misreading them) and is checked again inside each record. Bump it whenever
// the JSON encoding of workloads.RunResult or stats.Stats changes shape —
// the golden test in internal/workloads pins the current encoding — or
// whenever the values it carries change meaning (v2: an HTM fallback commit
// counts its own read set, dirty set and cycles).
const FormatVersion = 2

// Key addresses one simulation result.
type Key struct {
	// Cell is the cell's semantic identity string (runner.Cell.Key()).
	Cell string `json:"cell"`
	// Seed is the workload generation seed the cell ran with.
	Seed int64 `json:"seed"`
}

// hash returns the content address: a hex SHA-256 over the format version
// and both key components, unambiguously delimited.
func (k Key) hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|seed=%d|%s", FormatVersion, k.Seed, k.Cell)
	return hex.EncodeToString(h.Sum(nil))
}

// record is the on-disk document. The embedded key lets reads verify that
// the record under a hash actually answers the requested key (guarding
// against tampered or misplaced files), and keeps records self-describing
// for humans poking at the tree.
type record struct {
	Version int                 `json:"version"`
	Key     Key                 `json:"key"`
	Result  workloads.RunResult `json:"result"`
}

// Metrics are the store's monotone counters. All counters are totals since
// Open; Lookups = MemHits + DiskHits + Misses.
type Metrics struct {
	// MemHits answered from the LRU; DiskHits from a valid on-disk record.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// Misses found nothing usable (first-time keys and corrupt records).
	Misses uint64 `json:"misses"`
	// Corrupt counts records that existed but were rejected (unreadable,
	// unparsable, version-skewed, or addressed by a different key). Each is
	// also a miss.
	Corrupt uint64 `json:"corrupt"`
	// Computes counts executions of a GetOrCompute compute function — the
	// simulations that actually ran. Shared counts callers that waited on
	// another goroutine's in-flight compute instead of starting their own.
	Computes uint64 `json:"computes"`
	Shared   uint64 `json:"shared"`
	// Writes counts records durably persisted (atomic renames); WriteErrors
	// counts records that computed fine but failed to persist (disk full,
	// permissions) — the result is still served and cached in memory, so a
	// campaign survives a sick disk, but Writes < Computes flags that the
	// store is not actually accumulating.
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
}

// Hits returns all lookups answered without computing.
func (m Metrics) Hits() uint64 { return m.MemHits + m.DiskHits }

// Options tunes a store.
type Options struct {
	// MemEntries caps the in-memory LRU front (0 = DefaultMemEntries,
	// negative = disable the LRU entirely).
	MemEntries int
	// Registry receives the store's dhtm_resultstore_* metric families. Nil
	// gives the store a private registry, so independent stores (and tests
	// asserting exact counts) never share counters; processes that expose one
	// telemetry plane pass obs.Default.
	Registry *obs.Registry
}

// DefaultMemEntries is the LRU capacity when Options.MemEntries is zero.
// A full eight-experiment campaign is a few hundred cells; 4096 keeps many
// campaigns resident while bounding memory to a few MB of snapshots.
const DefaultMemEntries = 4096

// Store is safe for concurrent use by any number of goroutines.
type Store struct {
	dir string // "" for memory-only stores

	mu     sync.Mutex
	lru    *lruCache
	flight map[string]*call

	// Counters live in an obs registry (private unless Options.Registry was
	// set); Metrics() and the JSON store endpoint read the same handles the
	// hot path increments, so there is exactly one set of numbers. The
	// tier-facing series (hits, misses, read/write latency) carry a tier
	// label: "disk", or "mem" for the misses of a memory-only store.
	memHits      *obs.Counter
	diskHits     *obs.Counter
	misses       *obs.Counter
	corrupt      *obs.Counter
	computes     *obs.Counter
	shared       *obs.Counter
	writes       *obs.Counter
	writeErrs    *obs.Counter
	readSeconds  *obs.Histogram
	writeSeconds *obs.Histogram
}

// call is one in-flight computation; waiters block on done and then read
// res/err exactly once each.
type call struct {
	done chan struct{}
	res  workloads.RunResult
	err  error
}

// Open returns a store rooted at dir, creating the version directory
// eagerly so permission problems surface at startup, not mid-campaign. An
// empty dir opens a memory-only store.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, flight: make(map[string]*call)}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The deepest tier a lookup consults: "disk", or "mem" for memory-only
	// stores (every miss of those stops at the LRU).
	tier := "disk"
	if dir == "" {
		tier = "mem"
	}
	s.memHits = reg.Counter("dhtm_resultstore_hits_total",
		"Result-store lookups answered without computing, by cache tier.", obs.L("tier", "mem"))
	// The "disk" hit series stays alive for memory-only stores so Metrics()
	// and dashboards read zeros rather than a missing family.
	s.diskHits = reg.Counter("dhtm_resultstore_hits_total",
		"Result-store lookups answered without computing, by cache tier.", obs.L("tier", "disk"))
	s.misses = reg.Counter("dhtm_resultstore_misses_total",
		"Result-store lookups that found nothing usable, by the deepest tier consulted.", obs.L("tier", tier))
	s.corrupt = reg.Counter("dhtm_resultstore_corrupt_total",
		"Backend records rejected as unreadable, unparsable, version-skewed or key-mismatched (each is also a miss).")
	s.computes = reg.Counter("dhtm_resultstore_computes_total",
		"GetOrCompute compute functions executed — simulations that actually ran.")
	s.shared = reg.Counter("dhtm_resultstore_shared_total",
		"Callers that waited on another goroutine's in-flight compute.")
	s.writes = reg.Counter("dhtm_resultstore_writes_total",
		"Result records durably persisted.")
	s.writeErrs = reg.Counter("dhtm_resultstore_write_errors_total",
		"Result records that computed fine but failed to persist.")
	if dir != "" {
		s.readSeconds = reg.Histogram("dhtm_resultstore_read_seconds",
			"Latency of reading and validating one backend result record, by tier.", obs.IOBuckets, obs.L("tier", tier))
		s.writeSeconds = reg.Histogram("dhtm_resultstore_write_seconds",
			"Latency of persisting one result record, by tier.", obs.IOBuckets, obs.L("tier", tier))
	}
	switch {
	case opts.MemEntries == 0:
		s.lru = newLRU(DefaultMemEntries)
	case opts.MemEntries > 0:
		s.lru = newLRU(opts.MemEntries)
	}
	if dir != "" {
		if err := os.MkdirAll(filepath.Join(dir, versionDir()), 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: opening %s: %w", dir, err)
		}
	}
	return s, nil
}

// Dir returns the store's root directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

func versionDir() string { return fmt.Sprintf("v%d", FormatVersion) }

// path shards records two hex digits deep, keeping directories small even
// for millions of records.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, versionDir(), hash[:2], hash+".json")
}

// Metrics returns a snapshot of the counters. The values are read from the
// same registry series the hot path increments.
func (s *Store) Metrics() Metrics {
	return Metrics{
		MemHits:     s.memHits.Value(),
		DiskHits:    s.diskHits.Value(),
		Misses:      s.misses.Value(),
		Corrupt:     s.corrupt.Value(),
		Computes:    s.computes.Value(),
		Shared:      s.shared.Value(),
		Writes:      s.writes.Value(),
		WriteErrors: s.writeErrs.Value(),
	}
}

// Get returns the stored result for k, reporting whether one was found. A
// corrupt or mismatched record is a miss. The returned result shares no
// mutable state with the store's copy.
func (s *Store) Get(k Key) (workloads.RunResult, bool) {
	h := k.hash()
	if res, ok := s.memGet(h); ok {
		s.memHits.Add(1)
		return res, true
	}
	if res, ok := s.diskGet(h, k); ok {
		s.diskHits.Add(1)
		s.memPut(h, res)
		return detach(res), true
	}
	s.misses.Add(1)
	return workloads.RunResult{}, false
}

// Put persists the result for k: into the LRU immediately, and — when the
// store is disk-backed — as an atomically renamed record.
func (s *Store) Put(k Key, res workloads.RunResult) error {
	res = detach(res)
	h := k.hash()
	s.memPut(h, res)
	if s.dir == "" {
		return nil
	}
	return s.diskPut(h, k, res)
}

// GetOrCompute returns the result for k, computing and persisting it on a
// miss. The returned bool reports whether this caller's compute was avoided
// — a memory or disk hit, or an in-flight compute shared with a concurrent
// caller; only the caller that actually ran compute gets false. Concurrent
// calls for the same key share a single compute: the first caller runs it
// and every other caller blocks until it finishes, then receives the same
// outcome (errors included; errors are never cached, so a later retry
// recomputes).
func (s *Store) GetOrCompute(k Key, compute func() (workloads.RunResult, error)) (workloads.RunResult, bool, error) {
	h := k.hash()

	// Fast path: answered from memory without joining the flight table.
	if res, ok := s.memGet(h); ok {
		s.memHits.Add(1)
		return res, true, nil
	}

	s.mu.Lock()
	if c, inflight := s.flight[h]; inflight {
		s.mu.Unlock()
		s.shared.Add(1)
		<-c.done
		if c.err != nil {
			return workloads.RunResult{}, false, c.err
		}
		shared := detach(c.res)
		// The leader's phase trace, probe timeline and scheduling counts
		// describe its execution, not this caller's.
		shared.Phases = nil
		shared.Timeline = nil
		shared.Sched = engine.Counts{}
		return shared, true, nil
	}
	c := &call{done: make(chan struct{})}
	s.flight[h] = c
	s.mu.Unlock()

	res, hit, err := s.fill(h, k, compute)
	c.res, c.err = res, err

	s.mu.Lock()
	delete(s.flight, h)
	s.mu.Unlock()
	close(c.done)

	if err != nil {
		return workloads.RunResult{}, false, err
	}
	return detach(res), hit, nil
}

// fill resolves a flight-leader's lookup: re-check memory (a Put may have
// raced ahead of the flight entry), then disk, then compute and persist.
func (s *Store) fill(h string, k Key, compute func() (workloads.RunResult, error)) (workloads.RunResult, bool, error) {
	if res, ok := s.memGet(h); ok {
		s.memHits.Add(1)
		return res, true, nil
	}
	if res, ok := s.diskGet(h, k); ok {
		s.diskHits.Add(1)
		s.memPut(h, res)
		return res, true, nil
	}
	s.misses.Add(1)
	s.computes.Add(1)
	res, err := compute()
	if err != nil {
		return workloads.RunResult{}, false, err
	}
	res = detach(res)
	s.memPut(h, res)
	if s.dir != "" {
		// A persist failure (disk full, permissions yanked mid-campaign) must
		// not discard a simulation that succeeded: serve the result, keep it
		// in memory, and surface the sick disk through WriteErrors.
		wstart := time.Now()
		s.diskPut(h, k, res)
		res.Phases.Add(obs.PhaseStoreWrite, time.Since(wstart))
	}
	return res, false, nil
}

// diskGet reads and validates the record for hash h. Every failure mode —
// unreadable file, bad JSON, version skew, key mismatch — is a miss counted
// as corrupt, never an error; only a missing file is a silent miss.
func (s *Store) diskGet(h string, k Key) (workloads.RunResult, bool) {
	if s.dir == "" {
		return workloads.RunResult{}, false
	}
	start := time.Now()
	raw, err := os.ReadFile(s.path(h))
	if os.IsNotExist(err) {
		// A missing file is not a record read; don't let cold-sweep lookups
		// dominate the read-latency histogram.
		return workloads.RunResult{}, false
	}
	// Rejected records are observed too — a disk serving garbage slowly is
	// two problems, and both should show.
	defer s.readSeconds.ObserveSince(start)
	var rec record
	if err != nil || json.Unmarshal(raw, &rec) != nil || rec.Version != FormatVersion || rec.Key != k {
		s.corrupt.Add(1)
		return workloads.RunResult{}, false
	}
	return rec.Result, true
}

// diskPut persists one record, counting the write or its failure.
func (s *Store) diskPut(h string, k Key, res workloads.RunResult) error {
	start := time.Now()
	if err := writeRecord(s.path(h), k, res); err != nil {
		s.writeErrs.Add(1)
		return err
	}
	s.writes.Add(1)
	s.writeSeconds.ObserveSince(start)
	return nil
}

// writeRecord writes the record under a temporary name in its final
// directory and renames it into place, so readers only ever observe complete
// records.
func writeRecord(path string, k Key, res workloads.RunResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	raw, err := json.MarshalIndent(record{Version: FormatVersion, Key: k, Result: res}, "", "  ")
	if err != nil {
		return fmt.Errorf("resultstore: encoding record: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(append(raw, '\n')); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: writing record: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// memGet returns a detached copy from the LRU.
func (s *Store) memGet(h string) (workloads.RunResult, bool) {
	if s.lru == nil {
		return workloads.RunResult{}, false
	}
	s.mu.Lock()
	res, ok := s.lru.get(h)
	s.mu.Unlock()
	if !ok {
		return workloads.RunResult{}, false
	}
	return detach(res), true
}

func (s *Store) memPut(h string, res workloads.RunResult) {
	if s.lru == nil {
		return
	}
	// Phase traces, probe timelines and scheduling counts describe one
	// concrete execution; a cached copy answers later lookups that did no
	// such work, so it must not carry them.
	res.Phases = nil
	res.Timeline = nil
	res.Sched = engine.Counts{}
	s.mu.Lock()
	s.lru.put(h, res)
	s.mu.Unlock()
}

// detach deep-copies the result's mutable parts so store-resident values,
// concurrent readers and callers never alias each other's Stats.
func detach(res workloads.RunResult) workloads.RunResult {
	if res.Stats != nil {
		res.Stats = res.Stats.Snapshot()
	}
	return res
}

// lruCache is a plain capacity-bounded LRU (map + intrusive list). Callers
// hold Store.mu around every method.
type lruCache struct {
	cap int
	ll  *list.List
	m   map[string]*list.Element
}

type lruEntry struct {
	key string
	res workloads.RunResult
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

func (c *lruCache) get(key string) (workloads.RunResult, bool) {
	el, ok := c.m[key]
	if !ok {
		return workloads.RunResult{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

func (c *lruCache) put(key string, res workloads.RunResult) {
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*lruEntry).key)
	}
}
