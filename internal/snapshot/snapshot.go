// Package snapshot caches post-setup persistent-memory images so that sweeps
// do not re-run workload Setup for every cell. A prepared entry is built once
// per (hardware configuration, workload, parameters): an empty store gets the
// durable-log registry layout and the workload's Setup writes, then the image
// is frozen. Every cell that matches the key clones the frozen image
// copy-on-write — O(1) up front, then one 4 KB leaf copy (plus its
// directory, once) per leaf the cell actually dirties — and shares the
// workload object itself, which is read-only once Setup has run.
//
// Lifecycle: an image is taken immediately after Setup (before any runtime or
// engine work), keyed by the full defaulted parameter set (Setup draws from
// the seed, so the seed is part of the key), cloned per cell, and dropped in
// insertion order once the cache exceeds its entry bound. Frozen images are
// immutable — a write to one panics — which is what makes concurrent clones
// from parallel sweep workers race-free.
package snapshot

import (
	"fmt"
	"sync"
	"time"

	"dhtm/internal/config"
	"dhtm/internal/memdev"
	"dhtm/internal/obs"
	"dhtm/internal/palloc"
	"dhtm/internal/registry"
	"dhtm/internal/stats"
	"dhtm/internal/wal"
	"dhtm/internal/workloads"
)

// Key identifies one prepared setup image. Every field that influences the
// post-setup store contents participates: the hardware configuration fixes
// the log-registry layout, and the workload name plus the fully defaulted
// parameters fix the heap contents Setup produces.
type Key struct {
	Cfg      config.Config
	Workload string
	Params   workloads.Params
}

// Prepared is a cached post-setup machine image.
type Prepared struct {
	// Workload is the set-up workload object. Workloads are read-only after
	// Setup (Next and Verify never mutate the receiver), so one object is
	// shared by every cell and goroutine using this entry.
	Workload workloads.Workload
	// Params is the fully defaulted parameter set the image was set up with.
	Params workloads.Params

	image *memdev.Store // frozen post-setup store image
	cache *Cache
}

// NewStore returns a fresh copy-on-write clone of the prepared image, ready
// to back one cell's environment.
func (p *Prepared) NewStore() *memdev.Store {
	if p.cache == nil {
		return p.image.Clone()
	}
	start := time.Now()
	s := p.image.Clone()
	p.cache.clones.Inc()
	p.cache.cloneSeconds.ObserveSince(start)
	return s
}

// Metrics is a point-in-time snapshot of the cache counters.
type Metrics struct {
	// Hits counts Prepare calls answered from a cached image.
	Hits uint64 `json:"hits"`
	// Misses counts Prepare calls that had to run workload Setup.
	Misses uint64 `json:"misses"`
	// Clones counts copy-on-write store clones handed to cells.
	Clones uint64 `json:"clones"`
	// Entries is the current number of cached images.
	Entries int `json:"entries"`
}

// Cache is a bounded, concurrency-safe cache of prepared setup images.
type Cache struct {
	maxEntries int

	mu      sync.Mutex
	entries map[Key]*entry
	order   []Key // insertion order, for eviction

	// Counters live in an obs registry (private for NewCache, obs.Default for
	// the package Default), so Metrics() and -metrics read the same series
	// Prepare and NewStore increment.
	hits         *obs.Counter
	misses       *obs.Counter
	clones       *obs.Counter
	evictions    *obs.Counter
	entriesGauge *obs.Gauge
	cloneSeconds *obs.Histogram
}

// entry lets concurrent Prepare calls for the same key build the image once:
// the first caller runs Setup inside once, the rest block on it.
type entry struct {
	once sync.Once
	prep *Prepared
	err  error
}

// NewCache returns a cache bounded to maxEntries images (<= 0 means the
// default bound of 32) with a private metrics registry — independent caches
// (and tests asserting exact counts) never share counters.
func NewCache(maxEntries int) *Cache {
	return NewCacheIn(obs.NewRegistry(), maxEntries)
}

// NewCacheIn is NewCache with the registry that receives the cache's
// dhtm_snapshot_* metric families.
func NewCacheIn(reg *obs.Registry, maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 32
	}
	return &Cache{
		maxEntries: maxEntries,
		entries:    make(map[Key]*entry),
		hits: reg.Counter("dhtm_snapshot_hits_total",
			"Prepare calls answered from a cached post-setup image."),
		misses: reg.Counter("dhtm_snapshot_misses_total",
			"Prepare calls that had to run workload Setup."),
		clones: reg.Counter("dhtm_snapshot_clones_total",
			"Copy-on-write store clones handed to cells."),
		evictions: reg.Counter("dhtm_snapshot_evictions_total",
			"Cached images dropped by the entry bound (insertion order)."),
		entriesGauge: reg.Gauge("dhtm_snapshot_entries",
			"Cached post-setup images currently resident."),
		cloneSeconds: reg.Histogram("dhtm_snapshot_clone_seconds",
			"Latency of one copy-on-write clone of a prepared image.", obs.IOBuckets),
	}
}

// Default is the process-wide cache shared by the harness, the crash-point
// explorer and the benchmarks, so repeated identical cells across experiment
// grids amortize their setup cost. Its counters land in obs.Default — the
// registry the CLIs dump with -metrics.
var Default = NewCacheIn(obs.Default, 0)

// Prepare returns the prepared image for (cfg, workload, p), running the
// workload's Setup at most once per key. The parameters are defaulted and
// core-matched to cfg exactly as the run driver does, so a run on the clone
// replays the byte-identical event sequence of a run on a freshly set-up
// machine.
func (c *Cache) Prepare(cfg config.Config, workload string, p workloads.Params) (*Prepared, error) {
	p = p.Defaults()
	if p.Cores != cfg.NumCores {
		p.Cores = cfg.NumCores
	}
	k := Key{Cfg: cfg, Workload: workload, Params: p}

	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
		e = &entry{}
		c.entries[k] = e
		c.order = append(c.order, k)
		for len(c.order) > c.maxEntries {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
			c.evictions.Inc()
		}
		c.entriesGauge.Set(float64(len(c.entries)))
	}
	c.mu.Unlock()

	e.once.Do(func() { e.prep, e.err = c.build(k) })
	return e.prep, e.err
}

// build constructs the post-setup image for k: registry layout first, then
// workload Setup on the persistent heap — the same write order txn.NewEnv
// plus the run driver produce — and freezes the result.
func (c *Cache) build(k Key) (*Prepared, error) {
	store := memdev.NewStore()
	// The controller and stats here are construction-time throwaways: registry
	// layout writes are uncharged, and the real environment re-creates both on
	// the clone.
	ctl := memdev.NewController(k.Cfg, store, stats.New(k.Cfg.NumCores))
	wal.NewRegistry(ctl, k.Cfg.NumCores, k.Cfg.LogBytesPerThread, k.Cfg.OverflowEntriesPerThread)

	w, err := registry.NewWorkload(k.Workload)
	if err != nil {
		return nil, err
	}
	heap := palloc.New(store)
	if err := w.Setup(heap, k.Params); err != nil {
		return nil, fmt.Errorf("snapshot: setting up %s: %w", k.Workload, err)
	}
	store.Freeze()
	return &Prepared{Workload: w, Params: k.Params, image: store, cache: c}, nil
}

// Metrics returns the cache's counters, read from the same registry series
// the hot path increments.
func (c *Cache) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{
		Hits:    c.hits.Value(),
		Misses:  c.misses.Value(),
		Clones:  c.clones.Value(),
		Entries: len(c.entries),
	}
}
