package snapshot_test

import (
	"reflect"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/obs"
	"dhtm/internal/registry"
	"dhtm/internal/snapshot"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

func testConfig() config.Config {
	cfg := config.Default()
	cfg.NumCores = 2
	return cfg
}

// TestPrepareCachesAndCounts checks the cache contract: one Setup per key,
// shared Prepared entries, independent clones, and accurate counters.
func TestPrepareCachesAndCounts(t *testing.T) {
	c := snapshot.NewCacheIn(obs.NewRegistry(), 4)
	cfg := testConfig()
	p := workloads.Params{Seed: 7}

	p1, err := c.Prepare(cfg, "hash", p)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	p2, err := c.Prepare(cfg, "hash", p)
	if err != nil {
		t.Fatalf("Prepare (hit): %v", err)
	}
	if p1 != p2 {
		t.Fatalf("same key produced distinct prepared entries")
	}
	if p1.Workload.Name() != "hash" {
		t.Fatalf("prepared workload is %q", p1.Workload.Name())
	}

	s1, s2 := p1.NewStore(), p1.NewStore()
	if !s1.Equal(s2) {
		t.Fatalf("two clones of one image differ")
	}
	// Dirty one clone heavily: its sibling and any future clone stay clean.
	for i := uint64(0); i < 4096; i++ {
		s1.WriteWord(0x1000_0000+i*8, ^i)
	}
	s3 := p1.NewStore()
	if !s2.Equal(s3) {
		t.Fatalf("writes to one clone leaked into a later clone")
	}

	// A different seed is a different image.
	p3, err := c.Prepare(cfg, "hash", workloads.Params{Seed: 8})
	if err != nil {
		t.Fatalf("Prepare (new seed): %v", err)
	}
	if p3 == p1 || p3.NewStore().Equal(s2) {
		t.Fatalf("distinct seeds shared a setup image")
	}

	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 2 || m.Clones != 4 || m.Entries != 2 {
		t.Fatalf("metrics = %+v, want hits=1 misses=2 clones=4 entries=2", m)
	}
}

// runFresh runs a cell the pre-snapshot way: fresh store, Setup inside the
// driver.
func runFresh(t *testing.T, cfg config.Config, design string, p workloads.Params, txPerCore int) (workloads.RunResult, *txn.Env) {
	t.Helper()
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	rt, err := registry.NewRuntime(env, design)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	w, err := registry.NewWorkload("hash")
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	res, err := workloads.Run(env, rt, w, p, txPerCore, true)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, env
}

// runSnapshotted runs the same cell from a snapshot clone.
func runSnapshotted(t *testing.T, c *snapshot.Cache, cfg config.Config, design string, p workloads.Params, txPerCore int) (workloads.RunResult, *txn.Env) {
	t.Helper()
	prep, err := c.Prepare(cfg, "hash", p)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	env, err := txn.NewEnvOn(cfg, prep.NewStore())
	if err != nil {
		t.Fatalf("NewEnvOn: %v", err)
	}
	rt, err := registry.NewRuntime(env, design)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	res, err := workloads.RunPrepared(env, rt, prep.Workload, p, txPerCore, true)
	if err != nil {
		t.Fatalf("RunPrepared: %v", err)
	}
	return res, env
}

// TestSnapshotRunMatchesFreshSetup is the equivalence gate for the snapshot
// path: a run from a copy-on-write clone of the cached post-setup image must
// reproduce a fresh-setup run exactly — same statistics to the last counter
// and the same final durable image — both on the cache-miss pass and on
// later cache-hit passes (which also proves one run leaks no state into the
// shared entry).
func TestSnapshotRunMatchesFreshSetup(t *testing.T) {
	cfg := testConfig()
	p := workloads.Params{Seed: 11}
	const txPerCore = 3

	for _, design := range []string{"DHTM", "SO"} {
		refRes, refEnv := runFresh(t, cfg, design, p, txPerCore)
		cache := snapshot.NewCacheIn(obs.NewRegistry(), 4)
		for pass := 0; pass < 3; pass++ {
			res, env := runSnapshotted(t, cache, cfg, design, p, txPerCore)
			if !reflect.DeepEqual(refRes.Stats, res.Stats) {
				t.Fatalf("%s pass %d: stats diverge from fresh setup:\nfresh: %+v\nsnap:  %+v",
					design, pass, refRes.Stats, res.Stats)
			}
			if refRes.Committed != res.Committed || refRes.Cycles != res.Cycles {
				t.Fatalf("%s pass %d: result diverges: fresh %d/%d, snapshot %d/%d",
					design, pass, refRes.Committed, refRes.Cycles, res.Committed, res.Cycles)
			}
			if !refEnv.Store().Equal(env.Store()) {
				t.Fatalf("%s pass %d: final durable images differ", design, pass)
			}
			env.Release()
		}
	}
}

// TestCacheEviction checks the entry bound holds.
func TestCacheEviction(t *testing.T) {
	c := snapshot.NewCacheIn(obs.NewRegistry(), 2)
	cfg := testConfig()
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := c.Prepare(cfg, "queue", workloads.Params{Seed: seed}); err != nil {
			t.Fatalf("Prepare seed %d: %v", seed, err)
		}
	}
	m := c.Metrics()
	if m.Entries != 2 || m.Misses != 3 {
		t.Fatalf("metrics after eviction = %+v, want entries=2 misses=3", m)
	}
	// An evicted key is rebuilt, not resurrected.
	if _, err := c.Prepare(cfg, "queue", workloads.Params{Seed: 1}); err != nil {
		t.Fatalf("re-Prepare evicted key: %v", err)
	}
	if m = c.Metrics(); m.Misses != 4 {
		t.Fatalf("evicted key was served as a hit: %+v", m)
	}
}
