package registry_test

import (
	"fmt"
	"testing"

	"dhtm/internal/cache"
	"dhtm/internal/config"
	"dhtm/internal/registry"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
	"dhtm/internal/workloads"
)

// fallbackLockLines are the lines holding the designs' single global
// fallback locks (core's and baselines' fallbackLockAddr). Every hardware
// transaction subscribes to its lock with a transactional read in begin, so
// the lock line legitimately carries R when the body starts.
var fallbackLockLines = map[uint64]bool{
	wal.RegistryTableAddr + 0x800: true,
	wal.RegistryTableAddr + 0x900: true,
}

// bitCheckRuntime wraps a design so that every attempt of every transaction
// body (hardware retries and the software fallback alike) first checks that
// the core's L1 carries no R or W bit outside the fallback-lock line.
type bitCheckRuntime struct {
	txn.Runtime
	env   *txn.Env
	stale int    // attempts that started with a stale bit
	first string // description of the first one
}

func (r *bitCheckRuntime) Run(core int, c txn.Clock, t *txn.Transaction) txn.ExecResult {
	body := t.Body
	checked := *t
	checked.Body = func(tx txn.Tx) error {
		r.check(core)
		return body(tx)
	}
	return r.Runtime.Run(core, c, &checked)
}

func (r *bitCheckRuntime) check(core int) {
	var bad *cache.Line
	r.env.Hier.L1(core).ForEach(func(l *cache.Line) {
		if bad == nil && (l.R || l.W) && !fallbackLockLines[l.Addr] {
			bad = l
		}
	})
	if bad == nil {
		return
	}
	if r.stale == 0 {
		r.first = fmt.Sprintf("core %d line %#x R=%v W=%v", core, bad.Addr, bad.R, bad.W)
	}
	r.stale++
}

// TestNoStaleTxBitsAtAttemptStart runs every HTM design on every workload at
// small scale and requires each attempt's body to start with a clean L1.
func TestNoStaleTxBitsAtAttemptStart(t *testing.T) {
	const cores, txPerCore, seed = 8, 16, 5
	for _, design := range registry.DesignNamesByTag(registry.TagHTM) {
		for _, wl := range registry.WorkloadNames() {
			t.Run(design+"/"+wl, func(t *testing.T) {
				t.Parallel()
				cfg := config.Default()
				cfg.NumCores = cores
				env, err := txn.NewEnv(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer env.Release()
				inner, err := registry.NewRuntime(env, design)
				if err != nil {
					t.Fatal(err)
				}
				w, err := registry.NewWorkload(wl)
				if err != nil {
					t.Fatal(err)
				}
				rt := &bitCheckRuntime{Runtime: inner, env: env}
				p := workloads.Params{Cores: cores, Seed: seed}
				if _, err := workloads.Run(env, rt, w, p, txPerCore, true); err != nil {
					t.Fatal(err)
				}
				if rt.stale > 0 {
					t.Errorf("%d attempts started with a stale transactional bit; first: %s", rt.stale, rt.first)
				}
			})
		}
	}
}
