package registry_test

import (
	"strings"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/recovery"
	"dhtm/internal/registry"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// TestCatalogSanity checks the registry's structural invariants: unique,
// described entries; lookups that agree with the listings; and errors that
// name every valid value.
func TestCatalogSanity(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range registry.Designs() {
		if d.Name == "" || seen[d.Name] {
			t.Fatalf("design %q: empty or duplicate name", d.Name)
		}
		seen[d.Name] = true
		if d.Description == "" || len(d.Tags) == 0 {
			t.Errorf("design %q: missing description or tags", d.Name)
		}
		got, ok := registry.LookupDesign(d.Name)
		if !ok || got.Name != d.Name {
			t.Errorf("LookupDesign(%q) failed", d.Name)
		}
		if err := registry.CheckDesign(d.Name); err != nil {
			t.Errorf("CheckDesign(%q): %v", d.Name, err)
		}
	}
	seen = map[string]bool{}
	for _, w := range registry.Workloads() {
		if w.Name == "" || seen[w.Name] {
			t.Fatalf("workload %q: empty or duplicate name", w.Name)
		}
		seen[w.Name] = true
		if w.Description == "" || len(w.Tags) == 0 {
			t.Errorf("workload %q: missing description or tags", w.Name)
		}
		if err := registry.CheckWorkload(w.Name); err != nil {
			t.Errorf("CheckWorkload(%q): %v", w.Name, err)
		}
	}

	if err := registry.CheckDesign("nope"); err == nil {
		t.Fatal("CheckDesign accepted an unknown design")
	} else {
		for _, name := range registry.DesignNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-design error does not list %q: %v", name, err)
			}
		}
	}
	if err := registry.CheckWorkload("nope"); err == nil {
		t.Fatal("CheckWorkload accepted an unknown workload")
	} else {
		for _, name := range registry.WorkloadNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-workload error does not list %q: %v", name, err)
			}
		}
	}
	if _, err := registry.NewRuntime(nil, "nope"); err == nil {
		t.Fatal("NewRuntime accepted an unknown design")
	}
	if _, err := registry.NewWorkload("nope"); err == nil {
		t.Fatal("NewWorkload accepted an unknown workload")
	}
}

// TestTagSelections checks the tag-derived subsets the scenario compiler and
// the crash-point explorer rely on.
func TestTagSelections(t *testing.T) {
	micro := registry.MicroWorkloadNames()
	if len(micro) != 6 {
		t.Fatalf("micro workloads = %v, want the six micro-benchmarks", micro)
	}
	for _, name := range micro {
		w, _ := registry.LookupWorkload(name)
		if w.OLTP {
			t.Errorf("micro workload %q is marked OLTP", name)
		}
	}
	oltp := registry.WorkloadNamesByTag(registry.TagOLTP)
	if len(oltp) != 2 {
		t.Fatalf("oltp workloads = %v, want tpcc and tatp", oltp)
	}
	if len(micro)+len(oltp) != len(registry.WorkloadNames()) {
		t.Fatalf("micro (%d) + oltp (%d) do not partition the %d workloads",
			len(micro), len(oltp), len(registry.WorkloadNames()))
	}
	crash := registry.CrashSafeDesignNames()
	if len(crash) == 0 {
		t.Fatal("no crash-safe designs registered")
	}
	for _, name := range crash {
		d, _ := registry.LookupDesign(name)
		if !d.CrashSafe {
			t.Errorf("CrashSafeDesignNames returned %q, which is not crash-safe", name)
		}
	}
	if names := registry.DesignNamesByTag("no-such-tag"); len(names) != 0 {
		t.Fatalf("unknown tag matched %v", names)
	}
}

// TestEveryDesignRunsCrashRecover is the registry smoke test: every
// registered design drives one micro-workload, then survives a crash plus
// recovery. Crash-safe designs crash at the commit point of their last
// transactions (the committed-but-incomplete window) and must come back
// with the workload invariants intact; the others finish cleanly, drain,
// and recovery over their image must be a harmless no-op.
func TestEveryDesignRunsCrashRecover(t *testing.T) {
	for _, d := range registry.Designs() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			cfg.NumCores = 2
			env, err := txn.NewEnv(cfg)
			if err != nil {
				t.Fatalf("NewEnv: %v", err)
			}
			rt, err := registry.NewRuntime(env, d.Name)
			if err != nil {
				t.Fatalf("NewRuntime: %v", err)
			}
			w, err := registry.NewWorkload("hash")
			if err != nil {
				t.Fatalf("NewWorkload: %v", err)
			}
			finish := !d.CrashSafe
			res, err := workloads.Run(env, rt, w, workloads.Params{Seed: 7}, 3, finish)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Committed == 0 {
				t.Fatal("no transactions committed")
			}
			if finish {
				env.Hier.DrainClean()
			} else {
				env.Hier.Crash()
			}
			if _, err := recovery.Recover(env.Store()); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if d.CrashSafe {
				if err := w.Verify(env.Store()); err != nil {
					t.Fatalf("workload invariants violated after crash recovery: %v", err)
				}
			}
		})
	}
}
