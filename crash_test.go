package dhtm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dhtm"
	"dhtm/internal/config"
	"dhtm/internal/core"
	"dhtm/internal/recovery"
	"dhtm/internal/registry"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// TestCrashRecoveryBankInvariant is the end-to-end ACID test on the public
// API: concurrent transfers on every core, a crash that interrupts each core
// with a committed-but-incomplete transaction, recovery, and the conservation
// invariant.
func TestCrashRecoveryBankInvariant(t *testing.T) {
	for _, design := range []dhtm.Design{dhtm.DHTM, dhtm.DHTML1} {
		design := design
		t.Run(string(design), func(t *testing.T) {
			sys, err := dhtm.NewSystem(dhtm.Config{Design: design, Cores: 4})
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			heap := sys.Heap()
			const accounts = 256
			base := heap.AllocLines(accounts)
			addr := func(i int) uint64 { return base + uint64(i)*64 }
			for i := 0; i < accounts; i++ {
				heap.WriteWord(addr(i), 1000)
			}
			sys.ExecuteWithoutCompletion(func(core int, run func(*dhtm.Transaction) bool) {
				rng := rand.New(rand.NewSource(int64(core) * 13))
				for i := 0; i < 30; i++ {
					from, to := rng.Intn(accounts), rng.Intn(accounts)
					if from == to {
						to = (to + 1) % accounts
					}
					amount := uint64(rng.Intn(50) + 1)
					run(&dhtm.Transaction{
						LockIDs: []uint64{uint64(from), uint64(to)},
						Body: func(tx dhtm.TxView) error {
							f, v := tx.Read(addr(from)), tx.Read(addr(to))
							if f < amount {
								return nil
							}
							tx.Write(addr(from), f-amount)
							tx.Write(addr(to), v+amount)
							return nil
						},
					})
				}
			})
			sys.Crash()
			report, err := sys.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if len(report.Replayed) == 0 {
				t.Errorf("expected at least one committed-but-incomplete transaction to be replayed")
			}
			var sum uint64
			for i := 0; i < accounts; i++ {
				sum += sys.ReadWord(addr(i))
			}
			if want := uint64(accounts * 1000); sum != want {
				t.Fatalf("balance not conserved across crash+recovery: got %d want %d", sum, want)
			}
		})
	}
}

// TestCrashRecoveryWorkloads crashes every micro-benchmark (plus TATP) under
// DHTM at the point where each core's last transaction is committed but not
// complete, recovers, and checks the workload's own structural invariants
// against the durable image.
func TestCrashRecoveryWorkloads(t *testing.T) {
	names := append([]string{}, registry.MicroWorkloadNames()...)
	names = append(names, "tatp")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			cfg.NumCores = 4
			env, err := txn.NewEnv(cfg)
			if err != nil {
				t.Fatalf("NewEnv: %v", err)
			}
			rt := core.New(env, core.Options{})
			w, err := registry.NewWorkload(name)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			perCore := 4
			if name == "tatp" {
				perCore = 2
			}
			if _, err := workloads.Run(env, rt, w, workloads.Params{}, perCore, false); err != nil {
				t.Fatalf("Run: %v", err)
			}
			env.Hier.Crash()
			if _, err := recovery.Recover(env.Store()); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if err := w.Verify(env.Store()); err != nil {
				t.Fatalf("invariants violated after crash+recovery: %v", err)
			}
		})
	}
}

// TestRecoveryIdempotent runs recovery twice and checks the second run
// changes nothing and replays nothing.
func TestRecoveryIdempotent(t *testing.T) {
	sys, err := dhtm.NewSystem(dhtm.Config{Design: dhtm.DHTM, Cores: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	a := sys.Heap().AllocLines(1)
	sys.ExecuteWithoutCompletion(func(core int, run func(*dhtm.Transaction) bool) {
		if core != 0 {
			return
		}
		for i := 0; i < 3; i++ {
			v := uint64(i + 1)
			run(dhtm.Tx(func(tx dhtm.TxView) error {
				tx.Write(a, v*10)
				return nil
			}))
		}
	})
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	if got := sys.ReadWord(a); got != 30 {
		t.Fatalf("recovered value = %d, want 30", got)
	}
	second, err := sys.Recover()
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if len(second.Replayed) != 0 || len(second.RolledBack) != 0 {
		t.Fatalf("second recovery was not a no-op: %+v", second)
	}
	if got := sys.ReadWord(a); got != 30 {
		t.Fatalf("value changed by idempotent recovery: %d", got)
	}
}

// TestUncommittedWorkNeverSurvives checks atomicity in the other direction:
// a transaction that crashed before its commit record leaves no trace after
// recovery, even if some of its redo records reached the log.
func TestUncommittedWorkNeverSurvives(t *testing.T) {
	for _, design := range []dhtm.Design{dhtm.DHTM, dhtm.ATOM} {
		design := design
		t.Run(string(design), func(t *testing.T) {
			sys, err := dhtm.NewSystem(dhtm.Config{Design: design, Cores: 2})
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			a := sys.Heap().AllocLines(1)
			b := sys.Heap().AllocLines(1)
			sys.Heap().WriteWord(a, 7)
			sys.Heap().WriteWord(b, 9)
			// Commit one transaction normally so there is a durable baseline.
			sys.ExecuteWithoutCompletion(func(core int, run func(*dhtm.Transaction) bool) {
				if core != 0 {
					return
				}
				run(&dhtm.Transaction{LockIDs: []uint64{1}, Body: func(tx dhtm.TxView) error {
					tx.Write(a, 70)
					tx.Write(b, 90)
					return nil
				}})
			})
			sys.Crash()
			if _, err := sys.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			va, vb := sys.ReadWord(a), sys.ReadWord(b)
			ok := (va == 70 && vb == 90) || (va == 7 && vb == 9)
			if !ok {
				t.Fatalf("non-atomic state after recovery: a=%d b=%d", va, vb)
			}
		})
	}
}

// TestRecoveryOrdersDependentTransactions builds the conflict-window scenario
// of §III-B directly: transaction B consumes a line from committed-but-
// incomplete transaction A; after a crash both must be replayed and B's value
// must win on the shared line.
func TestRecoveryOrdersDependentTransactions(t *testing.T) {
	sys, err := dhtm.NewSystem(dhtm.Config{Design: dhtm.DHTM, Cores: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	shared := sys.Heap().AllocLines(1)
	other := sys.Heap().AllocLines(1)
	sys.ExecuteWithoutCompletion(func(core int, run func(*dhtm.Transaction) bool) {
		switch core {
		case 0:
			run(dhtm.Tx(func(tx dhtm.TxView) error {
				tx.Write(shared, 111)
				tx.Write(other, 1)
				return nil
			}))
		case 1:
			// Core 1 starts later (its generation below depends on nothing);
			// by the time it runs, core 0's transaction is committed but not
			// complete, so this read/write goes through the conflict window.
			run(dhtm.Tx(func(tx dhtm.TxView) error {
				v := tx.Read(shared)
				tx.Write(shared, v+1000)
				return nil
			}))
		}
	})
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got := sys.ReadWord(shared)
	if got != 1111 && got != 111 && got != 1000 {
		t.Fatalf("unexpected recovered value %d for the shared line", got)
	}
	// Whatever interleaving happened, the final state must reflect a prefix-
	// consistent outcome: if core 1's update survived it must include core
	// 0's committed value underneath it (1111) or core 1 read the pre-state
	// (1000 is only legal if core 0 aborted, which it cannot have since it
	// returned committed).
	if got == 1000 {
		t.Fatalf("dependent transaction's value lost its dependency's update")
	}
	fmt.Println("recovered shared value:", got)
}
