package core

import (
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/engine"
	"dhtm/internal/htm"
	"dhtm/internal/recovery"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// newDHTM builds a small machine running DHTM.
func newDHTM(t *testing.T, cores int, opt Options) (*txn.Env, *DHTM) {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = cores
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env, New(env, opt)
}

// runOn executes body transactions on core 0 under the engine.
func runOn(d *DHTM, body ...func(tx txn.Tx) error) []txn.ExecResult {
	var results []txn.ExecResult
	eng := engine.New(d.Cfg.NumCores)
	eng.Run(func(core int, c *engine.Clock) {
		if core != 0 {
			return
		}
		for _, b := range body {
			results = append(results, d.Run(0, c, &txn.Transaction{Body: b, LockIDs: []uint64{0}}))
		}
		d.Finish(0, c)
	})
	return results
}

// TestCommitWritesRedoAndCommitRecords checks the durable log contents of a
// committed transaction before its completion phase.
func TestCommitWritesRedoAndCommitRecords(t *testing.T) {
	env, d := newDHTM(t, 1, Options{})
	addr := wal.HeapBase
	eng := engine.New(1)
	eng.Run(func(core int, c *engine.Clock) {
		d.Run(0, c, &txn.Transaction{Body: func(tx txn.Tx) error {
			tx.Write(addr, 7)
			tx.Write(addr+64, 8)
			return nil
		}})
		// No Finish: the transaction is committed but not complete.
	})
	recs, err := env.Registry.Log(0).Scan(env.Store())
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	var redo, commit, complete int
	for _, r := range recs {
		switch r.Type {
		case wal.RecRedo:
			redo++
		case wal.RecCommit:
			commit++
		case wal.RecComplete:
			complete++
		}
	}
	if redo != 2 || commit != 1 || complete != 0 {
		t.Fatalf("log has redo=%d commit=%d complete=%d, want 2/1/0", redo, commit, complete)
	}
	if got := env.Store().ReadWord(addr); got != 0 {
		t.Fatalf("in-place data written before completion: %d", got)
	}
	// Crash now and recover: the committed values must be restored.
	env.Hier.Crash()
	if _, err := recovery.Recover(env.Store()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if env.Store().ReadWord(addr) != 7 || env.Store().ReadWord(addr+64) != 8 {
		t.Fatalf("committed values not recovered")
	}
}

// TestCompletionWritesDataInPlace checks that after Finish the data is
// durable in place and the log is truncated (a complete record was written).
func TestCompletionWritesDataInPlace(t *testing.T) {
	env, d := newDHTM(t, 1, Options{})
	addr := wal.HeapBase
	runOn(d, func(tx txn.Tx) error {
		tx.Write(addr, 99)
		return nil
	})
	if got := env.Store().ReadWord(addr); got != 99 {
		t.Fatalf("completion did not write data in place: %d", got)
	}
	recs, err := env.Registry.Log(0).Scan(env.Store())
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("log not truncated after completion: %d records live", len(recs))
	}
}

// TestAbortLeavesNoTrace checks that an explicitly aborted transaction leaves
// neither durable data nor a committed log image, and that retries are not
// attempted for explicit aborts beyond the retry budget.
func TestAbortDiscardsSpeculativeState(t *testing.T) {
	env, d := newDHTM(t, 1, Options{})
	addr := wal.HeapBase
	env.Store().WriteWord(addr, 5)

	eng := engine.New(1)
	eng.Run(func(core int, c *engine.Clock) {
		// Run a transaction that is doomed by a log overflow: shrink the log
		// first so the first redo record cannot fit.
		env.Registry.Log(0).SizeWords = 4
		res := d.Run(0, c, &txn.Transaction{Body: func(tx txn.Tx) error {
			tx.Write(addr, 123)
			return nil
		}})
		if !res.Committed {
			t.Errorf("transaction did not eventually commit (fallback should guarantee progress)")
		}
		d.Finish(0, c)
	})
	env.Hier.DrainClean()
	if got := env.Store().ReadWord(addr); got != 123 {
		t.Fatalf("fallback path lost the write: %d", got)
	}
	if env.Stats.Core(0).AbortsByReason[3] == 0 { // stats.AbortLogOverflow
		t.Fatalf("expected log-overflow aborts to be recorded")
	}
}

// TestWriteSetOverflowToLLC forces the write set past the L1 and checks the
// transaction still commits on the hardware path, with overflowed lines
// recorded in the durable overflow list and written back at completion.
func TestWriteSetOverflowToLLC(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 1
	cfg.L1Size = 2 * 1024 // 32 lines: tiny L1 so the write set overflows
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	d := New(env, Options{})
	const lines = 128
	eng := engine.New(1)
	eng.Run(func(core int, c *engine.Clock) {
		res := d.Run(0, c, &txn.Transaction{Body: func(tx txn.Tx) error {
			for i := 0; i < lines; i++ {
				tx.Write(wal.HeapBase+uint64(i)*64, uint64(i)+1)
			}
			return nil
		}})
		if !res.Committed || res.Aborts != 0 {
			t.Errorf("overflowing transaction did not commit cleanly: %+v", res)
		}
		d.Finish(0, c)
	})
	if env.Stats.OverflowedLines == 0 {
		t.Fatalf("no lines overflowed despite a write set 4x the L1")
	}
	if env.Stats.Core(0).Fallbacks != 0 {
		t.Fatalf("transaction fell back to software instead of using LLC overflow")
	}
	for i := 0; i < lines; i++ {
		if got := env.Store().ReadWord(wal.HeapBase + uint64(i)*64); got != uint64(i)+1 {
			t.Fatalf("line %d not durable after completion: %d", i, got)
		}
	}
}

// TestDisableOverflowAborts checks the L1-limited ablation falls back to the
// software path for L1-exceeding write sets (instead of overflowing).
func TestDisableOverflowFallsBack(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 1
	cfg.L1Size = 2 * 1024
	cfg.MaxRetries = 3
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	d := New(env, Options{DisableOverflow: true})
	eng := engine.New(1)
	eng.Run(func(core int, c *engine.Clock) {
		res := d.Run(0, c, &txn.Transaction{Body: func(tx txn.Tx) error {
			for i := 0; i < 128; i++ {
				tx.Write(wal.HeapBase+uint64(i)*64, 1)
			}
			return nil
		}})
		if !res.Committed {
			t.Errorf("fallback did not guarantee progress")
		}
		d.Finish(0, c)
	})
	if env.Stats.Core(0).Fallbacks != 1 {
		t.Fatalf("expected exactly one software fallback, got %d", env.Stats.Core(0).Fallbacks)
	}
}

// TestLogBufferCoalescingReducesRecords compares the default coalescing
// configuration against one record per store on the same access pattern.
func TestLogBufferCoalescingReducesRecords(t *testing.T) {
	run := func(opt Options) uint64 {
		env, d := newDHTM(t, 1, opt)
		runOn(d, func(tx txn.Tx) error {
			// Eight stores per line over eight lines: coalescing should emit
			// one record per line, the no-buffer ablation one per store.
			for i := 0; i < 8; i++ {
				for w := 0; w < 8; w++ {
					tx.Write(wal.HeapBase+uint64(i)*64+uint64(w)*8, uint64(i*w))
				}
			}
			return nil
		})
		return env.Stats.LogRecords
	}
	coalesced := run(Options{})
	perStore := run(Options{DisableLogBuffer: true})
	if coalesced >= perStore {
		t.Fatalf("coalescing (%d records) did not reduce log records vs one per store (%d)", coalesced, perStore)
	}
}

// TestStateMachine checks the externally observable lifecycle: Active during
// the body, Committed after commit, Idle after completion.
func TestStateMachine(t *testing.T) {
	_, d := newDHTM(t, 1, Options{})
	eng := engine.New(1)
	eng.Run(func(core int, c *engine.Clock) {
		d.Run(0, c, &txn.Transaction{Body: func(tx txn.Tx) error {
			tx.Write(wal.HeapBase, 1)
			if d.cores[0].ctx.State != htm.Active {
				t.Errorf("state during body = %v, want Active", d.cores[0].ctx.State)
			}
			return nil
		}})
		if d.cores[0].ctx.State != htm.Committed {
			t.Errorf("state after Run = %v, want Committed (completion pending)", d.cores[0].ctx.State)
		}
		d.Finish(0, c)
		if d.cores[0].ctx.State != htm.Idle {
			t.Errorf("state after Finish = %v, want Idle", d.cores[0].ctx.State)
		}
	})
}
