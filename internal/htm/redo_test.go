package htm_test

import (
	"slices"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/htm"
	"dhtm/internal/memdev"
	"dhtm/internal/txn"
	"dhtm/internal/wal"
)

// countingClock is a single-core txn.Clock that counts the Advance calls of
// one step size.
type countingClock struct {
	now, step uint64
	steps     int
}

func (c *countingClock) Core() int   { return 0 }
func (c *countingClock) Now() uint64 { return c.now }
func (c *countingClock) Advance(d uint64) {
	if d == c.step {
		c.steps++
	}
	c.now += d
}
func (c *countingClock) AdvanceTo(t uint64) { c.now = max(c.now, t) }
func (c *countingClock) Park(next, _ uint64) uint64 {
	c.AdvanceTo(next)
	return 0
}
func (c *countingClock) Wake(int) {}

// persistStep is one durable write of the sequence: its class, its line (the
// logged line of a redo record, the written line of a data write) and the
// cycle at which the core issued it.
type persistStep struct {
	class memdev.TrafficClass
	line  uint64
	at    uint64
}

// persistSteps records every durable write but the log-head metadata.
type persistSteps struct {
	clock *countingClock
	steps []persistStep
}

// PersistWrite implements memdev.PersistObserver.
func (p *persistSteps) PersistWrite(_ uint64, ev memdev.PersistEvent) {
	s := persistStep{class: ev.Class, line: ev.Addr, at: p.clock.now}
	switch ev.Class {
	case memdev.TrafficLogMeta:
		return
	case memdev.TrafficLogRedo:
		rec, _, err := wal.DecodeRecord(ev.Data, 0)
		if err != nil {
			panic(err)
		}
		s.line = rec.LineAddr
	}
	p.steps = append(p.steps, s)
}

// TestPersistRedoSequence runs the fallback persist on four dirty lines and
// checks the sequence: the redo records, all stamped at the batch's start,
// then the fence and the commit record once they are durable, then the
// in-place flushes and the complete record once the commit record is
// durable. The core pays FlushIssueLatency per record and per flush, and
// each redo record counts one log record.
func TestPersistRedoSequence(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 1
	// A write takes longer to become durable than issuing the whole batch,
	// so the commit record's cycle shows when the records were stamped.
	cfg.FlushIssueLatency = 997
	cfg.NVMWriteLatency = 5000
	env, err := txn.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := htm.NewRuntime(env, wal.RegistryTableAddr+0x800)
	dirty := htm.NewLineSet(4)
	var lines []uint64
	for i := uint64(0); i < 4; i++ {
		la := wal.HeapBase + 64*i
		env.Hier.Store(0, la, i+1, 0, false)
		dirty.Add(la)
		lines = append(lines, la)
	}
	// Start once the stores' fills have left the channel idle.
	const t0 = 1_000_000
	clock := &countingClock{now: t0, step: cfg.FlushIssueLatency}
	obs := &persistSteps{clock: clock}
	env.Ctl.SetPersistObserver(obs)
	log := env.Registry.Log(0)
	rt.PersistRedo(0, clock, log.BeginTx(), dirty)

	var classes []memdev.TrafficClass
	var redoLines, dataLines []uint64
	for _, s := range obs.steps {
		classes = append(classes, s.class)
		switch s.class {
		case memdev.TrafficLogRedo:
			redoLines = append(redoLines, s.line)
		case memdev.TrafficData:
			dataLines = append(dataLines, s.line)
		}
	}
	R, C, D, X := memdev.TrafficLogRedo, memdev.TrafficLogCommit, memdev.TrafficData, memdev.TrafficLogComplete
	if want := []memdev.TrafficClass{R, R, R, R, C, D, D, D, D, X}; !slices.Equal(classes, want) {
		t.Fatalf("persist order %v, want %v", classes, want)
	}
	if !slices.Equal(redoLines, lines) || !slices.Equal(dataLines, lines) {
		t.Errorf("redo records of lines %#x and flushes of %#x, want %#x in both", redoLines, dataLines, lines)
	}

	L, F, fence := cfg.NVMWriteLatency, cfg.FlushIssueLatency, cfg.FenceLatency
	commit, flushes, complete := obs.steps[4], obs.steps[5:9], obs.steps[9]
	// Every record was stamped at t0 and is durable at most a channel
	// transfer or two later than t0+L; a record stamped when it was issued,
	// up to 3F later, would hold the fence back past t0+L+F.
	if commit.at < t0+L+fence || commit.at >= t0+L+F+fence {
		t.Errorf("commit record issued at t0+%d, want in [L+fence, L+F+fence) = [%d, %d)",
			commit.at-t0, L+fence, L+F+fence)
	}
	if first := flushes[0].at; first < commit.at+L {
		t.Errorf("first flush at t0+%d, before the commit record (t0+%d) is durable", first-t0, commit.at-t0)
	}
	for i := 1; i < len(flushes); i++ {
		if d := flushes[i].at - flushes[i-1].at; d != F {
			t.Errorf("flush %d issued %d cycles after the previous one, want FlushIssueLatency %d", i, d, F)
		}
	}
	if last := flushes[len(flushes)-1].at; complete.at < last+L {
		t.Errorf("complete record at t0+%d, before the last flush (t0+%d) is durable", complete.at-t0, last-t0)
	}
	if clock.steps != 2*len(lines) {
		t.Errorf("FlushIssueLatency charged %d times, want %d (one per record and per flush)", clock.steps, 2*len(lines))
	}
	// Every persist but the in-place flushes is a log record.
	if want := uint64(len(lines) + 2); env.Stats.LogRecords != want {
		t.Errorf("LogRecords = %d, want %d (one per redo record, plus the commit and complete records)", env.Stats.LogRecords, want)
	}
}
