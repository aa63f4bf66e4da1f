package harness

import (
	"testing"

	"dhtm/internal/runner"
)

// TestLogRecordsCoverCommittedWrites pins the one definition of a log
// record (each successful append to a durable log, wal.ThreadLog.Append) on
// every design: a logging design logs at least one record per committed
// write-set line plus a commit record per commit, whichever path (hardware
// or fallback) the transaction committed on, and NP logs nothing.
func TestLogRecordsCoverCommittedWrites(t *testing.T) {
	for _, design := range Designs() {
		for _, workload := range []string{"hash", "queue", "tpcc", "tatp"} {
			cell := runner.Cell{Design: design, Workload: workload, Cores: 4, TxPerCore: 4, Seed: 1}
			res, err := Execute(cell)
			if err != nil {
				t.Fatalf("%s/%s: %v", design, workload, err)
			}
			s := res.Stats
			var lines uint64
			for i := range s.Cores {
				lines += s.Cores[i].WriteSetLines
			}
			commits := s.TotalCommits()
			switch design {
			case DesignNP:
				if s.LogRecords != 0 {
					t.Errorf("%s/%s: %d log records, want 0 (NP is volatile)", design, workload, s.LogRecords)
				}
			case DesignSdTM:
				// sdTM's reported write set includes the lines of its
				// in-cache software log, which it does not log (ROADMAP
				// item 11), so its records may fall short of its lines.
			default:
				if s.LogRecords < lines+commits {
					t.Errorf("%s/%s: %d log records for %d committed write-set lines and %d commits, want at least %d",
						design, workload, s.LogRecords, lines, commits, lines+commits)
				}
			}
		}
	}
}
