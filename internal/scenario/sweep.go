package scenario

import (
	"fmt"

	"dhtm/internal/harness"
	"dhtm/internal/runner"
)

// sweepTable renders a completed sweep's results, in plan order, in the
// harness table format.
func sweepTable(name string, rs *runner.ResultSet) *harness.Table {
	if name == "" {
		name = "sweep"
	}
	t := &harness.Table{
		ID:      name,
		Title:   "sweep results",
		Columns: []string{"cell", "design", "workload", "seed", "committed", "cycles", "tx/Mcycle", "cached", "error"},
	}
	for _, r := range rs.Results {
		var committed, cycles uint64
		var throughput float64
		cached, failure := "", ""
		if r.Cached {
			cached = "yes"
		}
		if r.Err != nil {
			failure = r.Err.Error()
		} else {
			committed, cycles, throughput = r.Run.Committed, r.Run.Cycles, r.Run.Throughput()
		}
		t.Rows = append(t.Rows, []string{
			r.Cell.ID, r.Cell.Design, r.Cell.Workload,
			fmt.Sprintf("%d", r.Cell.Seed),
			fmt.Sprintf("%d", committed),
			fmt.Sprintf("%d", cycles),
			fmt.Sprintf("%.3f", throughput),
			cached, failure,
		})
	}
	return t
}
