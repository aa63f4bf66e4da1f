package scenario

import "testing"

// FuzzScenario feeds arbitrary bytes to Parse and, when they parse, to
// Compile: either must return an error on a hostile document, never panic,
// and no compiled document may hold more than MaxCells cells or
// explorations.
// The seed corpus in testdata/fuzz/FuzzScenario holds every shipped example
// under examples/scenarios and the override sweep of TestPlanGolden.
func FuzzScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		c, _ := d.Compile()
		if c != nil && (len(c.Plan.Cells) > MaxCells || len(c.Crashtests) > MaxCells) {
			t.Fatalf("compiled %d cells and %d explorations, limit %d", len(c.Plan.Cells), len(c.Crashtests), MaxCells)
		}
	})
}
