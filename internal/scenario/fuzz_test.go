package scenario

import "testing"

// FuzzScenario feeds arbitrary bytes to Parse and, when they parse, to
// Compile: either must return an error on a hostile document, never panic.
// The seed corpus in testdata/fuzz/FuzzScenario holds every shipped example
// under examples/scenarios and the override sweep of TestPlanGolden.
func FuzzScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		d.Compile()
	})
}
