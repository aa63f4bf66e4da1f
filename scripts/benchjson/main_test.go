package main

import "testing"

// TestCompareJudgesRepeatsByMedian checks that a benchmark run several times
// is compared by its median ns/op, so one slow run passes and a slow
// majority fails, and by its worst allocs/op.
func TestCompareJudgesRepeatsByMedian(t *testing.T) {
	zero, one := 0.0, 1.0
	base := document{CPU: "cpu", Results: []result{{Name: "BenchmarkX-2", NsPerOp: 100, AllocsPerOp: &zero}}}
	runs := func(allocs *float64, ns ...float64) document {
		d := document{CPU: "cpu"}
		for _, v := range ns {
			d.Results = append(d.Results, result{Name: "BenchmarkX-2", NsPerOp: v, AllocsPerOp: &zero})
		}
		d.Results[0].AllocsPerOp = allocs
		return d
	}
	for _, tc := range []struct {
		name  string
		cur   document
		fails int
	}{
		{"one slow run", runs(&zero, 300, 90, 95, 105, 98), 0},
		{"slow median", runs(&zero, 120, 130, 90, 125, 80), 1},
		{"one allocating run", runs(&one, 90, 95, 100), 1},
	} {
		if got := compare(base, tc.cur); len(got) != tc.fails {
			t.Errorf("%s: failures %q, want %d", tc.name, got, tc.fails)
		}
	}
}
