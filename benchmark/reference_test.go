package main

import (
	"context"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dhtm/internal/harness"
)

// TestReferencesMatchNotes keeps reference.go's copy of the paper numbers
// from drifting away from the harness table notes: each quote must still
// appear in its table's notes with the number at its position, and its
// (row, column) must still exist in the rendered table.
func TestReferencesMatchNotes(t *testing.T) {
	tables := make(map[string]*harness.Table)
	o := harness.Options{Cores: 2, TxPerCore: 1}
	for _, e := range harness.Experiments() {
		tb, err := e.Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		tables[tb.ID] = tb
	}
	if len(references) != 36 {
		t.Errorf("%d references, want the 36 paper numbers", len(references))
	}
	number := regexp.MustCompile(`\d+(?:\.\d+)?`)
	for _, ref := range references {
		tb := tables[ref.table]
		if tb == nil {
			t.Errorf("%s: no such table", ref.table)
			continue
		}
		if !strings.Contains(strings.Join(tb.Notes, "\n"), ref.quote) {
			t.Errorf("%s notes no longer quote %q", ref.table, ref.quote)
			continue
		}
		nums := number.FindAllString(ref.quote, -1)
		if ref.nth >= len(nums) {
			t.Errorf("%q has no number %d", ref.quote, ref.nth)
			continue
		}
		quoted, err := strconv.ParseFloat(nums[ref.nth], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ref.per != "" {
			quoted = 1 + quoted/100
		}
		if math.Abs(quoted-ref.paper) > 1e-9 {
			t.Errorf("%s (%s, %s): reference.go has %g, the note %q says %g", ref.table, ref.row, ref.col, ref.paper, ref.quote, quoted)
		}
		if _, err := ref.reproduced(tables); err != nil {
			t.Error(err)
		}
	}
}
