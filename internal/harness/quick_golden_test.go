package harness

import (
	"bytes"
	"context"
	"testing"
)

// TestQuickCampaignTablesGolden renders every experiment of the quick
// campaign at seed 1 and compares the text with a golden file. Unlike
// TestFig5CellGolden (one DHTM cell that never falls back), the quick
// campaign drives every HTM design through its software fallback, so this is
// the byte-identical guard for the shared HTM runtime's retry loop, abort
// sweep and fallback path. Regenerate with
// `go test -run QuickCampaignTablesGolden -update ./internal/harness`.
func TestQuickCampaignTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick campaign")
	}
	o := Options{Quick: true, Seed: 1}
	var buf bytes.Buffer
	for _, e := range Experiments() {
		tab, err := e.Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tab.Render(&buf)
	}
	checkGolden(t, "quick_tables.golden.txt", buf.Bytes())
}
