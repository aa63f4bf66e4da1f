package core

import (
	"fmt"

	"dhtm/internal/probe"
)

// RegisterProbes contributes DHTM's design-specific signals to a cell
// recorder: the coalescing log-buffer occupancy (whose coalescing window is
// exactly what Figure 6 sweeps) system-wide and per core, and the write-set
// lines currently overflowed to sticky LLC state.
func (d *DHTM) RegisterProbes(rec *probe.Recorder) {
	rec.Gauge("dhtm/logbuf_entries", "entries", "internal/core", func(uint64) float64 {
		t := 0
		for _, cs := range d.cores {
			t += cs.buf.Len()
		}
		return float64(t)
	})
	rec.Gauge("dhtm/overflowed_lines", "lines", "internal/core", func(uint64) float64 {
		t := 0
		for _, cs := range d.cores {
			t += cs.ctx.Overflowed.Len()
		}
		return float64(t)
	})
	for i := range d.cores {
		cs := d.cores[i]
		rec.Gauge(fmt.Sprintf("dhtm/logbuf_entries/c%d", i), "entries", "internal/core",
			func(uint64) float64 { return float64(cs.buf.Len()) })
	}
}
