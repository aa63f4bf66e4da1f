package baselines

import "dhtm/internal/probe"

// RegisterProbes contributes the shared HTM-baseline signal to a cell
// recorder: write-set lines currently overflowed to the LLC (only
// LogTM-ATOM ever spills; for the RTM-like baselines the series pins at
// zero, which is itself the interesting comparison). Designs embedding
// htmBase — NP, sdTM, LogTM-ATOM — inherit this and thereby implement
// probe.Registrar.
func (b *htmBase) RegisterProbes(rec *probe.Recorder) {
	rec.Gauge("htm/overflowed_lines", "lines", "internal/baselines", func(uint64) float64 {
		t := 0
		for _, c := range b.Ctxs {
			t += c.Overflowed.Len()
		}
		return float64(t)
	})
}
