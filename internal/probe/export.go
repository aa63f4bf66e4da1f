package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// FormatVersion is the version stamp of the compact timeline JSON. Bump it
// whenever the field layout changes and regenerate the harness golden files.
const FormatVersion = 1

// Signal is one exported time series; Values is row-aligned with the parent
// timeline's Cycles column.
type Signal struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Source string    `json:"source"`
	Kind   string    `json:"kind"`
	Values []float64 `json:"values"`
}

// Timeline is the compact versioned export of one cell's recording: a shared
// cycle-stamp column plus one value column per signal.
type Timeline struct {
	FormatVersion int    `json:"format_version"`
	Cell          string `json:"cell,omitempty"`
	Design        string `json:"design"`
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	// Interval is the configured sampling period; Stride is the effective
	// period after any in-place decimations (Stride == Interval when the run
	// fit in the row budget).
	Interval uint64   `json:"interval"`
	Stride   uint64   `json:"stride"`
	Cycles   []uint64 `json:"cycles"`
	Signals  []Signal `json:"signals"`
}

// Timeline snapshots the recording into its export form. The returned value
// copies every column, so it stays valid independent of the recorder.
func (r *Recorder) Timeline() *Timeline {
	interval := r.cfg.Interval
	if interval == 0 {
		interval = DefaultInterval
	}
	tl := &Timeline{
		FormatVersion: FormatVersion,
		Cell:          r.label,
		Design:        r.design,
		Workload:      r.workload,
		Seed:          r.seed,
		Interval:      interval,
		Stride:        r.interval,
		Cycles:        append([]uint64(nil), r.cycles...),
		Signals:       make([]Signal, len(r.sigs)),
	}
	for i := range r.sigs {
		s := &r.sigs[i]
		tl.Signals[i] = Signal{
			Name:   s.name,
			Unit:   s.unit,
			Source: s.source,
			Kind:   s.kind.String(),
			Values: append([]float64(nil), s.values...),
		}
	}
	return tl
}

// chromeEvent is one entry of the Chrome trace-event format. Only the
// fields the counter ("C") and metadata ("M") phases use are present;
// encoding/json emits struct fields in declaration order, so the output is
// deterministic byte-for-byte.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the trace-event JSON object form (preferred over the bare
// array because it carries the time-unit hint and survives truncation
// detection in viewers).
type chromeDoc struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// WriteChromeTraceFile writes the timelines as one Chrome trace-event file
// at path (see WriteChromeTrace) — the -trace output of every CLI.
func WriteChromeTraceFile(path string, timelines []*Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, timelines); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteChromeTrace writes the timelines as one Chrome trace-event /
// Perfetto-compatible JSON document. Each timeline becomes a "process"
// (named by its cell label) whose signals are counter tracks; one simulated
// cycle is mapped to one trace microsecond. Counter-kind signals are emitted
// as per-row deltas so the track shows activity per interval rather than an
// ever-growing total; gauges are emitted as-is.
func WriteChromeTrace(w io.Writer, timelines []*Timeline) error {
	events := make([]chromeEvent, 0, 64)
	for pid, tl := range timelines {
		if tl == nil {
			continue
		}
		name := tl.Cell
		if name == "" {
			name = fmt.Sprintf("%s/%s", tl.Design, tl.Workload)
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
		for _, sig := range tl.Signals {
			prev := 0.0
			for row, cycle := range tl.Cycles {
				v := sig.Values[row]
				if sig.Kind == Counter.String() {
					v, prev = v-prev, v
				}
				events = append(events, chromeEvent{
					Name: sig.Name, Ph: "C", TS: cycle, PID: pid,
					Args: map[string]any{"value": v},
				})
			}
		}
	}
	doc := chromeDoc{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"clock": "simulated cycles (1 cycle rendered as 1us)",
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
