package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around its own calls into the simulator. Times are nanoseconds since the
// repetition's start; all spans of a repetition share its trace id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the repetition's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer records nothing, so untraced
// repetitions pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records a span whose bounds are already known.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// layerOfSpan is the layer a span's name belongs to: the part before the
// first dot ("runner.cell" → "runner"); the root span is the benchmark's.
func layerOfSpan(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time over the spans: a span's
// duration minus the part of it its children cover. Children of one parent
// may overlap (parallel cells), so coverage is their union.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered, reach int64
		reach = s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[layerOfSpan(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans of every traced repetition as one
// Chrome trace-event file (chrome://tracing, Perfetto): one process per
// repetition, whose index is the trace id. Parallel cells get lanes of
// their own so complete events nest properly within a thread.
func writeChromeTrace(path string, reps []*repResult) error {
	var events []chromeEvent
	for i, r := range reps {
		lane := spanLanes(r.Spans)
		for _, s := range r.Spans {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: layerOfSpan(s.Name), Ph: "X",
				TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: i, TID: lane[s.ID],
				Args: map[string]any{"trace_id": i, "span_id": s.ID, "parent": s.Parent},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanLanes assigns each cell span the lowest lane free at its start and
// every other span its parent's lane; lane 0 holds the serial spine.
func spanLanes(spans []span) []int {
	lane := make([]int, len(spans))
	var cells []int
	for _, s := range spans {
		if s.Name == "runner.cell" {
			cells = append(cells, s.ID)
		}
	}
	sort.Slice(cells, func(i, j int) bool { return spans[cells[i]].Start < spans[cells[j]].Start })
	var free []int64 // per lane, when its last cell ends
	for _, id := range cells {
		l := 0
		for l < len(free) && free[l] > spans[id].Start {
			l++
		}
		if l == len(free) {
			free = append(free, 0)
		}
		free[l] = spans[id].End
		lane[id] = l + 1
	}
	// Parents are recorded before their children, so one pass in id order
	// sees every parent's lane first.
	for _, s := range spans {
		if s.Parent >= 0 && lane[s.ID] == 0 {
			lane[s.ID] = lane[s.Parent]
		}
	}
	return lane
}
