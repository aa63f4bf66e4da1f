// Package scenario defines the declarative campaign document of the
// reproduction: one versioned JSON format that describes *what to run* —
// an experiment selection, a design × workload × machine-knob sweep grid,
// or a crash-point exploration — independently of *where it runs*. The
// same file compiles to the same work whether it is handed to a CLI
// (dhtm-bench -scenario) or POSTed to dhtm-serve's /api/v1/jobs, and every
// surface executes it through the one Run and renders it through the one
// Result.Render, so a campaign authored on a laptop runs identically against
// the campaign service, cell seeds and rendered tables included. The
// dhtm-bench and dhtm-crashtest flag grids are documents too, built in
// process.
//
// Every name in a document (designs, workloads, tags, experiments) is
// validated against internal/registry and internal/harness at compile time,
// so a queued scenario can only fail by simulating, never by parsing. The
// format is pinned by FormatVersion exactly like the result store's record
// format: a reader never guesses at a document written by a different
// schema.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dhtm/internal/crashtest"
)

// FormatVersion identifies the scenario document schema. Parse rejects any
// other version, so version skew surfaces as a clear error instead of a
// silently misread campaign. Bump it whenever a field changes meaning or
// shape, and regenerate the golden file in testdata/.
const FormatVersion = 1

// Mode selects what a scenario runs.
type Mode string

const (
	// ModeExperiment runs one or more of the paper's named experiments
	// (harness.Experiments) and renders their tables.
	ModeExperiment Mode = "experiment"
	// ModeSweep expands a design × workload × axes grid into a runner.Plan.
	ModeSweep Mode = "sweep"
	// ModeCrashtest expands a grid of crash-point explorations.
	ModeCrashtest Mode = "crashtest"
)

// Axes are the sweep dimensions of a scenario grid. Each listed value
// becomes one grid point; an absent axis contributes a single implicit
// "default" point. Which axes are legal depends on the mode — see Compile.
type Axes struct {
	// Cores sweeps the simulated core count.
	Cores []int `json:"cores,omitempty"`
	// TxPerCore sweeps the number of transactions each core issues.
	TxPerCore []int `json:"tx_per_core,omitempty"`
	// OpsPerTx sweeps the per-transaction operation count (the write-set
	// footprint knob of Table IV).
	OpsPerTx []int `json:"ops_per_tx,omitempty"`
	// Seed sweeps explicit workload seeds. Without it, cell seeds derive
	// from the document's base seed and each cell's identity, exactly as
	// experiment grids derive theirs.
	Seed []int64 `json:"seed,omitempty"`
	// LogBufferEntries sweeps DHTM's coalescing log-buffer size (the
	// Figure 6 axis).
	LogBufferEntries []int `json:"log_buffer_entries,omitempty"`
	// BandwidthScale sweeps the memory-bandwidth multiplier (the Table VII
	// axis).
	BandwidthScale []float64 `json:"bandwidth_scale,omitempty"`
	// ConflictPolicy sweeps the conflict-resolution policy
	// ("first-writer-wins" or "requester-wins", the ablation axis).
	ConflictPolicy []string `json:"conflict_policy,omitempty"`
	// ReorderWindow sweeps the persist-queue reordering window of the crash
	// adversary (crashtest mode only). 0 is a legal value: it is the
	// strictly-ordered baseline point of a robustness sweep.
	ReorderWindow []int `json:"reorder_window,omitempty"`
}

// Document is one declarative campaign. The zero value is not runnable;
// documents come from Parse (which enforces the format version) and turn
// into executable work through Compile.
type Document struct {
	// FormatVersion pins the schema; Parse rejects any value other than
	// FormatVersion.
	FormatVersion int `json:"format_version"`
	// Name identifies the campaign in plans, tables and progress reports.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation carried with the file.
	Description string `json:"description,omitempty"`
	// Mode selects experiment, sweep or crashtest.
	Mode Mode `json:"mode"`

	// Experiments selects the paper experiments to run (experiment mode;
	// empty or ["all"] means every experiment, in paper order).
	Experiments []string `json:"experiments,omitempty"`
	// Quick shrinks experiment transaction counts (experiment mode).
	Quick bool `json:"quick,omitempty"`

	// Designs and DesignTags select the design set (sweep and crashtest
	// modes): explicit names plus every design carrying one of the tags,
	// deduplicated into paper order.
	Designs    []string `json:"designs,omitempty"`
	DesignTags []string `json:"design_tags,omitempty"`
	// Workloads and WorkloadTags select the workload set the same way.
	Workloads    []string `json:"workloads,omitempty"`
	WorkloadTags []string `json:"workload_tags,omitempty"`

	// Axes sweeps the machine and workload knobs across the grid.
	Axes Axes `json:"axes,omitempty"`

	// Torn and Points configure crashtest mode (crashtest.Config).
	Torn   bool                 `json:"torn,omitempty"`
	Points *crashtest.Selection `json:"points,omitempty"`
	// MaskMode and MaskSamples configure the reordering adversary's subset
	// enumeration (crashtest mode with a reorder_window axis): "auto"/"",
	// "exhaustive" or "sample", and the per-point sample budget.
	MaskMode    string `json:"mask_mode,omitempty"`
	MaskSamples int    `json:"mask_samples,omitempty"`
	// Differential enables the cross-design differential oracle (crashtest
	// mode): every recovered image must match a serial re-execution of its
	// committed transactions, run seeds derive design-independently, and the
	// runner cross-checks recovered-heap digests across the design set.
	Differential bool `json:"differential,omitempty"`

	// Seed is the base seed that derived cell and run seeds mix from
	// (0 = the runner default, 42).
	Seed int64 `json:"seed,omitempty"`
	// Store names a result-store directory for CLI runs; the campaign
	// service always uses its own store and ignores this field.
	Store string `json:"store,omitempty"`
}

// Parse decodes one scenario document strictly: unknown fields, trailing
// data and any format version other than FormatVersion are errors, never
// silently ignored — a typo'd axis name must not quietly shrink a grid. The
// version is checked first, so a document of another schema (or a body
// that is no scenario at all) is reported as version skew rather than as
// whichever of its fields this schema happens not to know.
func Parse(data []byte) (*Document, error) {
	var probe struct {
		FormatVersion int `json:"format_version"`
	}
	if json.Unmarshal(data, &probe) == nil && probe.FormatVersion != FormatVersion {
		return nil, versionError(probe.FormatVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Document
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("scenario: trailing data after the document")
	}
	if d.FormatVersion != FormatVersion {
		return nil, versionError(d.FormatVersion)
	}
	return &d, nil
}

// versionError reports a document of an unsupported schema version.
func versionError(v int) error {
	return fmt.Errorf("scenario: format_version %d is not supported (this build reads version %d)", v, FormatVersion)
}

// Load reads and parses a scenario file.
func Load(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	d, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// FlagConflict returns the first of the named command-line flags that was
// explicitly set (per flag.Visit over the default flag set), or "".
// dhtm-bench uses it to reject flags a scenario file pins, so a flag is
// never silently ignored.
func FlagConflict(names ...string) string {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	conflict := ""
	flag.Visit(func(f *flag.Flag) {
		if set[f.Name] && conflict == "" {
			conflict = f.Name
		}
	})
	return conflict
}

// FlagAxis turns an integer CLI flag into a single-value axis, absent when
// the flag keeps its 0 default. The CLIs build their flag grids as
// documents with it, so a flag value is validated exactly like the same
// value in a scenario file.
func FlagAxis(v int) []int {
	if v == 0 {
		return nil
	}
	return []int{v}
}
