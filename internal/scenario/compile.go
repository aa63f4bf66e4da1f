package scenario

import (
	"fmt"
	"slices"
	"strings"

	"dhtm/internal/config"
	"dhtm/internal/crashtest"
	"dhtm/internal/harness"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
)

// Compiled is the executable form of a document: exactly one of the three
// mode sections is populated. Compilation is pure and deterministic — the
// same document always expands to the same experiments, the same plan cells
// in the same order, or the same crashtest configurations — which is what
// makes a scenario file produce byte-identical tables on every run.
type Compiled struct {
	// Doc is the source document.
	Doc *Document

	// Experiment mode: the selected experiments in paper order, plus the
	// harness options (Quick, Cores, TxPerCore, Seed) the document pins.
	// Execution knobs (Parallel, Progress, Trace) come from
	// RunOptions and stay unset here.
	Experiments []harness.Experiment
	Options     harness.Options

	// Sweep mode: the expanded cell grid.
	Plan runner.Plan

	// Crashtest mode: one exploration per grid point.
	Crashtests []crashtest.Config

	// Seed is the document's base seed (0 = runner default).
	Seed int64
}

// Compile validates the document against the registry and the experiment
// catalog and expands it into executable work. Every error names the field
// at fault and, for unknown names, the valid values.
func (d *Document) Compile() (*Compiled, error) {
	c := &Compiled{Doc: d, Seed: d.Seed}
	var compile func(*Compiled) error
	switch d.Mode {
	case ModeExperiment:
		compile = d.compileExperiment
	case ModeSweep:
		compile = d.compileSweep
	case ModeCrashtest:
		compile = d.compileCrashtest
	case "":
		return nil, fmt.Errorf("scenario: mode is required (valid: %s, %s, %s)", ModeExperiment, ModeSweep, ModeCrashtest)
	default:
		return nil, fmt.Errorf("scenario: unknown mode %q (valid: %s, %s, %s)", d.Mode, ModeExperiment, ModeSweep, ModeCrashtest)
	}
	if err := d.rejectForeign(); err != nil {
		return c, err
	}
	return c, compile(c)
}

// rejectForeign returns an error naming the first field the document sets
// that its mode does not accept — silently ignoring it would run a different
// campaign than the author wrote. The override axes are sweep-only:
// experiments fix their own overrides, and crashtest machines are Table III.
func (d *Document) rejectForeign() error {
	exp, sweep, crash := []Mode{ModeExperiment}, []Mode{ModeSweep}, []Mode{ModeCrashtest}
	grids := []Mode{ModeSweep, ModeCrashtest}
	for _, f := range []struct {
		name  string
		set   bool
		modes []Mode
	}{
		{"experiments", len(d.Experiments) > 0, exp},
		{"quick", d.Quick, exp},
		{"designs", len(d.Designs) > 0 || len(d.DesignTags) > 0, grids},
		{"workloads", len(d.Workloads) > 0 || len(d.WorkloadTags) > 0, grids},
		{"torn", d.Torn, crash},
		{"points", d.Points != nil, crash},
		{"axes.ops_per_tx", len(d.Axes.OpsPerTx) > 0, grids},
		{"axes.seed", len(d.Axes.Seed) > 0, grids},
		{"axes.log_buffer_entries", len(d.Axes.LogBufferEntries) > 0, sweep},
		{"axes.bandwidth_scale", len(d.Axes.BandwidthScale) > 0, sweep},
		{"axes.conflict_policy", len(d.Axes.ConflictPolicy) > 0, sweep},
		{"axes.reorder_window", len(d.Axes.ReorderWindow) > 0, crash},
		{"mask_mode", d.MaskMode != "" || d.MaskSamples != 0, crash},
		{"differential", d.Differential, crash},
	} {
		if f.set && !slices.Contains(f.modes, d.Mode) {
			return fmt.Errorf("scenario: %q is not valid in mode %q", f.name, d.Mode)
		}
	}
	return nil
}

// single enforces that an axis carries at most one value in modes that
// cannot sweep it, returning the value or the axis' zero default.
func single[T any](d *Document, field string, vals []T) (T, error) {
	var zero T
	switch len(vals) {
	case 0:
		return zero, nil
	case 1:
		return vals[0], nil
	default:
		return zero, fmt.Errorf("scenario: axis %q cannot sweep in mode %q (got %d values)", field, d.Mode, len(vals))
	}
}

// compileExperiment resolves the experiment selection.
func (d *Document) compileExperiment(c *Compiled) error {
	if err := d.Axes.validateValues(); err != nil {
		return err
	}
	cores, err := single(d, "cores", d.Axes.Cores)
	if err != nil {
		return err
	}
	tx, err := single(d, "tx_per_core", d.Axes.TxPerCore)
	if err != nil {
		return err
	}
	// Every listed name is validated even when "all" also appears, so a
	// typo can never hide behind a broader selection.
	all := len(d.Experiments) == 0
	var selected []harness.Experiment
	for _, id := range d.Experiments {
		if id == "all" {
			all = true
			continue
		}
		e, ok := harness.Find(id)
		if !ok {
			return fmt.Errorf("scenario: unknown experiment %q (valid: all, %s)", id, strings.Join(harness.ExperimentIDs(), ", "))
		}
		selected = append(selected, e)
	}
	if all {
		selected = harness.Experiments()
	}
	c.Experiments = selected
	c.Options = harness.Options{Quick: d.Quick, Cores: cores, TxPerCore: tx, Seed: d.Seed}
	return nil
}

// compileSweep expands the design × workload × axes cross product into a
// plan. Axes nest in a fixed order (design, workload, cores, tx, ops, seed,
// logbuf, bandwidth, policy), so cell order — and therefore result order —
// is a pure function of the document. A cell's ID names its design and
// workload, then the term of every axis the document lists.
func (d *Document) compileSweep(c *Compiled) error {
	designs, err := d.designSet()
	if err != nil {
		return err
	}
	wls, err := d.workloadSet()
	if err != nil {
		return err
	}
	var policies []config.ConflictPolicy
	for _, name := range d.Axes.ConflictPolicy {
		p, err := config.ParseConflictPolicy(name)
		if err != nil {
			return fmt.Errorf("scenario: axis \"conflict_policy\": %w", err)
		}
		policies = append(policies, p)
	}
	if err := d.Axes.validateValues(); err != nil {
		return err
	}

	cells := d.grid(designs, wls)
	cells = crossTerm(cells, d.Axes.LogBufferEntries, runner.AxisLogBuf, func(c *runner.Cell, v int) { c.Overrides.LogBufferEntries = v })
	cells = crossTerm(cells, d.Axes.BandwidthScale, runner.AxisBandwidth, func(c *runner.Cell, v float64) { c.Overrides.BandwidthScale = v })
	cells = crossTerm(cells, policies, runner.AxisPolicy, func(c *runner.Cell, v config.ConflictPolicy) { c.Overrides.ConflictPolicy = v })
	plan := runner.Plan{Name: d.planName(), Cells: cells}
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	c.Plan = plan
	return nil
}

// compileCrashtest expands one exploration per (design, workload, cores,
// tx, ops, seed, reorder_window) grid point, in that nesting order.
func (d *Document) compileCrashtest(c *Compiled) error {
	designs, err := d.designSet()
	if err != nil {
		return err
	}
	for _, design := range designs {
		if !crashSafe(design) {
			return fmt.Errorf("scenario: design %q is not supported by the crash-point explorer (supported: %s)",
				design, strings.Join(crashtest.Supported(), ", "))
		}
	}
	wls, err := d.workloadSet()
	if err != nil {
		return err
	}
	if err := d.Axes.validateValues(); err != nil {
		return err
	}
	points := crashtest.Selection{}
	if d.Points != nil {
		points = *d.Points
	}
	if err := points.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	// The reorder_window axis is the one axis where 0 is meaningful (the
	// strictly-ordered baseline), so it validates here instead of through
	// validateValues. Mode and budget apply to every window point alike.
	for _, w := range d.Axes.ReorderWindow {
		if err := (crashtest.AdversaryConfig{Window: w, Mode: d.MaskMode, Samples: d.MaskSamples}).Validate(); err != nil {
			return fmt.Errorf("scenario: axis \"reorder_window\": %w", err)
		}
	}
	if len(d.Axes.ReorderWindow) == 0 {
		if err := (crashtest.AdversaryConfig{Mode: d.MaskMode, Samples: d.MaskSamples}).Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	// A replayed mask names in-flight writes, which only a reordering
	// window has.
	if points.Mask != "" && !allPositive(d.Axes.ReorderWindow) {
		return fmt.Errorf("scenario: points.mask replays in-flight writes and needs every reorder_window value > 0")
	}
	for _, cell := range d.grid(designs, wls) {
		base := cell.Seed
		if base == 0 {
			base = d.Seed
		}
		for _, window := range orDefault(d.Axes.ReorderWindow) {
			c.Crashtests = append(c.Crashtests, crashtest.Config{
				Design: cell.Design, Workload: cell.Workload,
				Cores: cell.Cores, TxPerCore: cell.TxPerCore, OpsPerTx: cell.OpsPerTx,
				Seed: base, Torn: d.Torn, Points: points,
				Adversary: crashtest.AdversaryConfig{
					Window: window, Mode: d.MaskMode, Samples: d.MaskSamples,
				},
				Differential: d.Differential,
			})
		}
	}
	return nil
}

// grid expands the axes every sweep and crashtest grid shares, outermost
// first: design, workload, cores, tx, ops, seed. Each cell's ID is its
// design and workload, then the term of every axis the document lists.
func (d *Document) grid(designs, wls []string) []runner.Cell {
	cells := cross([]runner.Cell{{}}, designs, func(c *runner.Cell, v string) { c.Design, c.ID = v, v })
	cells = cross(cells, wls, func(c *runner.Cell, v string) { c.Workload, c.ID = v, c.ID+"/"+v })
	cells = crossTerm(cells, d.Axes.Cores, runner.AxisCores, func(c *runner.Cell, v int) { c.Cores = v })
	cells = crossTerm(cells, d.Axes.TxPerCore, runner.AxisTx, func(c *runner.Cell, v int) { c.TxPerCore = v })
	cells = crossTerm(cells, d.Axes.OpsPerTx, runner.AxisOps, func(c *runner.Cell, v int) { c.OpsPerTx = v })
	return crossTerm(cells, d.Axes.Seed, runner.AxisSeed, func(c *runner.Cell, v int64) { c.Seed = v })
}

// cross nests one more axis inside cells: each cell repeats once per value,
// in order, with set applied. An absent axis is one zero value, which every
// consumer of a cell or crashtest config reads as "use the default".
func cross[T any](cells []runner.Cell, vals []T, set func(*runner.Cell, T)) []runner.Cell {
	vals = orDefault(vals)
	out := make([]runner.Cell, 0, len(cells)*len(vals))
	for _, c := range cells {
		for _, v := range vals {
			next := c
			set(&next, v)
			out = append(out, next)
		}
	}
	return out
}

// crossTerm is cross for a document axis: when the document lists it, each
// cell's ID adds the cell's term on axis a.
func crossTerm[T any](cells []runner.Cell, vals []T, a runner.Axis, set func(*runner.Cell, T)) []runner.Cell {
	if len(vals) == 0 {
		return cross(cells, vals, set)
	}
	return cross(cells, vals, func(c *runner.Cell, v T) {
		set(c, v)
		c.ID += "/" + c.Term(a)
	})
}

// orDefault returns the axis values, or a single zero value when the axis
// is absent.
func orDefault[T any](vals []T) []T {
	if len(vals) == 0 {
		return make([]T, 1)
	}
	return vals
}

// planName labels the compiled plan.
func (d *Document) planName() string {
	if d.Name != "" {
		return d.Name
	}
	return "scenario"
}

// designSet resolves explicit names plus tag selections into a
// deduplicated design list in registry (paper) order. An empty resolution
// is an error: a scenario that selects nothing is a typo, not a no-op.
func (d *Document) designSet() ([]string, error) {
	return resolveSet("design", d.Designs, d.DesignTags,
		registry.CheckDesign, registry.DesignNamesByTag, registry.DesignNames())
}

// workloadSet resolves the workload selection the same way.
func (d *Document) workloadSet() ([]string, error) {
	return resolveSet("workload", d.Workloads, d.WorkloadTags,
		registry.CheckWorkload, registry.WorkloadNamesByTag, registry.WorkloadNames())
}

// resolveSet validates names, expands tags, and returns the union ordered
// by the registry's canonical order.
func resolveSet(kind string, names, tags []string, check func(string) error,
	byTag func(string) []string, ordered []string) ([]string, error) {
	selected := make(map[string]bool)
	for _, n := range names {
		if err := check(n); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		selected[n] = true
	}
	for _, tag := range tags {
		matches := byTag(tag)
		if len(matches) == 0 {
			return nil, fmt.Errorf("scenario: %s tag %q matches nothing", kind, tag)
		}
		for _, n := range matches {
			selected[n] = true
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("scenario: the document selects no %ss (empty grid)", kind)
	}
	var out []string
	for _, n := range ordered {
		if selected[n] {
			out = append(out, n)
		}
	}
	return out, nil
}

// allPositive reports whether vals is non-empty and every value is > 0.
func allPositive(vals []int) bool {
	for _, v := range vals {
		if v <= 0 {
			return false
		}
	}
	return len(vals) > 0
}

// validateValues rejects axis values that cannot mean anything: zero or
// negative counts, core counts past config.MaxCores, non-positive bandwidth,
// and a zero explicit seed (which would silently fall back to derivation).
func (a Axes) validateValues() error {
	checkInts := func(field string, vals []int) error {
		for _, v := range vals {
			if v <= 0 {
				return fmt.Errorf("scenario: axis %q value %d must be positive", field, v)
			}
		}
		return nil
	}
	if err := checkInts("cores", a.Cores); err != nil {
		return err
	}
	for _, v := range a.Cores {
		if v > config.MaxCores {
			return fmt.Errorf("scenario: axis \"cores\" value %d exceeds the limit of %d cores", v, config.MaxCores)
		}
	}
	if err := checkInts("tx_per_core", a.TxPerCore); err != nil {
		return err
	}
	if err := checkInts("ops_per_tx", a.OpsPerTx); err != nil {
		return err
	}
	if err := checkInts("log_buffer_entries", a.LogBufferEntries); err != nil {
		return err
	}
	for _, v := range a.BandwidthScale {
		if v <= 0 {
			return fmt.Errorf("scenario: axis \"bandwidth_scale\" value %g must be positive", v)
		}
	}
	for _, v := range a.Seed {
		if v == 0 {
			return fmt.Errorf("scenario: axis \"seed\" value 0 is reserved for derived seeding; omit the axis instead")
		}
	}
	return nil
}

// crashSafe reports whether the registry marks the design crash-safe.
func crashSafe(name string) bool {
	d, ok := registry.LookupDesign(name)
	return ok && d.CrashSafe
}
