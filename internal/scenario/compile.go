package scenario

import (
	"fmt"
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
// makes a scenario file produce byte-identical tables on a CLI and on the
// campaign service.
type Compiled struct {
	// Doc is the source document.
	Doc *Document

	// Experiment mode: the selected experiments in paper order, plus the
	// harness options (Quick, Cores, TxPerCore, Seed) the document pins.
	// Execution knobs (Parallel, Progress, Store, Trace) come from
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
	switch d.Mode {
	case ModeExperiment:
		return c, d.compileExperiment(c)
	case ModeSweep:
		return c, d.compileSweep(c)
	case ModeCrashtest:
		return c, d.compileCrashtest(c)
	case "":
		return nil, fmt.Errorf("scenario: mode is required (valid: %s, %s, %s)", ModeExperiment, ModeSweep, ModeCrashtest)
	default:
		return nil, fmt.Errorf("scenario: unknown mode %q (valid: %s, %s, %s)", d.Mode, ModeExperiment, ModeSweep, ModeCrashtest)
	}
}

// reject returns an error naming a field that is meaningless in the
// document's mode — silently ignoring it would run a different campaign
// than the author wrote.
func (d *Document) reject(field string) error {
	return fmt.Errorf("scenario: %q is not valid in mode %q", field, d.Mode)
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
	switch {
	case len(d.Designs) > 0 || len(d.DesignTags) > 0:
		return d.reject("designs")
	case len(d.Workloads) > 0 || len(d.WorkloadTags) > 0:
		return d.reject("workloads")
	case d.Torn:
		return d.reject("torn")
	case d.Points != nil:
		return d.reject("points")
	case len(d.Axes.OpsPerTx) > 0:
		return d.reject("axes.ops_per_tx")
	case len(d.Axes.Seed) > 0:
		return d.reject("axes.seed")
	case len(d.Axes.LogBufferEntries) > 0:
		return d.reject("axes.log_buffer_entries")
	case len(d.Axes.BandwidthScale) > 0:
		return d.reject("axes.bandwidth_scale")
	case len(d.Axes.ConflictPolicy) > 0:
		return d.reject("axes.conflict_policy")
	case len(d.Axes.ReorderWindow) > 0:
		return d.reject("axes.reorder_window")
	case d.MaskMode != "" || d.MaskSamples != 0:
		return d.reject("mask_mode")
	case d.Differential:
		return d.reject("differential")
	}
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
// plan. Axis loops nest in a fixed order (design, workload, cores, tx, ops,
// seed, logbuf, bandwidth, policy), so cell order — and therefore result
// order — is a pure function of the document.
func (d *Document) compileSweep(c *Compiled) error {
	switch {
	case len(d.Experiments) > 0:
		return d.reject("experiments")
	case d.Quick:
		return d.reject("quick")
	case d.Torn:
		return d.reject("torn")
	case d.Points != nil:
		return d.reject("points")
	case len(d.Axes.ReorderWindow) > 0:
		return d.reject("axes.reorder_window")
	case d.MaskMode != "" || d.MaskSamples != 0:
		return d.reject("mask_mode")
	case d.Differential:
		return d.reject("differential")
	}
	designs, err := d.designSet()
	if err != nil {
		return err
	}
	wls, err := d.workloadSet()
	if err != nil {
		return err
	}
	policies, err := parsePolicies(d.Axes.ConflictPolicy)
	if err != nil {
		return err
	}
	if err := d.Axes.validateValues(); err != nil {
		return err
	}

	plan := runner.Plan{Name: d.planName()}
	for _, design := range designs {
		for _, wl := range wls {
			for _, cores := range orDefault(d.Axes.Cores) {
				for _, tx := range orDefault(d.Axes.TxPerCore) {
					for _, ops := range orDefault(d.Axes.OpsPerTx) {
						for _, seed := range orDefault(d.Axes.Seed) {
							for _, logbuf := range orDefault(d.Axes.LogBufferEntries) {
								for _, bw := range orDefault(d.Axes.BandwidthScale) {
									for _, policy := range orDefaultPolicy(policies) {
										cell := runner.Cell{
											Design: design, Workload: wl,
											Cores: cores, TxPerCore: tx, OpsPerTx: ops, Seed: seed,
											Overrides: runner.Overrides{
												LogBufferEntries: logbuf,
												BandwidthScale:   bw,
											},
										}
										var parts []string
										addPart := func(set bool, format string, v any) {
											if set {
												parts = append(parts, fmt.Sprintf(format, v))
											}
										}
										addPart(len(d.Axes.Cores) > 0, "cores=%d", cores)
										addPart(len(d.Axes.TxPerCore) > 0, "tx=%d", tx)
										addPart(len(d.Axes.OpsPerTx) > 0, "ops=%d", ops)
										addPart(len(d.Axes.Seed) > 0, "seed=%d", seed)
										addPart(len(d.Axes.LogBufferEntries) > 0, "logbuf=%d", logbuf)
										addPart(len(d.Axes.BandwidthScale) > 0, "bw=%g", bw)
										if policy.set {
											cell.Overrides.ConflictPolicy = policy.value
											cell.Overrides.SetConflictPolicy = true
											parts = append(parts, "policy="+policy.value.String())
										}
										cell.ID = design + "/" + wl
										if len(parts) > 0 {
											cell.ID += "/" + strings.Join(parts, "/")
										}
										plan.Add(cell)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	c.Plan = plan
	return nil
}

// compileCrashtest expands one exploration per (design, workload, cores,
// tx, ops, seed, reorder_window) grid point.
func (d *Document) compileCrashtest(c *Compiled) error {
	switch {
	case len(d.Experiments) > 0:
		return d.reject("experiments")
	case d.Quick:
		return d.reject("quick")
	case len(d.Axes.LogBufferEntries) > 0:
		return d.reject("axes.log_buffer_entries")
	case len(d.Axes.BandwidthScale) > 0:
		return d.reject("axes.bandwidth_scale")
	case len(d.Axes.ConflictPolicy) > 0:
		return d.reject("axes.conflict_policy")
	}
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
	for _, design := range designs {
		for _, wl := range wls {
			for _, cores := range orDefault(d.Axes.Cores) {
				for _, tx := range orDefault(d.Axes.TxPerCore) {
					for _, ops := range orDefault(d.Axes.OpsPerTx) {
						for _, seed := range orDefault(d.Axes.Seed) {
							for _, window := range orDefault(d.Axes.ReorderWindow) {
								base := seed
								if base == 0 {
									base = d.Seed
								}
								c.Crashtests = append(c.Crashtests, crashtest.Config{
									Design: design, Workload: wl,
									Cores: cores, TxPerCore: tx, OpsPerTx: ops,
									Seed: base, Torn: d.Torn, Points: points,
									Adversary: crashtest.AdversaryConfig{
										Window: window, Mode: d.MaskMode, Samples: d.MaskSamples,
									},
									Differential: d.Differential,
								})
							}
						}
					}
				}
			}
		}
	}
	return nil
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

// orDefault returns the axis values, or a single zero value when the axis
// is absent (zero means "use the configured default" everywhere a cell or
// crashtest config is consumed).
func orDefault[T any](vals []T) []T {
	if len(vals) == 0 {
		return make([]T, 1)
	}
	return vals
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

// policyChoice is one conflict-policy grid point; unset means "keep the
// machine default and contribute nothing to the cell identity".
type policyChoice struct {
	set   bool
	value config.ConflictPolicy
}

// parsePolicies maps the document's policy names onto config values.
func parsePolicies(names []string) ([]policyChoice, error) {
	var out []policyChoice
	for _, n := range names {
		switch n {
		case config.FirstWriterWins.String():
			out = append(out, policyChoice{set: true, value: config.FirstWriterWins})
		case config.RequesterWins.String():
			out = append(out, policyChoice{set: true, value: config.RequesterWins})
		default:
			return nil, fmt.Errorf("scenario: unknown conflict policy %q (valid: %s, %s)",
				n, config.FirstWriterWins, config.RequesterWins)
		}
	}
	return out, nil
}

// orDefaultPolicy mirrors orDefault for the policy axis.
func orDefaultPolicy(vals []policyChoice) []policyChoice {
	if len(vals) == 0 {
		return []policyChoice{{}}
	}
	return vals
}

// crashSafe reports whether the registry marks the design crash-safe.
func crashSafe(name string) bool {
	d, ok := registry.LookupDesign(name)
	return ok && d.CrashSafe
}
