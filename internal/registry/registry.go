// Package registry is the single source of truth for the catalog of
// evaluated designs (§V of the paper) and benchmark workloads (Table IV).
// Every entry is self-describing — name, one-line description, tags and a
// factory — and every layer of the repo resolves names against this one
// table: the public dhtm package (NewSystem), the harness (NewRuntime and
// the experiment grids), the scenario compiler, the CLIs' flag validation
// and error listings, and dhtm.Catalog. Adding a design or
// workload here is the only step required to make it runnable, listable and
// validatable everywhere at once; nothing else in the tree enumerates the
// sets by hand.
package registry

import (
	"fmt"
	"strings"

	"dhtm/internal/baselines"
	"dhtm/internal/core"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// Canonical design names (§V). The public dhtm package and the harness both
// re-export these; the registry owns them.
const (
	DesignSO          = "SO"
	DesignSdTM        = "sdTM"
	DesignATOM        = "ATOM"
	DesignLogTMATOM   = "LogTM-ATOM"
	DesignNP          = "NP"
	DesignDHTM        = "DHTM"
	DesignDHTMInstant = "DHTM-instant"
	DesignDHTML1      = "DHTM-L1"
	DesignDHTMNoBuf   = "DHTM-nobuf"
)

// Design tags. A design carries one visibility tag (how atomic visibility is
// provided), one durability tag, and optional role tags.
const (
	// TagHTM marks hardware-transactional-memory concurrency control;
	// TagLock marks lock-based concurrency control.
	TagHTM  = "htm"
	TagLock = "lock"
	// TagHWPersist marks hardware logging (cache-controller WAL records);
	// TagSWPersist marks Mnemosyne-style software logging; TagVolatile marks
	// no durability at all.
	TagHWPersist = "hw-persist"
	TagSWPersist = "sw-persist"
	TagVolatile  = "volatile"
	// TagBaseline marks the paper's comparison designs; TagAblation marks
	// DHTM variants that exist to isolate one design choice.
	TagBaseline = "baseline"
	TagAblation = "ablation"
)

// Workload tags.
const (
	// TagMicro marks the six persistent-data-structure micro-benchmarks;
	// TagOLTP marks the two online-transaction-processing workloads.
	TagMicro = "micro"
	TagOLTP  = "oltp"
)

// Design is one registered transactional-memory design: everything a caller
// needs to instantiate it, list it, or decide whether a subsystem supports
// it.
type Design struct {
	// Name is the identifier accepted everywhere a design is named (flags,
	// cells, scenario documents, the public dhtm.Config).
	Name string
	// Description is a one-line summary of the design point.
	Description string
	// Tags classify the design (visibility, durability, role).
	Tags []string
	// CrashSafe marks designs whose durability protocol recovery.Recover
	// replays at arbitrary crash points — the set the crash-point explorer
	// accepts: DHTM and its ablations (redo logging) and ATOM and
	// LogTM-ATOM (one undo-logging sequence). The others are excluded by
	// construction: SO and sdTM defer in-place persistence past the
	// simulated window, and NP is volatile.
	CrashSafe bool
	// New instantiates the design's runtime over a fresh environment.
	New func(env *txn.Env) txn.Runtime
}

// Workload is one registered benchmark.
type Workload struct {
	// Name is the identifier accepted everywhere a workload is named.
	Name string
	// Description is a one-line summary of what the workload exercises.
	Description string
	// Tags classify the workload (micro or oltp, plus structure hints).
	Tags []string
	// OLTP reports whether the workload uses the OLTP transaction budget
	// (larger transactions, fewer of them per core).
	OLTP bool
	// New builds a fresh instance of the workload.
	New func() workloads.Workload
}

// designs lists every runnable design in the order of the paper (§V). This
// table is the design catalog; there is deliberately no other enumeration of
// the set anywhere in the tree.
var designs = []Design{
	{
		Name:        DesignSO,
		Description: "Software-only baseline: locks for visibility, Mnemosyne-style software redo log flushed synchronously for durability.",
		Tags:        []string{TagLock, TagSWPersist, TagBaseline},
		New:         func(env *txn.Env) txn.Runtime { return baselines.NewSO(env) },
	},
	{
		Name:        DesignSdTM,
		Description: "Software durability + HTM (PHyTM-style): RTM-like HTM with a software redo log written inside the transaction, doubling its write set.",
		Tags:        []string{TagHTM, TagSWPersist, TagBaseline},
		New:         func(env *txn.Env) txn.Runtime { return baselines.NewSdTM(env) },
	},
	{
		Name:        DesignATOM,
		Description: "State-of-the-art hardware durability: locks for visibility, hardware undo logging off the critical path, in-place persists at commit.",
		Tags:        []string{TagLock, TagHWPersist, TagBaseline},
		CrashSafe:   true,
		New:         func(env *txn.Env) txn.Runtime { return baselines.NewATOM(env) },
	},
	{
		Name:        DesignLogTMATOM,
		Description: "LogTM-like HTM (eager versioning, L1 overflow) combined with ATOM's hardware undo logging; persists the write set in the commit path.",
		Tags:        []string{TagHTM, TagHWPersist, TagBaseline},
		CrashSafe:   true,
		New:         func(env *txn.Env) txn.Runtime { return baselines.NewLogTMATOM(env) },
	},
	{
		Name:        DesignNP,
		Description: "Non-persistent baseline: volatile RTM-like HTM with no logging, used to bound the cost of atomic durability (§VI.D).",
		Tags:        []string{TagHTM, TagVolatile, TagBaseline},
		New:         func(env *txn.Env) txn.Runtime { return baselines.NewNP(env) },
	},
	{
		Name:        DesignDHTM,
		Description: "The paper's contribution: RTM-like HTM with hardware redo logging streamed through a coalescing log buffer, LLC overflow supported.",
		Tags:        []string{TagHTM, TagHWPersist},
		CrashSafe:   true,
		New:         func(env *txn.Env) txn.Runtime { return core.New(env, core.Options{}) },
	},
	{
		Name:        DesignDHTMInstant,
		Description: "Idealised DHTM whose log and data writes take zero time (the §VI.D durability-cost ablation).",
		Tags:        []string{TagHTM, TagHWPersist, TagAblation},
		New:         func(env *txn.Env) txn.Runtime { return core.New(env, core.Options{InstantPersist: true}) },
	},
	{
		Name:        DesignDHTML1,
		Description: "DHTM without the LLC-overflow extension: write-set eviction from the L1 aborts the transaction (the PTM-like configuration).",
		Tags:        []string{TagHTM, TagHWPersist, TagAblation},
		CrashSafe:   true,
		New:         func(env *txn.Env) txn.Runtime { return core.New(env, core.Options{DisableOverflow: true}) },
	},
	{
		Name:        DesignDHTMNoBuf,
		Description: "DHTM without the coalescing log buffer: one redo record per store (Figure 2b's strawman).",
		Tags:        []string{TagHTM, TagHWPersist, TagAblation},
		CrashSafe:   true,
		New:         func(env *txn.Env) txn.Runtime { return core.New(env, core.Options{DisableLogBuffer: true}) },
	},
}

// workloadTable lists every benchmark in Table IV order (OLTP first, then
// the micro-benchmarks in the order the paper plots them).
var workloadTable = []Workload{
	{
		Name:        "tpcc",
		Description: "TPC-C new-order transactions; the largest write sets of the evaluation (~590 lines, exceeding the L1).",
		Tags:        []string{TagOLTP},
		OLTP:        true,
		New:         func() workloads.Workload { return workloads.NewTPCC() },
	},
	{
		Name:        "tatp",
		Description: "TATP update transactions over a subscriber database (~167-line write sets).",
		Tags:        []string{TagOLTP},
		OLTP:        true,
		New:         func() workloads.Workload { return workloads.NewTATP() },
	},
	{
		Name:        "queue",
		Description: "Concurrent persistent queue; enqueue/dequeue contention makes it the abort-rate worst case.",
		Tags:        []string{TagMicro},
		New:         func() workloads.Workload { return workloads.NewQueue() },
	},
	{
		Name:        "hash",
		Description: "Persistent open-addressing hash table with batched inserts and deletes.",
		Tags:        []string{TagMicro},
		New:         func() workloads.Workload { return workloads.NewHash() },
	},
	{
		Name:        "sdg",
		Description: "Scalable-data-generation graph updates (adjacency inserts).",
		Tags:        []string{TagMicro},
		New:         func() workloads.Workload { return workloads.NewSDG() },
	},
	{
		Name:        "sps",
		Description: "Random swaps over a persistent array (scattered single-line writes).",
		Tags:        []string{TagMicro},
		New:         func() workloads.Workload { return workloads.NewSPS() },
	},
	{
		Name:        "btree",
		Description: "Persistent B-tree inserts with node splits.",
		Tags:        []string{TagMicro},
		New:         func() workloads.Workload { return workloads.NewBTree() },
	},
	{
		Name:        "rbtree",
		Description: "Persistent red-black tree inserts with rebalancing rotations.",
		Tags:        []string{TagMicro},
		New:         func() workloads.Workload { return workloads.NewRBTree() },
	},
}

// init rejects a malformed catalog at startup rather than at first lookup —
// a duplicate or empty name would make every downstream validation lie.
func init() {
	seenD := make(map[string]bool, len(designs))
	for _, d := range designs {
		if d.Name == "" || seenD[d.Name] || d.New == nil {
			panic(fmt.Sprintf("registry: invalid design entry %q", d.Name))
		}
		seenD[d.Name] = true
	}
	seenW := make(map[string]bool, len(workloadTable))
	for _, w := range workloadTable {
		if w.Name == "" || seenW[w.Name] || w.New == nil {
			panic(fmt.Sprintf("registry: invalid workload entry %q", w.Name))
		}
		seenW[w.Name] = true
	}
}

// Designs returns the design catalog in paper order. The slice is a copy;
// callers may reorder it freely.
func Designs() []Design {
	return append([]Design(nil), designs...)
}

// DesignNames lists every runnable design name in paper order.
func DesignNames() []string {
	names := make([]string, len(designs))
	for i, d := range designs {
		names[i] = d.Name
	}
	return names
}

// LookupDesign finds a design by name.
func LookupDesign(name string) (Design, bool) {
	for _, d := range designs {
		if d.Name == name {
			return d, true
		}
	}
	return Design{}, false
}

// CheckDesign returns a descriptive error when name is not a registered
// design (the error every flag-validation and API path reports).
func CheckDesign(name string) error {
	if _, ok := LookupDesign(name); !ok {
		return fmt.Errorf("registry: unknown design %q (valid: %s)", name, strings.Join(DesignNames(), ", "))
	}
	return nil
}

// NewRuntime instantiates the named design over a fresh environment.
func NewRuntime(env *txn.Env, name string) (txn.Runtime, error) {
	d, ok := LookupDesign(name)
	if !ok {
		return nil, CheckDesign(name)
	}
	return d.New(env), nil
}

// CrashSafeDesignNames lists the designs the crash-point explorer accepts,
// in paper order.
func CrashSafeDesignNames() []string {
	var names []string
	for _, d := range designs {
		if d.CrashSafe {
			names = append(names, d.Name)
		}
	}
	return names
}

// DesignNamesByTag lists the designs carrying the tag, in paper order.
func DesignNamesByTag(tag string) []string {
	var names []string
	for _, d := range designs {
		if hasTag(d.Tags, tag) {
			names = append(names, d.Name)
		}
	}
	return names
}

// Workloads returns the workload catalog in Table IV order. The slice is a
// copy; callers may reorder it freely.
func Workloads() []Workload {
	return append([]Workload(nil), workloadTable...)
}

// WorkloadNames lists every workload name in Table IV order.
func WorkloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.Name
	}
	return names
}

// LookupWorkload finds a workload by name.
func LookupWorkload(name string) (Workload, bool) {
	for _, w := range workloadTable {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// CheckWorkload returns a descriptive error when name is not a registered
// workload.
func CheckWorkload(name string) error {
	if _, ok := LookupWorkload(name); !ok {
		return fmt.Errorf("registry: unknown workload %q (valid: %s)", name, strings.Join(WorkloadNames(), ", "))
	}
	return nil
}

// NewWorkload builds a fresh instance of the named workload.
func NewWorkload(name string) (workloads.Workload, error) {
	w, ok := LookupWorkload(name)
	if !ok {
		return nil, CheckWorkload(name)
	}
	return w.New(), nil
}

// WorkloadNamesByTag lists the workloads carrying the tag, in Table IV
// order.
func WorkloadNamesByTag(tag string) []string {
	var names []string
	for _, w := range workloadTable {
		if hasTag(w.Tags, tag) {
			names = append(names, w.Name)
		}
	}
	return names
}

// MicroWorkloadNames lists the six micro-benchmarks in the order the paper
// plots them.
func MicroWorkloadNames() []string { return WorkloadNamesByTag(TagMicro) }

// hasTag reports whether tags contains tag.
func hasTag(tags []string, tag string) bool {
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}
