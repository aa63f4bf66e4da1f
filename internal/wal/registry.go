package wal

import (
	"errors"
	"fmt"
	"slices"

	"dhtm/internal/memdev"
)

// Persistent-memory layout constants. The registry table lives at a
// well-known address so the recovery manager can rebuild every log handle
// from nothing but a memory image; the log region follows it; workload data
// is laid out by palloc above HeapBase.
const (
	// RegistryTableAddr is the fixed location of the OS log-registry table.
	RegistryTableAddr uint64 = 0x1000
	// LogRegionBase is where per-thread log and overflow areas are reserved.
	LogRegionBase uint64 = 0x0010_0000
	// HeapBase is where workload data structures are allocated (see palloc).
	HeapBase uint64 = 0x1000_0000

	registryMagic uint64 = 0xD47A_D47A_0001_0001
	// logGrowthHeadroom is how much larger the reserved region is than the
	// initially usable log, so the OS can grow a log after an overflow abort.
	logGrowthHeadroom = 4
	// entry layout in the registry table (in words).
	registryHeaderWords = 2
	registryEntryWords  = 6
)

// ErrOverflowListFull is returned when a transaction has overflowed more
// lines than the reserved overflow list can describe.
var ErrOverflowListFull = errors.New("wal: overflow list full")

// OverflowList records the addresses of write-set lines that overflowed from
// the owner's L1 into the LLC. On commit the memory controller walks the list
// to write those lines back in place; on abort it walks the list to
// invalidate them (§III-C of the paper).
type OverflowList struct {
	Thread    int
	Base      uint64 // first entry address
	Capacity  int    // maximum number of entries
	CountAddr uint64 // persisted entry count

	ctl   *memdev.Controller
	count int
}

// Count returns the number of live entries.
func (o *OverflowList) Count() int { return o.count }

// Append records one overflowed line address and returns when it is durable.
func (o *OverflowList) Append(lineAddr uint64, at uint64) (uint64, error) {
	if o.count >= o.Capacity {
		return at, ErrOverflowListFull
	}
	done := o.ctl.WriteWord(o.Base+uint64(o.count*8), lineAddr, at, memdev.TrafficLogOverflow)
	o.count++
	// Persist the count (one metadata word).
	d := o.ctl.WriteWord(o.CountAddr, uint64(o.count), at, memdev.TrafficLogMeta)
	if d > done {
		done = d
	}
	return done, nil
}

// Entries reads the live entries back from a persistent-memory image.
func (o *OverflowList) Entries(store *memdev.Store) []uint64 {
	n := int(store.ReadWord(o.CountAddr))
	if n > o.Capacity {
		n = o.Capacity
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = store.ReadWord(o.Base + uint64(i*8))
	}
	return out
}

// Clear empties the list (after commit-complete or abort-complete). The count
// reset is a durable write, so it goes through the persist-observer path.
func (o *OverflowList) Clear() {
	o.count = 0
	o.ctl.PersistWord(o.CountAddr, 0, memdev.TrafficLogMeta)
}

// Registry is the OS bookkeeping of every thread's durable log and overflow
// list. It persists itself into the memory image so that recovery can run
// from the image alone.
type Registry struct {
	ctl   *memdev.Controller
	logs  []*ThreadLog
	lists []*OverflowList
}

// NewRegistry lays out and registers logs for n threads, each with
// logBytes of initially usable log space and room for ovEntries overflow
// entries.
func NewRegistry(ctl *memdev.Controller, n int, logBytes, ovEntries int) *Registry {
	r := &Registry{ctl: ctl}
	store := ctl.Store()
	next := LogRegionBase
	alignUp := func(a uint64) uint64 { return (a + uint64(memdev.LineBytes-1)) &^ uint64(memdev.LineBytes-1) }

	store.WriteWord(RegistryTableAddr, registryMagic)
	store.WriteWord(RegistryTableAddr+8, uint64(n))

	for t := 0; t < n; t++ {
		sizeWords := logBytes / 8
		maxWords := sizeWords * logGrowthHeadroom

		metaAddr := next
		next = alignUp(next + 2*8)
		logBase := next
		next = alignUp(next + uint64(maxWords*8))
		ovCountAddr := next
		next = alignUp(next + 8)
		ovBase := next
		next = alignUp(next + uint64(ovEntries*8))

		log := newThreadLog(ctl, t, logBase, sizeWords, maxWords, metaAddr)
		list := &OverflowList{Thread: t, Base: ovBase, Capacity: ovEntries, CountAddr: ovCountAddr, ctl: ctl}
		r.logs = append(r.logs, log)
		r.lists = append(r.lists, list)

		entry := RegistryTableAddr + uint64((registryHeaderWords+t*registryEntryWords)*8)
		store.WriteWord(entry+0*8, logBase)
		store.WriteWord(entry+1*8, uint64(sizeWords))
		store.WriteWord(entry+2*8, metaAddr)
		store.WriteWord(entry+3*8, ovBase)
		store.WriteWord(entry+4*8, uint64(ovEntries))
		store.WriteWord(entry+5*8, ovCountAddr)
	}
	return r
}

// LoadRegistry reconstructs registry handles from a persistent-memory image
// (the recovery manager's entry point after a crash) into a new Registry.
func LoadRegistry(store *memdev.Store) (*Registry, error) {
	r := &Registry{}
	if err := r.Load(store); err != nil {
		return nil, err
	}
	return r, nil
}

// Load refills r with the registry handles of a persistent-memory image,
// reusing the ThreadLog and OverflowList handles r already holds, so a
// caller that recovers many images allocates them once. The handles have
// no controller: they read the image and append nothing.
func (r *Registry) Load(store *memdev.Store) error {
	if store.ReadWord(RegistryTableAddr) != registryMagic {
		return fmt.Errorf("wal: no log registry found at %#x", RegistryTableAddr)
	}
	n := int(store.ReadWord(RegistryTableAddr + 8))
	if n <= 0 || n > 256 {
		return fmt.Errorf("wal: implausible registered thread count %d", n)
	}
	r.ctl = nil
	r.logs, r.lists = slices.Grow(r.logs[:0], n)[:n], slices.Grow(r.lists[:0], n)[:n]
	for t := range n {
		if r.logs[t] == nil {
			r.logs[t], r.lists[t] = new(ThreadLog), new(OverflowList)
		}
		entry := RegistryTableAddr + uint64((registryHeaderWords+t*registryEntryWords)*8)
		logBase := store.ReadWord(entry + 0*8)
		sizeWords := int(store.ReadWord(entry + 1*8))
		metaAddr := store.ReadWord(entry + 2*8)
		ovBase := store.ReadWord(entry + 3*8)
		ovCap := int(store.ReadWord(entry + 4*8))
		ovCountAddr := store.ReadWord(entry + 5*8)
		r.logs[t].attach(store, t, logBase, sizeWords, metaAddr)
		*r.lists[t] = OverflowList{
			Thread: t, Base: ovBase, Capacity: ovCap, CountAddr: ovCountAddr,
			count: int(store.ReadWord(ovCountAddr)),
		}
	}
	return nil
}

// Threads returns the number of registered threads.
func (r *Registry) Threads() int { return len(r.logs) }

// Log returns thread t's durable log.
func (r *Registry) Log(t int) *ThreadLog { return r.logs[t] }

// Overflow returns thread t's overflow list.
func (r *Registry) Overflow(t int) *OverflowList { return r.lists[t] }

// InLogData reports whether the line at lineAddr shares a byte with the data
// area of any registered log — the SizeWords words from its Base, which
// recovery reads records from.
func (r *Registry) InLogData(lineAddr uint64) bool {
	for _, l := range r.logs {
		if l.SizeWords <= 0 {
			continue
		}
		if uint64(l.SizeWords) >= 1<<61 {
			return true // the area wraps around the whole address space
		}
		// Both ranges may wrap past the top of the address space, so the
		// overlap test is modular: one starts inside the other.
		if lineAddr-l.Base < uint64(l.SizeWords)*8 || l.Base-lineAddr < memdev.LineBytes {
			return true
		}
	}
	return false
}

// GrowLog grows thread t's log after a log-overflow abort and keeps the
// persisted registry entry in sync so recovery sees the new geometry.
func (r *Registry) GrowLog(t, factor int) bool {
	if !r.logs[t].Grow(factor) {
		return false
	}
	entry := RegistryTableAddr + uint64((registryHeaderWords+t*registryEntryWords)*8)
	r.ctl.PersistWord(entry+1*8, uint64(r.logs[t].SizeWords), memdev.TrafficLogMeta)
	return true
}
