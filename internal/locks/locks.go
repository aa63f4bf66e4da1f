// Package locks implements the lock table used by the lock-based designs of
// the evaluation (SO and ATOM): a fixed array of spin locks in persistent
// memory, one per cache line to avoid false sharing, acquired through the
// simulated cache hierarchy so that lock transfers pay real coherence costs.
// Deadlock freedom comes from acquiring every transaction's pre-declared lock
// set in sorted order (two-phase locking with ordered acquisition).
package locks

import (
	"sort"

	"dhtm/internal/config"
	"dhtm/internal/hier"
	"dhtm/internal/memdev"
	"dhtm/internal/txn"
)

// Table is a fixed-size lock table. Abstract lock IDs (partition numbers for
// the micro-benchmarks, record identifiers for OLTP) hash onto slots.
type Table struct {
	cfg   config.Config
	base  uint64
	slots int
}

// NewTable reserves slots lock words (one cache line apart) starting at base.
// The base address is typically obtained from palloc.
func NewTable(cfg config.Config, base uint64, slots int) *Table {
	if slots <= 0 {
		slots = 1
	}
	return &Table{cfg: cfg, base: base, slots: slots}
}

// Addr maps an abstract lock ID to its lock word address.
func (t *Table) Addr(id uint64) uint64 {
	return t.base + (id%uint64(t.slots))*uint64(memdev.LineBytes)
}

// SortedAddrs resolves and deduplicates a transaction's lock IDs into the
// ordered list of lock word addresses to acquire.
func (t *Table) SortedAddrs(ids []uint64) []uint64 {
	seen := make(map[uint64]struct{}, len(ids))
	out := make([]uint64, 0, len(ids))
	for _, id := range ids {
		a := t.Addr(id)
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Acquire spins until the lock word at addr is obtained by core, then pays
// the lock access latency once more.
func (t *Table) Acquire(h *hier.Hierarchy, core int, c txn.Clock, addr uint64) {
	done := SpinAcquire(h, core, c, addr, uint64(core)+1, t.cfg.LockAccessLatency+t.cfg.BackoffBase)
	c.AdvanceTo(done + t.cfg.LockAccessLatency)
}

// SpinAcquire is the test-and-set loop of every lock in the simulator (the
// lock table and the HTM fallback locks): it polls the word at addr until it
// reads 0, stores val there and returns the cycle that store completes. The
// read and the write happen without yielding, which models an atomic
// exchange.
func SpinAcquire(h *hier.Hierarchy, core int, c txn.Clock, addr, val, backoff uint64) uint64 {
	r := spin(h, core, c, addr, backoff)
	return h.Store(core, addr, val, r.Done, false).Done
}

// SpinWait polls the word at addr with plain loads until it reads 0 and
// advances core's clock to that poll's completion; it takes nothing. The
// HTM begin path uses it to wait out a fallback transaction's lock.
func SpinWait(h *hier.Hierarchy, core int, c txn.Clock, addr, backoff uint64) {
	c.AdvanceTo(spin(h, core, c, addr, backoff).Done)
}

// spin is the one spin loop in the simulator: it polls the word at addr
// from core's current clock until it reads 0 and returns that poll's
// result, leaving the clock where the poll was issued. A poll that reads a
// held lock waits backoff cycles past its completion before the next one;
// the holder keeps making progress because the simulation always runs the
// core with the smallest clock.
//
// A poll that hits in core's L1 and reads "held" changes nothing but core's
// hit counter and its L1's LRU order, and every later poll reads the same
// value until another core invalidates that L1 copy. So instead of polling,
// core parks until the hierarchy sees such an invalidation and then replays
// the skipped polls' hits; the simulated machine is identical either way.
func spin(h *hier.Hierarchy, core int, c txn.Clock, addr, backoff uint64) hier.Result {
	for {
		v, r := h.Load(core, addr, c.Now(), false)
		if v == 0 {
			return r
		}
		if r.Level != 1 {
			c.AdvanceTo(r.Done + backoff)
			continue
		}
		park(h, core, c, addr, r.Done+backoff, h.Config().L1Latency+backoff)
	}
}

// park sleeps core on its L1 copy of addr in place of polling at next,
// next+period, ... The watch is removed on every exit, including the poison
// unwind of an engine tearing down.
func park(h *hier.Hierarchy, core int, c txn.Clock, addr, next, period uint64) {
	h.Watch(core, addr, c)
	defer h.Unwatch(core)
	if n := c.Park(next, period); n > 0 {
		h.ReplayHits(core, addr, n)
	}
}

// AcquireAll acquires every address in order.
func (t *Table) AcquireAll(h *hier.Hierarchy, core int, c txn.Clock, addrs []uint64) {
	for _, a := range addrs {
		t.Acquire(h, core, c, a)
	}
}

// Release releases a single lock.
func (t *Table) Release(h *hier.Hierarchy, core int, c txn.Clock, addr uint64) {
	r := h.Store(core, addr, 0, c.Now(), false)
	c.AdvanceTo(r.Done + t.cfg.LockAccessLatency)
}

// ReleaseAll releases every lock in reverse acquisition order.
func (t *Table) ReleaseAll(h *hier.Hierarchy, core int, c txn.Clock, addrs []uint64) {
	for i := len(addrs) - 1; i >= 0; i-- {
		t.Release(h, core, c, addrs[i])
	}
}
