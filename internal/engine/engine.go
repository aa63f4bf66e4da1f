// Package engine provides the deterministic multi-core scheduling substrate
// for the architectural simulator. A whole cell executes as a single-threaded
// discrete-event loop: each simulated core is a run-to-yield coroutine
// (iter.Pull over the core body), and a plain scheduler loop always resumes
// the core with the minimum (clock, core) among the unfinished ones. Only the
// resumed core ever touches shared simulator state, so the interleaving of
// memory-system operations is fully determined by the timing model, never by
// the Go runtime scheduler — and because the whole cell stays on one OS
// thread, a core switch is a direct coroutine switch with no goroutine
// parking, channel handoff, or mutex.
//
// The hot path is allocation- and switch-free: every Clock caches the
// lexicographic minimum (clock, core) of the *other* runnable cores, which
// cannot change behind this core's back while it runs (suspended cores do
// not move their clocks, only the running core can finish or park, and the
// cores it wakes enter its cache as it wakes them). An Advance that keeps
// the caller in front is therefore a single add-and-compare with no coroutine
// switch or O(cores) scan; the scan happens once per actual switch, when the
// resumed core refreshes its cache.
//
// The scheduling order is bit-for-bit identical to the previous
// one-goroutine-per-core token engine (kept as the reference implementation
// in the parity tests): a core yields exactly when it is no longer the
// minimum, control passes exactly to the core its cache named, and a
// finishing core hands over to the minimum of the remaining ones.
//
// A core spinning on a value it reads from its own cache can Park instead of
// polling: it leaves the schedule until some other core Wakes it, and is
// then placed at the first of its poll slots the polling schedule would have
// ordered after the waking operation. Between wakes every poll would have
// read the same value, so the interleaving of everything else is unchanged;
// the caller accounts the skipped polls' side effects (see Clock.Park).
package engine

import (
	"fmt"
	"iter"
)

// Clock is a simulated core's private cycle counter plus its handle on the
// event loop. All simulator-facing operations of a core must be performed
// between resumes (implicit in the engine callbacks) and the next
// Advance/AdvanceTo call.
type Clock struct {
	core int
	now  uint64
	e    *Engine

	// minOtherClock/minOtherCore cache the lexicographic minimum
	// (clock, core) among the other runnable cores. The cache is refreshed
	// every time this core is resumed and stays valid while it runs:
	// suspended cores cannot advance, cores only finish or park while
	// running themselves, and Wake updates the waker's cache.
	// minOtherCore is -1 when no other core remains.
	minOtherClock uint64
	minOtherCore  int

	// yield suspends this core's coroutine back into the scheduler loop. It
	// reports false when the engine is tearing down (another core panicked),
	// in which case the body is unwound via a poison panic.
	yield func(struct{}) bool

	// parked is set while the core sleeps in Park; its poll slots are
	// next, next+period, next+2·period, ...
	parked       bool
	next, period uint64
}

// Core returns the core index this clock belongs to.
func (c *Clock) Core() int { return c.core }

// Now returns the core's current cycle.
func (c *Clock) Now() uint64 { return c.now }

// ahead reports whether this core is still the scheduling minimum, i.e.
// (now, core) <= (minOtherClock, minOtherCore) lexicographically.
func (c *Clock) ahead() bool {
	return c.minOtherCore < 0 || c.now < c.minOtherClock ||
		(c.now == c.minOtherClock && c.core < c.minOtherCore)
}

// Advance moves the core's clock forward by delta cycles and yields to the
// event loop so that any core now lagging behind can catch up before this
// core performs its next shared-state operation. When the caller remains the
// minimum-clock core the yield is a no-op compare and no switch happens.
func (c *Clock) Advance(delta uint64) {
	c.now += delta
	if c.e.sampleAt != 0 {
		c.e.maybeSample(c)
	}
	if c.ahead() {
		return
	}
	c.e.handoff(c)
}

// AdvanceTo moves the core's clock to cycle (if it is in the future) and
// yields. Advancing to the past is a no-op besides yielding.
func (c *Clock) AdvanceTo(cycle uint64) {
	if cycle > c.now {
		c.now = cycle
	}
	if c.e.sampleAt != 0 {
		c.e.maybeSample(c)
	}
	if c.ahead() {
		return
	}
	c.e.handoff(c)
}

// Park puts a spinning core to sleep until another core calls Wake on it.
// The caller has just polled and would otherwise AdvanceTo(next) and poll
// again every period cycles; it promises that, until a Wake, every one of
// those polls would observe the same value and change nothing but state the
// caller accounts for itself. On return the clock stands at the first poll
// slot ordered after the waking operation, and the result is the number of
// slots skipped before it.
//
// Park degrades to AdvanceTo(next) and returns 0 — the core polls as usual —
// while a sampler is installed (samples read per-poll state mid-run), when
// period is 0, or when no other core is runnable (nothing could wake it).
func (c *Clock) Park(next, period uint64) uint64 {
	e := c.e
	if e.sampler != nil || period == 0 || e.runnable == 1 {
		c.AdvanceTo(next)
		return 0
	}
	c.parked = true
	c.next, c.period = next, period
	e.inactive[c.core] = true
	e.runnable--
	e.parks++
	// Every other runnable core is in this core's cache (only the running
	// core parks, and Wake adds the cores it revives), so the cached minimum
	// is the next core to run.
	e.next = c.minOtherCore
	if !c.yield(struct{}{}) {
		panic(poison{})
	}
	c.refreshMinOther()
	skipped := (c.now - next) / period
	e.skipped += skipped
	return skipped
}

// Wake makes a parked core runnable again, ordered after the operation the
// running core is performing: the parked core's clock moves to its first
// poll slot p with (p, core) after the running core's (clock, core) — the
// first poll the polling schedule would have run after that operation.
// Waking a core that is not parked does nothing, so callers may wake a
// superset. Any core's clock may be used; the running core is the waker.
func (c *Clock) Wake(core int) { c.e.wake(core) }

// refreshMinOther rescans the other runnable cores' clocks. Called only
// while this core is the one running, so every other core's clock is at its
// published value.
func (c *Clock) refreshMinOther() {
	e := c.e
	best := -1
	var bestClock uint64
	for i := range e.clocks {
		if i == c.core || e.inactive[i] {
			continue
		}
		if best < 0 || e.clocks[i] < bestClock {
			best, bestClock = i, e.clocks[i]
		}
	}
	c.minOtherCore = best
	c.minOtherClock = bestClock
}

// poison unwinds a core body whose engine is tearing down (stop was called on
// its suspended coroutine after another core panicked). It is recovered
// inside the coroutine, never observed by callers.
type poison struct{}

// Engine runs every core as a run-to-yield coroutine under a single-threaded
// min-(clock,core)-first event loop.
type Engine struct {
	clocks []uint64 // last published clock per core (written at handoff)
	// inactive marks the cores the scheduler must not pick: finished or
	// parked. runnable counts the others.
	inactive []bool
	runnable int
	clks     []*Clock
	resume   []func() (struct{}, bool)
	stop     []func()
	cur      int // core currently running
	next     int // core the yielding coroutine handed control to
	started  bool

	// Scheduling work done by Run so far (see Counts).
	switches, parks, skipped uint64

	// sampleAt is the next simulated cycle at which sampler fires; 0 means no
	// sampler is installed, which keeps the disabled cost of the probe plane
	// to exactly one scalar compare per Advance/AdvanceTo.
	sampleAt uint64
	sampler  func(cycle uint64) uint64
}

// SetSampler installs a cycle-domain sampling callback: once global
// simulated time reaches firstDue, fn is invoked with the scheduled cycle
// and must return the next due cycle (strictly greater, or 0 to stop).
// Samples fire on the running core's coroutine, after its clock update and
// before any coroutine switch, so fn observes a machine whose global minimum
// time has just crossed the scheduled stamp — the stamps it is handed are
// monotonically nondecreasing regardless of per-event granularity. Passing
// fn == nil (or firstDue == 0) removes the sampler.
func (e *Engine) SetSampler(firstDue uint64, fn func(cycle uint64) uint64) {
	if fn == nil {
		firstDue = 0
	}
	e.sampleAt = firstDue
	e.sampler = fn
}

// maybeSample fires the sampler for every scheduled stamp that global
// simulated time — min(running core's clock, cached minimum of the others) —
// has reached. Global time never decreases, so stamps are emitted in order;
// the strictly-increasing return contract bounds the catch-up loop.
func (e *Engine) maybeSample(c *Clock) {
	gmin := c.now
	if c.minOtherCore >= 0 && c.minOtherClock < gmin {
		gmin = c.minOtherClock
	}
	for e.sampleAt != 0 && gmin >= e.sampleAt {
		e.sampleAt = e.sampler(e.sampleAt)
	}
}

// New creates an engine for n cores.
func New(n int) *Engine {
	if n <= 0 {
		panic(fmt.Sprintf("engine: non-positive core count %d", n))
	}
	return &Engine{
		clocks:   make([]uint64, n),
		inactive: make([]bool, n),
		clks:     make([]*Clock, n),
		resume:   make([]func() (struct{}, bool), n),
		stop:     make([]func(), n),
	}
}

// Counts is the scheduling work of one Run. It describes the host-side
// execution only: the simulated machine is the same whatever the counts.
type Counts struct {
	// Switches is the number of times the event loop resumed a core.
	Switches uint64
	// Parks is the number of times a core went to sleep in Park.
	Parks uint64
	// SkippedPolls is the number of poll slots parked cores slept through.
	SkippedPolls uint64
}

// Counts reports the scheduling work done by Run so far.
func (e *Engine) Counts() Counts {
	return Counts{Switches: e.switches, Parks: e.parks, SkippedPolls: e.skipped}
}

// wake implements Clock.Wake; the running core's cached minimum takes the
// woken core into account.
func (e *Engine) wake(core int) {
	c := e.clks[core]
	if !c.parked {
		return
	}
	w := e.clks[e.cur]
	p := c.next
	if p < w.now || (p == w.now && core < w.core) {
		p += (w.now - p) / c.period * c.period
		if p < w.now || (p == w.now && core < w.core) {
			p += c.period
		}
	}
	c.parked = false
	c.now = p
	e.clocks[core] = p
	e.inactive[core] = false
	e.runnable++
	if w.minOtherCore < 0 || p < w.minOtherClock || (p == w.minOtherClock && core < w.minOtherCore) {
		w.minOtherClock, w.minOtherCore = p, core
	}
}

// Run executes body(core, clock) once per core, interleaved so that the core
// with the smallest clock always runs first. It returns when every body has
// returned, and reports the final per-core clocks.
//
// A body that panics propagates the panic out of Run after the other cores'
// coroutines are torn down, so test failures surface instead of leaking
// suspended state.
func (e *Engine) Run(body func(core int, c *Clock)) []uint64 {
	if e.started {
		panic("engine: Run called twice")
	}
	e.started = true

	n := len(e.clocks)
	for i := 0; i < n; i++ {
		core := i
		c := &Clock{core: core, e: e, minOtherCore: -1}
		e.clks[core] = c
		e.resume[core], e.stop[core] = iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, torn := r.(poison); !torn {
						panic(r)
					}
				}
			}()
			c.yield = yield
			// The first resume reaches a core whose clock equals the
			// scheduling minimum, exactly like the token arriving in the old
			// engine; refresh the cache before the body's first operation.
			c.refreshMinOther()
			body(core, c)
			e.clocks[core] = c.now
		})
	}
	// On any exit — normal or panicking — unwind every coroutine that is
	// still suspended so no core body outlives Run.
	defer func() {
		for i := range e.stop {
			e.stop[i]()
		}
	}()

	// The event loop. All clocks start at 0 and ties break towards the
	// lowest index, so core 0 runs first; thereafter control passes to the
	// core the yielding clock cached as the minimum, or, when a core
	// finishes, to the minimum of the remaining runnable ones.
	live := n
	e.runnable = n
	for {
		e.switches++
		_, suspended := e.resume[e.cur]()
		if suspended {
			// The core suspended inside handoff or Park after naming its
			// successor.
			e.cur = e.next
			continue
		}
		e.inactive[e.cur] = true
		e.runnable--
		live--
		if live == 0 {
			break
		}
		if e.runnable == 0 {
			// Only parked cores remain. Polling, each would have run its
			// first slot after this core's last operation.
			for i, c := range e.clks {
				if c.parked {
					e.wake(i)
				}
			}
		}
		best := -1
		for i := range e.clocks {
			if e.inactive[i] {
				continue
			}
			if best < 0 || e.clocks[i] < e.clocks[best] || (e.clocks[i] == e.clocks[best] && i < best) {
				best = i
			}
		}
		e.cur = best
	}

	out := make([]uint64, n)
	copy(out, e.clocks)
	return out
}

// handoff publishes the caller's clock, names the cached minimum core as the
// next to run and suspends this coroutine until the event loop resumes it,
// then refreshes the caller's view of the other cores.
func (e *Engine) handoff(c *Clock) {
	e.clocks[c.core] = c.now
	e.next = c.minOtherCore
	if !c.yield(struct{}{}) {
		// The engine is tearing down (stop was called while suspended):
		// unwind the body without running any more simulated work.
		panic(poison{})
	}
	c.refreshMinOther()
}
