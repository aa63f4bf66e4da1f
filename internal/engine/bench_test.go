package engine

import "testing"

// BenchmarkEngineYield measures the cost of the scheduling hot path: cores
// advancing in lockstep so most yields hand the token off, interleaved with
// stretches where one core stays ahead and the fast path (no channel op, no
// scan) applies.
func BenchmarkEngineYield(b *testing.B) {
	b.ReportAllocs()
	const cores = 8
	e := New(cores)
	per := b.N/cores + 1
	b.ResetTimer()
	e.Run(func(core int, c *Clock) {
		for i := 0; i < per; i++ {
			// Varying deltas exercise both the stay-ahead fast path and the
			// handoff slow path, like real memory-system timing does.
			c.Advance(uint64(1 + (core+i)%5))
		}
	})
}

// BenchmarkEngineScheduler measures the event-loop scheduler under the
// worst case for the old token engine: cores advancing in lockstep by a
// constant delta, so every Advance is a real switch to the next coroutine.
// Only the steady-state loop is timed: the first Advance starts every core's
// coroutine, and core 0 is resumed only once all of them have run it.
func BenchmarkEngineScheduler(b *testing.B) {
	b.ReportAllocs()
	const cores = 8
	e := New(cores)
	per := b.N/cores + 1
	b.StopTimer()
	e.Run(func(core int, c *Clock) {
		c.Advance(3)
		if core == 0 {
			b.ResetTimer()
			b.StartTimer()
		}
		for i := 0; i < per; i++ {
			c.Advance(3)
		}
		if core == cores-1 { // the last core to finish the lockstep loop
			b.StopTimer()
		}
	})
}

// BenchmarkEngineSchedulerFastPath measures the no-handoff fast path of the
// event loop with other cores present: one core is far behind the rest and
// advances in small steps, so every Advance is the add-and-compare path with
// no coroutine switch. It must stay at 0 allocs/op. Only the loop is timed:
// core 0's first Advance starts the other cores, which park themselves far
// in the future before it resumes.
func BenchmarkEngineSchedulerFastPath(b *testing.B) {
	b.ReportAllocs()
	const cores = 4
	e := New(cores)
	b.StopTimer()
	e.Run(func(core int, c *Clock) {
		if core > 0 {
			// Park the other cores far in the future in one step each.
			c.Advance(uint64(b.N) + 10)
			return
		}
		c.Advance(1)
		b.ResetTimer()
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			c.Advance(0)
			c.Yield()
		}
		b.StopTimer()
		c.Advance(uint64(b.N) + 20)
	})
}

// BenchmarkEngineYieldFastPath measures the pure fast path: a single core has
// no other unfinished cores to hand off to, so Advance must stay a plain
// add-and-compare.
func BenchmarkEngineYieldFastPath(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	b.ResetTimer()
	e.Run(func(core int, c *Clock) {
		for i := 0; i < b.N; i++ {
			c.Advance(1)
		}
	})
}
