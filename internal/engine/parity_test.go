package engine

import (
	"math/rand"
	"testing"
)

// traceOp records one shared-state touchpoint of a core body: which core
// observed which cycle at which step. Equality of two traces means the two
// schedulers interleaved the bodies identically — the property all simulator
// state relies on.
type traceOp struct {
	core int
	step int
	at   uint64
}

// Yield hands control back without changing the clock: a same-cycle spin
// step for the parity programs and the scheduler benchmark.
func (c *Clock) Yield() {
	if c.ahead() {
		return
	}
	c.e.handoff(c)
}

// clockOps is the op subset shared by Clock and tokenClock.
type clockOps interface {
	Core() int
	Now() uint64
	Advance(uint64)
	AdvanceTo(uint64)
	Yield()
}

// program is a deterministic per-core schedule of mixed clock operations,
// derived from a seed. Running it under either engine produces a trace.
type program struct {
	cores int
	steps int
	seed  int64
}

// run drives the program through the given clock, appending to trace. The
// operation mix covers Advance with varying deltas (fast path and handoff),
// AdvanceTo into both the future and the past, and same-cycle Yield spins.
func (p program) run(core int, c clockOps, trace *[]traceOp) {
	rng := rand.New(rand.NewSource(p.seed + int64(core)*104729))
	for i := 0; i < p.steps; i++ {
		*trace = append(*trace, traceOp{core: core, step: i, at: c.Now()})
		switch rng.Intn(6) {
		case 0, 1:
			c.Advance(uint64(rng.Intn(7)))
		case 2:
			c.Advance(uint64(50 + rng.Intn(200)))
		case 3:
			c.AdvanceTo(c.Now() + uint64(rng.Intn(40)))
		case 4:
			// Mostly the past (a no-op besides yielding).
			c.AdvanceTo(c.Now() - uint64(rng.Intn(int(c.Now())+1)))
		default:
			c.Yield()
		}
	}
}

// TestEventLoopMatchesTokenEngine is the old-vs-new parity check: the
// event-loop scheduler must reproduce the token engine's exact interleaving
// trace on randomized mixed Advance/AdvanceTo/Yield sequences, across core
// counts and uneven per-core work.
func TestEventLoopMatchesTokenEngine(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 8, 13} {
		for seed := int64(1); seed <= 20; seed++ {
			p := program{cores: cores, steps: 120 + int(seed)%60, seed: seed}

			var ref []traceOp
			refEng := newTokenEngine(cores)
			refFinal := refEng.Run(func(core int, c *tokenClock) {
				// Uneven finish: higher cores run extra steps.
				q := p
				q.steps += core * 17
				q.run(core, c, &ref)
			})

			var got []traceOp
			eng := New(cores)
			gotFinal := eng.Run(func(core int, c *Clock) {
				q := p
				q.steps += core * 17
				q.run(core, c, &got)
			})

			if len(got) != len(ref) {
				t.Fatalf("cores=%d seed=%d: %d events, reference %d", cores, seed, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("cores=%d seed=%d: event %d = %+v, reference %+v", cores, seed, i, got[i], ref[i])
				}
			}
			for i := range refFinal {
				if gotFinal[i] != refFinal[i] {
					t.Fatalf("cores=%d seed=%d: final clock %d = %d, reference %d", cores, seed, i, gotFinal[i], refFinal[i])
				}
			}
		}
	}
}

// TestPanicPropagates checks that a body panic surfaces out of Run and that
// the remaining suspended coroutines are torn down instead of leaking.
func TestPanicPropagates(t *testing.T) {
	e := New(4)
	defer func() {
		r := recover()
		if r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	e.Run(func(core int, c *Clock) {
		for i := 0; i < 100; i++ {
			if core == 2 && c.Now() > 40 {
				panic("boom")
			}
			c.Advance(uint64(1 + core))
		}
	})
	t.Fatal("Run returned after a body panic")
}

// TestRunTwicePanics preserves the old engine's double-Run guard.
func TestRunTwicePanics(t *testing.T) {
	e := New(2)
	e.Run(func(core int, c *Clock) { c.Advance(1) })
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	e.Run(func(core int, c *Clock) {})
}
