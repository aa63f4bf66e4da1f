package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// spinMachine is a toy memory system for the parking tests: lines with a
// value each, and per-core cached copies that a write by another core
// invalidates. A poll that finds its copy valid is a "hit" and reads the
// cached value, exactly the kind of poll Park may skip; invalidating a
// watcher's copy is the wake event.
type spinMachine struct {
	park     bool
	lat      uint64 // hit latency; a miss costs 3·lat
	mem      []uint64
	valid    [][]bool
	copies   [][]uint64
	watch    []int // line a core sleeps on, -1 when none
	inPark   []bool
	next     []uint64
	period   []uint64
	hits     []uint64
	log      []string
	ties     [2]int // wakes at a poll slot equal to the waker's clock: [parked < waker, parked > waker]
	spurious int    // wakes of a parked core whose copy was still valid
}

func newSpinMachine(cores, lines int, park bool) *spinMachine {
	m := &spinMachine{park: park, lat: 2, mem: make([]uint64, lines)}
	m.valid = make([][]bool, cores)
	m.copies = make([][]uint64, cores)
	for i := range m.valid {
		m.valid[i] = make([]bool, lines)
		m.copies[i] = make([]uint64, lines)
	}
	m.watch = make([]int, cores)
	for i := range m.watch {
		m.watch[i] = -1
	}
	m.inPark = make([]bool, cores)
	m.next = make([]uint64, cores)
	m.period = make([]uint64, cores)
	m.hits = make([]uint64, cores)
	return m
}

func (m *spinMachine) logf(format string, args ...any) {
	m.log = append(m.log, fmt.Sprintf(format, args...))
}

// write stores a new value into line l, invalidating every other copy and
// waking its watchers when wake is set.
func (m *spinMachine) write(c *Clock, l int, wake bool) {
	w := c.Core()
	m.mem[l]++
	m.logf("write core=%d at=%d line=%d val=%d", w, c.Now(), l, m.mem[l])
	for k := range m.valid {
		if k == w || !m.valid[k][l] {
			continue
		}
		m.valid[k][l] = false
		if m.watch[k] != l || !wake {
			continue
		}
		if now := c.Now(); m.inPark[k] && now >= m.next[k] && (now-m.next[k])%m.period[k] == 0 {
			if k < w {
				m.ties[0]++
			} else {
				m.ties[1]++
			}
		}
		c.Wake(k)
	}
	m.valid[w][l], m.copies[w][l] = true, m.mem[l]
}

// spuriousWake wakes core k without changing anything it polls.
func (m *spinMachine) spuriousWake(c *Clock, k int) {
	if m.inPark[k] && m.watch[k] >= 0 && m.valid[k][m.watch[k]] {
		m.spurious++
	}
	c.Wake(k)
}

// spin polls line l until it reads at least target, parking after every
// hit when m.park is set and plain AdvanceTo-polling otherwise.
func (m *spinMachine) spin(c *Clock, l int, target, backoff uint64) {
	k := c.Core()
	for {
		now := c.Now()
		hit := m.valid[k][l]
		done := now + m.lat
		if hit {
			m.hits[k]++
		} else {
			m.valid[k][l], m.copies[k][l] = true, m.mem[l]
			done += 2 * m.lat
			m.logf("miss core=%d at=%d line=%d val=%d", k, now, l, m.copies[k][l])
		}
		if m.copies[k][l] >= target {
			m.logf("acquired core=%d at=%d line=%d", k, now, l)
			return
		}
		next := done + backoff
		if !hit || !m.park {
			c.AdvanceTo(next)
			continue
		}
		m.watch[k], m.inPark[k] = l, true
		m.next[k], m.period[k] = next, m.lat+backoff
		m.hits[k] += c.Park(next, m.lat+backoff)
		m.watch[k], m.inPark[k] = -1, false
	}
}

// spinProgram is a random mix of writer and poller cores over a few lines.
// Writers advance, write (waking watchers) and wake cores spuriously;
// pollers spin on lines until a value every interleaving reaches.
type spinProgram struct {
	cores, lines int
	seed         int64
}

func (p spinProgram) run(park bool) (*spinMachine, []uint64, Counts) {
	rng := rand.New(rand.NewSource(p.seed))
	writer := make([]bool, p.cores)
	writer[rng.Intn(p.cores)] = true
	for i := range writer {
		writer[i] = writer[i] || rng.Intn(3) == 0
	}
	type op struct {
		kind    int // 0 advance, 1 write, 2 spurious wake; poller: spin
		arg     int
		delta   uint64
		backoff uint64
	}
	progs := make([][]op, p.cores)
	writes := make([]uint64, p.lines)
	for core := range progs {
		if !writer[core] {
			continue
		}
		for i := 0; i < 40; i++ {
			o := op{kind: rng.Intn(3), delta: uint64(rng.Intn(9))}
			switch o.kind {
			case 1:
				o.arg = rng.Intn(p.lines)
				writes[o.arg]++
			case 2:
				o.arg = rng.Intn(p.cores)
			}
			progs[core] = append(progs[core], o)
		}
	}
	for core := range progs {
		if writer[core] {
			continue
		}
		for i := 0; i < 6; i++ {
			l := rng.Intn(p.lines)
			target := uint64(0)
			if writes[l] > 0 {
				target = 1 + uint64(rng.Int63n(int64(writes[l])))
			}
			progs[core] = append(progs[core], op{arg: l, delta: target, backoff: uint64(rng.Intn(4))})
		}
	}

	m := newSpinMachine(p.cores, p.lines, park)
	e := New(p.cores)
	final := e.Run(func(core int, c *Clock) {
		for _, o := range progs[core] {
			if !writer[core] {
				m.spin(c, o.arg, o.delta, o.backoff)
				c.Advance(o.backoff)
				continue
			}
			switch o.kind {
			case 0:
				c.Advance(o.delta)
			case 1:
				m.write(c, o.arg, true)
				c.Advance(o.delta)
			case 2:
				m.spuriousWake(c, o.arg)
			}
		}
	})
	return m, final, e.Counts()
}

// TestParkMatchesPolling runs random spin programs twice — pollers parking
// on hits, and pollers polling through plain AdvanceTo — and requires the
// same event sequence, the same per-core hit counts and the same final
// clocks. Across the seeds it must see parks, skipped polls, spurious wakes
// of parked cores, and wakes landing on a poll slot equal to the waker's
// clock with the parked core on either side of the waker's index.
func TestParkMatchesPolling(t *testing.T) {
	var ties [2]int
	var spurious int
	var total Counts
	for seed := int64(1); seed <= 300; seed++ {
		p := spinProgram{cores: 2 + int(seed%5), lines: 1 + int(seed%3), seed: seed}
		ref, refFinal, refCounts := p.run(false)
		got, gotFinal, counts := p.run(true)
		if refCounts.Parks != 0 {
			t.Fatalf("seed %d: polling run parked %d times", seed, refCounts.Parks)
		}
		if !reflect.DeepEqual(got.log, ref.log) {
			t.Fatalf("seed %d: event sequences differ\nparked:  %v\npolling: %v", seed, got.log, ref.log)
		}
		if !reflect.DeepEqual(got.hits, ref.hits) {
			t.Fatalf("seed %d: hit counts %v, polling %v", seed, got.hits, ref.hits)
		}
		if !reflect.DeepEqual(gotFinal, refFinal) {
			t.Fatalf("seed %d: final clocks %v, polling %v", seed, gotFinal, refFinal)
		}
		if counts.Switches > refCounts.Switches {
			t.Errorf("seed %d: parking took %d switches, polling %d", seed, counts.Switches, refCounts.Switches)
		}
		ties[0] += got.ties[0]
		ties[1] += got.ties[1]
		spurious += got.spurious
		total.Parks += counts.Parks
		total.SkippedPolls += counts.SkippedPolls
	}
	t.Logf("parks %d, skipped polls %d, equal-clock wakes %v, spurious wakes %d", total.Parks, total.SkippedPolls, ties, spurious)
	if total.Parks == 0 || total.SkippedPolls == 0 {
		t.Fatalf("no park or no skipped poll across all seeds: %+v", total)
	}
	if ties[0] == 0 || ties[1] == 0 {
		t.Fatalf("equal-clock wakes [parked<waker, parked>waker] = %v, want both sides covered", ties)
	}
	if spurious == 0 {
		t.Fatal("no spurious wake of a parked core across all seeds")
	}
}

// TestParkWokenWhenLastRunnableFinishes covers the one wake no core sends:
// the last runnable core writes without waking and returns, leaving only
// parked cores. They must resume at their first poll slot after its final
// (clock, core), as polling would have, on either side of its index.
func TestParkWokenWhenLastRunnableFinishes(t *testing.T) {
	for delta := uint64(0); delta < 12; delta++ {
		run := func(park bool) (*spinMachine, []uint64, Counts) {
			m := newSpinMachine(3, 1, park)
			e := New(3)
			final := e.Run(func(core int, c *Clock) {
				if core != 1 {
					m.spin(c, 0, 1, 1)
					return
				}
				for i := uint64(0); i < 5; i++ {
					c.Advance(delta + i)
				}
				m.write(c, 0, false)
			})
			return m, final, e.Counts()
		}
		ref, refFinal, _ := run(false)
		got, gotFinal, counts := run(true)
		if counts.Parks != 2 {
			t.Fatalf("delta %d: %d parks, want both pollers parked", delta, counts.Parks)
		}
		if !reflect.DeepEqual(got.log, ref.log) || !reflect.DeepEqual(got.hits, ref.hits) || !reflect.DeepEqual(gotFinal, refFinal) {
			t.Fatalf("delta %d: parked run %v %v %v, polling %v %v %v",
				delta, got.log, got.hits, gotFinal, ref.log, ref.hits, refFinal)
		}
	}
}

// TestParkedCoreUnwindsOnPanic checks that a parked core is torn down
// through the poison path when another core panics: its deferred calls run,
// and the original panic surfaces from Run.
func TestParkedCoreUnwindsOnPanic(t *testing.T) {
	e := New(3)
	unwound := 0
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if unwound != 2 {
			t.Fatalf("%d parked cores unwound, want 2", unwound)
		}
		if e.Counts().Parks != 2 {
			t.Fatalf("%d parks, want 2", e.Counts().Parks)
		}
	}()
	e.Run(func(core int, c *Clock) {
		if core == 1 {
			c.Advance(100)
			panic("boom")
		}
		defer func() { unwound++ }()
		c.Park(c.Now()+5, 5)
		t.Error("parked core resumed although nothing woke it")
	})
	t.Fatal("Run returned after a body panic")
}

// TestParkDegradesToPolling checks the cases Park must not sleep in: with a
// sampler installed, and for the last runnable core.
func TestParkDegradesToPolling(t *testing.T) {
	e := New(2)
	e.SetSampler(1_000_000, func(uint64) uint64 { return 0 })
	e.Run(func(core int, c *Clock) {
		if n := c.Park(c.Now()+7, 7); n != 0 || c.Now() != 7 {
			t.Errorf("core %d: Park with a sampler returned %d at cycle %d, want 0 at 7", core, n, c.Now())
		}
	})
	if got := e.Counts().Parks; got != 0 {
		t.Fatalf("parked %d times with a sampler installed", got)
	}

	e = New(1)
	e.Run(func(core int, c *Clock) {
		if n := c.Park(9, 3); n != 0 || c.Now() != 9 {
			t.Errorf("lone core: Park returned %d at cycle %d, want 0 at 9", n, c.Now())
		}
	})
	if got := e.Counts().Parks; got != 0 {
		t.Fatalf("lone core parked %d times", got)
	}
}
