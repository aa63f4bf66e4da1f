package locks

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/engine"
	"dhtm/internal/hier"
	"dhtm/internal/memdev"
	"dhtm/internal/stats"
	"dhtm/internal/txn"
)

func newTestHier(cores int) (*hier.Hierarchy, config.Config, *stats.Stats) {
	cfg := config.Default()
	cfg.NumCores = cores
	st := stats.New(cores)
	ctl := memdev.NewController(cfg, memdev.NewStore(), st)
	return hier.New(cfg, ctl, st), cfg, st
}

// TestSortedAddrsDeduplicates checks lock-set resolution.
func TestSortedAddrsDeduplicates(t *testing.T) {
	cfg := config.Default()
	tbl := NewTable(cfg, 0x1000, 8)
	addrs := tbl.SortedAddrs([]uint64{3, 11, 3, 5}) // 3 and 11 alias (11%8=3)
	if len(addrs) != 2 {
		t.Fatalf("got %d addresses, want 2 (deduplicated)", len(addrs))
	}
	if addrs[0] >= addrs[1] {
		t.Fatalf("addresses not sorted: %v", addrs)
	}
}

// TestMutualExclusion runs two cores incrementing a shared counter under the
// same lock and checks no increment is lost.
func TestMutualExclusion(t *testing.T) {
	h, cfg, _ := newTestHier(2)
	tbl := NewTable(cfg, 0x1000, 4)
	const counterAddr = 0x8000
	const perCore = 40

	eng := engine.New(2)
	eng.Run(func(core int, c *engine.Clock) {
		for i := 0; i < perCore; i++ {
			addrs := tbl.SortedAddrs([]uint64{1})
			tbl.AcquireAll(h, core, c, addrs)
			v, r := h.Load(core, counterAddr, c.Now(), false)
			c.AdvanceTo(r.Done)
			sr := h.Store(core, counterAddr, v+1, c.Now(), false)
			c.AdvanceTo(sr.Done)
			tbl.ReleaseAll(h, core, c, addrs)
			c.Advance(17) // skew the cores so interleavings vary
		}
	})
	h.DrainClean()
	if got := h.Controller().Store().ReadWord(counterAddr); got != 2*perCore {
		t.Fatalf("counter = %d, want %d (lost updates under the lock)", got, 2*perCore)
	}
}

// parkCounter is a core's clock that counts the polls its parks skipped.
type parkCounter struct {
	*engine.Clock
	parks, skipped *uint64
}

// Park implements txn.Clock.
func (c parkCounter) Park(next, period uint64) uint64 {
	n := c.Clock.Park(next, period)
	if n > 0 {
		*c.parks++
		*c.skipped += n
	}
	return n
}

// TestSpinWaitMatchesPolling runs random programs in which lock holders
// take and release lock words through the table while waiter cores wait
// for words to read 0 in SpinWait, twice: parking, and with a sampler
// installed, which makes every spin poll. Both runs must log the same
// event sequence and leave the same Stats and final clocks, and across the
// seeds SpinWait itself must park and skip polls.
func TestSpinWaitMatchesPolling(t *testing.T) {
	var parks, skipped uint64
	for seed := int64(1); seed <= 60; seed++ {
		run := func(sampled bool) ([]string, []uint64, *stats.Stats, engine.Counts) {
			cores := 2 + int(seed%4)
			h, cfg, st := newTestHier(cores)
			tbl := NewTable(cfg, 0x1000, 3)
			var log []string
			eng := engine.New(cores)
			if sampled {
				eng.SetSampler(1<<62, func(uint64) uint64 { return 0 })
			}
			final := eng.Run(func(core int, ec *engine.Clock) {
				rng := rand.New(rand.NewSource(seed*31 + int64(core)))
				// Only the waiters' parks are counted.
				w := txn.Clock(ec)
				if !sampled {
					w = parkCounter{ec, &parks, &skipped}
				}
				for i := 0; i < 12; i++ {
					addr := tbl.Addr(uint64(rng.Intn(3)))
					if core%2 == 0 {
						tbl.Acquire(h, core, ec, addr)
						ec.Advance(uint64(rng.Intn(400)))
						tbl.Release(h, core, ec, addr)
						log = append(log, fmt.Sprintf("core %d held %#x until %d", core, addr, ec.Now()))
					} else {
						SpinWait(h, core, w, addr, cfg.BackoffBase<<uint(rng.Intn(3)))
						log = append(log, fmt.Sprintf("core %d saw %#x free at %d", core, addr, ec.Now()))
					}
					ec.Advance(uint64(rng.Intn(60)))
				}
			})
			return log, final, st, eng.Counts()
		}
		refLog, refFinal, refStats, refCounts := run(true)
		log, final, st, counts := run(false)
		if refCounts.Parks != 0 {
			t.Fatalf("seed %d: polling run parked %d times", seed, refCounts.Parks)
		}
		if !reflect.DeepEqual(log, refLog) {
			t.Fatalf("seed %d: event sequences differ\nparked:  %v\npolling: %v", seed, log, refLog)
		}
		if !reflect.DeepEqual(final, refFinal) || !reflect.DeepEqual(st, refStats) {
			t.Fatalf("seed %d: final clocks %v, polling %v\n%+v\nvs\n%+v", seed, final, refFinal, st, refStats)
		}
		if counts.Switches > refCounts.Switches {
			t.Errorf("seed %d: parking took %d switches, polling %d", seed, counts.Switches, refCounts.Switches)
		}
	}
	t.Logf("SpinWait parks %d, skipped polls %d", parks, skipped)
	if parks == 0 || skipped == 0 {
		t.Fatalf("SpinWait never parked and skipped a poll: %d parks, %d skipped", parks, skipped)
	}
}

// BenchmarkSpinAcquireContended has 8 cores take turns on one lock word:
// each op is one acquire, a short critical section and a release, while
// the other cores spin. It reports the engine's core switches and parks
// per op. The timer runs from the first resume of the last core to start
// until the last core finishes, so engine and coroutine setup stay out of
// allocs/op, which must be 0.
func BenchmarkSpinAcquireContended(b *testing.B) {
	b.ReportAllocs()
	const cores = 8
	h, cfg, _ := newTestHier(cores)
	tbl := NewTable(cfg, 0x1000, 4)
	addr := tbl.Addr(1)
	per := b.N/cores + 1
	eng := engine.New(cores)
	b.StopTimer()
	b.ResetTimer()
	started, finished := 0, 0
	eng.Run(func(core int, c *engine.Clock) {
		if started++; started == cores {
			b.StartTimer()
		}
		for i := 0; i < per; i++ {
			tbl.Acquire(h, core, c, addr)
			c.Advance(50)
			tbl.Release(h, core, c, addr)
			c.Advance(uint64(10 + core))
		}
		if finished++; finished == cores {
			b.StopTimer()
		}
	})
	n := eng.Counts()
	b.ReportMetric(float64(n.Switches)/float64(b.N), "switches/op")
	b.ReportMetric(float64(n.Parks)/float64(b.N), "parks/op")
}
