package locks

import (
	"testing"

	"dhtm/internal/config"
	"dhtm/internal/engine"
	"dhtm/internal/hier"
	"dhtm/internal/memdev"
	"dhtm/internal/stats"
)

func newTestHier(cores int) (*hier.Hierarchy, config.Config) {
	cfg := config.Default()
	cfg.NumCores = cores
	st := stats.New(cores)
	ctl := memdev.NewController(cfg, memdev.NewStore(), st)
	return hier.New(cfg, ctl, st), cfg
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
	h, cfg := newTestHier(2)
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

// BenchmarkSpinAcquireContended has 8 cores take turns on one lock word:
// each op is one acquire, a short critical section and a release, while
// the other cores spin. It reports the engine's core switches and parks
// per op. The timer runs from the first resume of the last core to start
// until the last core finishes, so engine and coroutine setup stay out of
// allocs/op, which must be 0.
func BenchmarkSpinAcquireContended(b *testing.B) {
	b.ReportAllocs()
	const cores = 8
	h, cfg := newTestHier(cores)
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
