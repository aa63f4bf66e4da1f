package hier

import "testing"

// wakeLog records the cores the hierarchy wakes.
type wakeLog []int

func (w *wakeLog) Wake(core int) { *w = append(*w, core) }

// take returns the wakes so far and clears the log.
func (w *wakeLog) take() []int {
	out := *w
	*w = nil
	return out
}

// TestWatchWakesOnEveryInvalidation drives each path that can invalidate or
// alter a watcher's L1 copy of its line and checks the watcher is woken,
// while accesses to other lines and after Unwatch wake nobody.
func TestWatchWakesOnEveryInvalidation(t *testing.T) {
	const line, other = 0x40000, 0x48000
	expect := func(t *testing.T, w *wakeLog, what string, want bool) {
		t.Helper()
		got := w.take()
		if want && (len(got) == 0 || got[0] != 1) {
			t.Fatalf("%s: wakes %v, want core 1 woken", what, got)
		}
		if !want && len(got) != 0 {
			t.Fatalf("%s: wakes %v, want none", what, got)
		}
	}
	// setup gives core 1 a shared copy of line and watches it.
	setup := func() (*Hierarchy, *wakeLog) {
		h, _ := newHier(3)
		w := &wakeLog{}
		h.Load(1, line, 0, false)
		h.Watch(1, line+8, w)
		return h, w
	}

	t.Run("remote store", func(t *testing.T) {
		h, w := setup()
		h.Store(0, other, 1, 0, false)
		h.Load(2, line, 0, false)
		expect(t, w, "other line / shared read", false)
		h.Store(0, line, 1, 0, false)
		expect(t, w, "store to the watched line", true)
	})
	t.Run("remote upgrade", func(t *testing.T) {
		h, w := setup()
		h.Load(0, line, 0, false)
		h.Store(0, line, 1, 0, false)
		expect(t, w, "upgrade of a shared copy", true)
	})
	t.Run("owner downgrade", func(t *testing.T) {
		h, w := setup()
		h.Unwatch(1)
		h.Store(1, line, 5, 0, false)
		h.Watch(1, line, w)
		h.Load(2, line, 0, false)
		expect(t, w, "read forwarded from the watcher's modified copy", true)
	})
	t.Run("llc back-invalidation", func(t *testing.T) {
		h, w := setup()
		stride := uint64(h.Config().LLCSets() * h.Config().LineSize)
		for i := 1; i <= h.Config().LLCWays; i++ {
			h.Load(0, line+uint64(i)*stride, 0, false)
		}
		if h.L1(1).Peek(line) != nil {
			t.Fatal("LLC pressure left the watcher's copy in place")
		}
		expect(t, w, "LLC victim", true)
	})
	t.Run("explicit invalidations", func(t *testing.T) {
		h, w := setup()
		h.InvalidateLLCLine(other)
		expect(t, w, "InvalidateLLCLine of another line", false)
		h.InvalidateLLCLine(line)
		expect(t, w, "InvalidateLLCLine", true)
	})
	t.Run("arbiter acts on the watcher", func(t *testing.T) {
		h, w := setup()
		arb := &recordingArbiter{inTx: map[int]bool{1: true}, proceed: true}
		h.SetArbiter(arb)
		h.Unwatch(1)
		h.Store(1, other, 7, 0, true)
		h.Watch(1, line, w)
		h.Load(0, other, 0, false)
		if arb.conflicts != 1 {
			t.Fatalf("%d conflicts, want the read to conflict with core 1", arb.conflicts)
		}
		expect(t, w, "conflict naming the watcher on another line", true)

		const read = 0x58000
		h.Load(1, read, 0, true)
		h.Store(0, read, 1, 0, false)
		if arb.conflicts != 2 {
			t.Fatalf("%d conflicts, want the store to conflict with core 1's read set", arb.conflicts)
		}
		expect(t, w, "invalidation conflicting with the watcher's read set", true)

		h.Load(1, read, 0, true)
		stride := uint64(h.Config().LLCSets() * h.Config().LineSize)
		for i := 1; i <= h.Config().LLCWays; i++ {
			h.Load(0, read+uint64(i)*stride, 0, false)
		}
		if arb.llcEvicted != 1 {
			t.Fatalf("%d LLC transactional evictions, want 1", arb.llcEvicted)
		}
		expect(t, w, "LLC eviction of the watcher's transactional line", true)
	})
	t.Run("unwatch", func(t *testing.T) {
		h, w := setup()
		h.Unwatch(1)
		h.Store(0, line, 1, 0, false)
		expect(t, w, "store after Unwatch", false)
	})
}

// TestReplayHits checks skipped polls are charged as L1 hits and that a
// line that has since been invalidated is not reinstalled.
func TestReplayHits(t *testing.T) {
	h, _ := newHier(2)
	h.Load(1, 0x50000, 0, false)
	base := h.st.Core(1).L1Hits
	h.ReplayHits(1, 0x50000, 41)
	if got := h.st.Core(1).L1Hits - base; got != 41 {
		t.Fatalf("replayed %d hits, want 41", got)
	}
	h.L1(1).Invalidate(0x50000)
	h.ReplayHits(1, 0x50000, 2)
	if h.L1(1).Peek(0x50000) != nil {
		t.Fatal("ReplayHits reinstalled an invalidated line")
	}
}
