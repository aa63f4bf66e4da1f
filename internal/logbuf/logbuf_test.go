package logbuf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTouchCoalesces checks that repeated stores to the same line never evict.
func TestTouchCoalesces(t *testing.T) {
	b := New(4)
	for i := 0; i < 100; i++ {
		if _, evicted := b.Touch(0x1000); evicted {
			t.Fatalf("touching the same line evicted an entry")
		}
	}
	if b.Len() != 1 {
		t.Fatalf("buffer tracks %d entries, want 1", b.Len())
	}
}

// TestEvictionIsLRU checks that the least recently touched line is evicted.
func TestEvictionIsLRU(t *testing.T) {
	b := New(2)
	b.Touch(0x40)
	b.Touch(0x80)
	b.Touch(0x40) // 0x80 is now least recently used
	evicted, has := b.Touch(0xc0)
	if !has || evicted != 0x80 {
		t.Fatalf("evicted %#x (has=%v), want 0x80", evicted, has)
	}
}

// TestRemoveOnL1Eviction checks the forced-eviction path used when an L1 line
// leaves the cache while still tracked.
func TestRemoveOnL1Eviction(t *testing.T) {
	b := New(4)
	b.Touch(0x40)
	b.Touch(0x80)
	if !b.Remove(0x40) {
		t.Fatalf("Remove(0x40) reported the line untracked")
	}
	if b.Remove(0x40) {
		t.Fatalf("Remove(0x40) twice reported the line tracked")
	}
	if b.Contains(0x40) || !b.Contains(0x80) {
		t.Fatalf("buffer contents wrong after Remove: %d lines tracked", b.Len())
	}
}

// TestDrainReturnsAllOldestFirst checks the commit-time drain.
func TestDrainReturnsAllOldestFirst(t *testing.T) {
	b := New(8)
	for _, a := range []uint64{0x40, 0x80, 0xc0} {
		b.Touch(a)
	}
	got := b.Drain()
	want := []uint64{0x40, 0x80, 0xc0}
	if len(got) != len(want) {
		t.Fatalf("Drain returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
	if b.Len() != 0 {
		t.Fatalf("buffer not empty after Drain")
	}
}

// TestPropertyNeverExceedsCapacityAndNeverLosesLines is the core correctness
// property: after any sequence of stores, every line stored since the last
// drain was either evicted (logged) or is still tracked — nothing is lost —
// and occupancy never exceeds the capacity.
func TestPropertyNeverExceedsCapacityAndNeverLosesLines(t *testing.T) {
	f := func(capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw%63) + 1
		b := New(capacity)
		logged := make(map[uint64]bool)
		touched := make(map[uint64]bool)
		for _, op := range ops {
			line := uint64(op%256) * 64
			touched[line] = true
			if evicted, has := b.Touch(line); has {
				logged[evicted] = true
			}
			if b.Len() > capacity {
				return false
			}
		}
		for _, line := range b.Drain() {
			logged[line] = true
		}
		for line := range touched {
			if !logged[line] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}
