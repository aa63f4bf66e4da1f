package htm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dhtm/internal/config"
	"dhtm/internal/stats"
)

// TestSignatureNoFalseNegatives is the property the HTM depends on: an added
// address is always reported as (possibly) present.
func TestSignatureNoFalseNegatives(t *testing.T) {
	f := func(addrs []uint32) bool {
		s := NewSignature(2048)
		for _, a := range addrs {
			s.Add(uint64(a) * 64)
		}
		for _, a := range addrs {
			if !s.Contains(uint64(a) * 64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestSignatureClearAndEmpty checks the flash-clear used at commit/abort.
func TestSignatureClearAndEmpty(t *testing.T) {
	s := NewSignature(1024)
	if s.count != 0 {
		t.Fatalf("fresh signature not empty")
	}
	s.Add(0x40)
	if s.count == 0 || !s.Contains(0x40) {
		t.Fatalf("signature lost an added address")
	}
	s.Clear()
	if s.count != 0 || s.Contains(0x40) {
		t.Fatalf("signature not cleared")
	}
}

// TestSignatureFalsePositiveRateIsBounded loosely checks that the Bloom
// filter is selective for read sets in the range the workloads produce.
func TestSignatureFalsePositiveRateIsBounded(t *testing.T) {
	s := NewSignature(2048)
	for i := 0; i < 128; i++ {
		s.Add(uint64(i) * 64)
	}
	falsePositives := 0
	const probes = 4096
	for i := 0; i < probes; i++ {
		if s.Contains(uint64(100000+i) * 64) {
			falsePositives++
		}
	}
	if rate := float64(falsePositives) / probes; rate > 0.20 {
		t.Fatalf("false positive rate %.2f too high for a 2048-bit signature with 128 entries", rate)
	}
}

// TestCtxLifecycle checks Doom/BeginReset interactions.
func TestCtxLifecycle(t *testing.T) {
	cfg := config.Default()
	c := NewCtx(cfg)
	c.BeginReset()
	if c.State != Active || c.Doomed {
		t.Fatalf("BeginReset did not produce a clean active context")
	}
	c.WriteLines.Add(0x40)
	c.Doom(stats.AbortConflict)
	if !c.Doomed || c.Reason != stats.AbortConflict {
		t.Fatalf("Doom did not record the conflict")
	}
	// Dooming a non-active transaction must not overwrite the reason.
	c.State = Committed
	c.Doom(stats.AbortLLCCapacity)
	if c.Reason != stats.AbortConflict {
		t.Fatalf("Doom on a committed transaction overwrote the abort reason")
	}
	c.BeginReset()
	if c.WriteLines.Len() != 0 || c.Doomed {
		t.Fatalf("BeginReset did not clear per-transaction state")
	}
}

// TestOwnerShouldAbort checks both conflict-resolution policies and strong
// isolation against non-transactional requesters.
func TestOwnerShouldAbort(t *testing.T) {
	cases := []struct {
		policy      config.ConflictPolicy
		requesterTx bool
		want        bool
	}{
		{config.FirstWriterWins, true, false},
		{config.FirstWriterWins, false, true},
		{config.RequesterWins, true, true},
		{config.RequesterWins, false, true},
	}
	for _, c := range cases {
		if got := OwnerShouldAbort(c.policy, c.requesterTx); got != c.want {
			t.Errorf("OwnerShouldAbort(%v, requesterTx=%v) = %v, want %v", c.policy, c.requesterTx, got, c.want)
		}
	}
}

// TestLineSetBasics checks insertion-order iteration, membership, growth and
// storage-reusing Clear of the open-addressing line set.
func TestLineSetBasics(t *testing.T) {
	s := NewLineSet(4)
	var want []uint64
	for i := 0; i < 300; i++ {
		la := uint64(0x1000_0000 + i*64)
		if !s.Add(la) {
			t.Fatalf("Add(%#x) reported duplicate on first insert", la)
		}
		if s.Add(la) {
			t.Fatalf("Add(%#x) reported new on second insert", la)
		}
		want = append(want, la)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for i, la := range s.Keys() {
		if la != want[i] {
			t.Fatalf("Keys()[%d] = %#x, want %#x (insertion order broken)", i, la, want[i])
		}
	}
	if !s.Contains(want[137]) || s.Contains(0x40) {
		t.Fatalf("Contains gave a wrong answer")
	}
	s.Clear()
	if s.Len() != 0 || s.Contains(want[0]) {
		t.Fatalf("Clear left members behind")
	}
	if !s.Add(want[0]) {
		t.Fatalf("Add after Clear reported duplicate")
	}
}
