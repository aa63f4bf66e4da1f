package hier

import (
	"runtime"
	"testing"

	"dhtm/internal/cache"
	"dhtm/internal/config"
	"dhtm/internal/memdev"
	"dhtm/internal/stats"
)

func newHier(cores int) (*Hierarchy, *memdev.Store) {
	cfg := config.Default()
	cfg.NumCores = cores
	st := stats.New(cores)
	store := memdev.NewStore()
	ctl := memdev.NewController(cfg, store, st)
	return New(cfg, ctl, st), store
}

// TestLoadStoreRoundtrip checks basic functional correctness through the
// caches, including write-back on eviction pressure via DrainClean.
func TestLoadStoreRoundtrip(t *testing.T) {
	h, store := newHier(2)
	store.WriteWord(0x10000, 5)

	v, r := h.Load(0, 0x10000, 0, false)
	if v != 5 || r.Aborted {
		t.Fatalf("initial load got %d (aborted=%v), want 5", v, r.Aborted)
	}
	if r.Level != 3 {
		t.Fatalf("first load level = %d, want 3 (memory)", r.Level)
	}
	sr := h.Store(0, 0x10000, 9, r.Done, false)
	if sr.Aborted {
		t.Fatalf("store aborted unexpectedly")
	}
	v2, r2 := h.Load(0, 0x10000, sr.Done, false)
	if v2 != 9 || r2.Level != 1 {
		t.Fatalf("reload got %d at level %d, want 9 at L1", v2, r2.Level)
	}
	// The durable image still has the old value until a write-back.
	if store.ReadWord(0x10000) != 5 {
		t.Fatalf("store reached NVM without a write-back")
	}
	h.DrainClean()
	if store.ReadWord(0x10000) != 9 {
		t.Fatalf("DrainClean did not write dirty data back")
	}
}

// TestCoherenceTransfersData checks that a value written by one core is read
// by another through forwarding, and that latencies grow with distance.
func TestCoherenceTransfersData(t *testing.T) {
	h, _ := newHier(2)
	sr := h.Store(0, 0x20000, 77, 0, false)
	v, r := h.Load(1, 0x20000, sr.Done, false)
	if v != 77 {
		t.Fatalf("core 1 read %d, want 77 written by core 0", v)
	}
	if r.Done-sr.Done < h.cfg.LLCLatency {
		t.Fatalf("cross-core transfer completed too quickly (%d cycles)", r.Done-sr.Done)
	}
	// After the transfer both cores can hit locally.
	_, r0 := h.Load(0, 0x20000, r.Done, false)
	_, r1 := h.Load(1, 0x20000, r.Done, false)
	if r0.Level != 1 || r1.Level != 1 {
		t.Fatalf("post-transfer loads not L1 hits (levels %d, %d)", r0.Level, r1.Level)
	}
}

// recordingArbiter counts the hook invocations the hierarchy makes and keeps
// each core's overflow set, as the HTM runtime does.
type recordingArbiter struct {
	NopArbiter
	inTx       map[int]bool
	overflowed map[int]map[uint64]bool
	conflicts  int
	lastOwner  int
	proceed    bool
	wsEvict    int
	rsEvict    int
	llcEvicted int
}

func (a *recordingArbiter) InTx(core int) bool { return a.inTx[core] }
func (a *recordingArbiter) OnConflict(req, owner int, addr uint64, write, reqTx bool, at uint64) bool {
	a.conflicts++
	a.lastOwner = owner
	return a.proceed
}
func (a *recordingArbiter) OnWriteSetEviction(core int, addr uint64, at uint64) bool {
	a.wsEvict++
	a.overflow(core, addr)
	return true
}
func (a *recordingArbiter) OnReadSetEviction(core int, addr uint64, at uint64) { a.rsEvict++ }
func (a *recordingArbiter) OnLLCTxEviction(core int, addr uint64, at uint64)   { a.llcEvicted++ }
func (a *recordingArbiter) Overflowed(core int, la uint64) bool                { return a.overflowed[core][la] }

// overflow adds la to core's overflow set.
func (a *recordingArbiter) overflow(core int, la uint64) {
	if a.overflowed == nil {
		a.overflowed = map[int]map[uint64]bool{}
	}
	if a.overflowed[core] == nil {
		a.overflowed[core] = map[uint64]bool{}
	}
	a.overflowed[core][la] = true
}

// newTinyHier builds a hierarchy whose L1s have 2 sets of 4 ways, so lines
// 128 bytes apart share a set and a fifth one evicts, with arb installed.
func newTinyHier(cores int, arb Arbiter) *Hierarchy {
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.L1Size = 4 * 64 * 2
	st := stats.New(cores)
	h := New(cfg, memdev.NewController(cfg, memdev.NewStore(), st), st)
	h.SetArbiter(arb)
	return h
}

// overflowWriteSet has core store transactionally to 12 lines of one L1
// set, so all but the last 4 overflow to the LLC. It returns the next cycle.
func overflowWriteSet(t *testing.T, h *Hierarchy, core int) uint64 {
	t.Helper()
	at := uint64(0)
	for i := 0; i < 12; i++ {
		r := h.Store(core, uint64(i)*128, uint64(i), at, true)
		if r.Aborted {
			t.Fatalf("store %d aborted", i)
		}
		at = r.Done
	}
	return at
}

// TestConflictDetectionOnWriteSet checks that a remote access to a
// transactional dirty line is routed through the arbiter and that a losing
// requester gets an Aborted result.
func TestConflictDetectionOnWriteSet(t *testing.T) {
	h, _ := newHier(2)
	arb := &recordingArbiter{inTx: map[int]bool{0: true}, proceed: false}
	h.SetArbiter(arb)

	sr := h.Store(0, 0x30000, 1, 0, true)
	if sr.Aborted {
		t.Fatalf("transactional store aborted with no conflict present")
	}
	if l := h.L1(0).Peek(0x30000); l == nil || !l.W {
		t.Fatalf("write bit not set on the transactional line")
	}
	_, lr := h.Load(1, 0x30000, sr.Done, true)
	if arb.conflicts != 1 || arb.lastOwner != 0 {
		t.Fatalf("conflict hook not invoked for the owning core (%d calls)", arb.conflicts)
	}
	if !lr.Aborted || lr.ConflictWith != 0 {
		t.Fatalf("losing requester not told to abort: %+v", lr)
	}

	// With the arbiter now letting accesses proceed (owner aborted), the
	// requester sees the pre-transactional value from memory.
	arb.proceed = true
	arb.inTx[0] = false
	h.L1(0).Invalidate(0x30000) // what the owner's abort would have done
	v, lr2 := h.Load(1, 0x30000, lr.Done, true)
	if lr2.Aborted || v != 0 {
		t.Fatalf("post-abort load got %d (aborted=%v), want pre-transactional 0", v, lr2.Aborted)
	}
}

// TestReadSetEvictionGoesToSignature checks that evicting a read-set line
// notifies the arbiter (which maintains the overflow signature).
func TestReadSetEvictionGoesToSignature(t *testing.T) {
	arb := &recordingArbiter{inTx: map[int]bool{0: true}, proceed: true}
	h := newTinyHier(1, arb)

	at := uint64(0)
	for i := 0; i < 12; i++ {
		_, r := h.Load(0, uint64(i)*128, at, true)
		at = r.Done
	}
	if arb.rsEvict == 0 {
		t.Fatalf("no read-set evictions reported despite overflowing a tiny L1")
	}
}

// TestWriteSetOverflowKeepsStickyState checks the DHTM-enabling behaviour:
// when the arbiter allows a write-set eviction, the line moves to the LLC
// dirty, with the directory still naming the owner and the line in the
// owner's overflow set.
func TestWriteSetOverflowKeepsStickyState(t *testing.T) {
	arb := &recordingArbiter{inTx: map[int]bool{0: true}, proceed: true}
	h := newTinyHier(1, arb)
	overflowWriteSet(t, h, 0)
	if arb.wsEvict == 0 || len(arb.overflowed[0]) != arb.wsEvict {
		t.Fatalf("%d write-set evictions, %d lines in the overflow set", arb.wsEvict, len(arb.overflowed[0]))
	}
	for la := range arb.overflowed[0] {
		if h.L1(0).Peek(la) != nil {
			t.Errorf("overflowed line %#x still in the L1", la)
		}
		ll := h.LLC().Peek(la)
		if ll == nil || ll.Owner != 0 || !ll.Dirty || !h.sticky(ll, 0) {
			t.Errorf("overflowed line %#x not sticky in the LLC: %+v", la, ll)
		}
	}
}

// TestStaleOwnerIsNotAConflict checks that a directory owner whose L1 no
// longer holds the line, and which never overflowed it, does not make a
// transactional access conflict with the owner's transaction.
func TestStaleOwnerIsNotAConflict(t *testing.T) {
	arb := &recordingArbiter{inTx: map[int]bool{}, proceed: false}
	h := newTinyHier(2, arb)
	const x = 0x70000
	sr := h.Store(0, x, 5, 0, false)
	at := h.FlushLine(0, x, sr.Done)
	// Four more lines in x's L1 set evict the clean line silently, leaving
	// the directory naming core 0.
	for i := uint64(1); i <= 4; i++ {
		_, r := h.Load(0, x+i*128, at, false)
		at = r.Done
	}
	if h.L1(0).Peek(x) != nil || h.LLC().Peek(x).Owner != 0 {
		t.Fatalf("setup did not leave a stale owner pointer")
	}
	arb.inTx[0], arb.inTx[1] = true, true
	v, r := h.Load(1, x, at, true)
	if r.Aborted || v != 5 {
		t.Fatalf("load behind a stale owner got %d (aborted=%v), want 5", v, r.Aborted)
	}
	if arb.conflicts != 0 {
		t.Fatalf("stale owner pointer raised %d conflicts", arb.conflicts)
	}
}

// TestOverflowedLineConflicts checks that a line in the owner's overflow set
// still conflicts although it is absent from the owner's L1, for reads
// (forwarded to the owner) and for writes (sharer invalidation).
func TestOverflowedLineConflicts(t *testing.T) {
	for _, write := range []bool{false, true} {
		arb := &recordingArbiter{inTx: map[int]bool{0: true, 1: true}, proceed: false}
		h := newTinyHier(2, arb)
		at := overflowWriteSet(t, h, 0)
		if !arb.overflowed[0][0] {
			t.Fatalf("line 0 did not overflow")
		}
		var r Result
		if write {
			r = h.Store(1, 0, 9, at, true)
		} else {
			_, r = h.Load(1, 0, at, true)
		}
		if arb.conflicts != 1 || arb.lastOwner != 0 || !r.Aborted || r.ConflictWith != 0 {
			t.Fatalf("write=%v: %d conflicts (owner %d), result %+v; want the requester to lose to core 0",
				write, arb.conflicts, arb.lastOwner, r)
		}
	}
}

// TestRereadOverflowedLineMarksWrite checks the §III-C re-read corner case:
// an overflowed line read back into its owner's L1 carries the write bit, so
// an abort invalidates it.
func TestRereadOverflowedLineMarksWrite(t *testing.T) {
	arb := &recordingArbiter{inTx: map[int]bool{0: true}, proceed: true}
	h := newTinyHier(1, arb)
	at := overflowWriteSet(t, h, 0)
	v, r := h.Load(0, 0, at, true)
	if r.Aborted || v != 0 {
		t.Fatalf("re-read got %d (aborted=%v)", v, r.Aborted)
	}
	if l := h.L1(0).Peek(0); l == nil || !l.W || l.State != cache.Modified {
		t.Fatalf("re-read overflowed line not marked written: %+v", l)
	}
}

// TestLLCVictimOwnedElsewhereIsNotCharged checks the directory-owner half of
// the sticky rule: a core whose overflow set still lists a line the
// directory has handed to another core loses nothing when that line leaves
// the LLC.
func TestLLCVictimOwnedElsewhereIsNotCharged(t *testing.T) {
	arb := &recordingArbiter{inTx: map[int]bool{0: true}, proceed: true}
	cfg := config.Default()
	cfg.NumCores = 2
	cfg.L1Size = 4 * 64 * 2
	cfg.LLCSize, cfg.LLCWays = 4*64*2, 4 // 2 sets of 4 ways
	st := stats.New(2)
	h := New(cfg, memdev.NewController(cfg, memdev.NewStore(), st), st)
	h.SetArbiter(arb)
	const x = 0x80000
	arb.overflow(0, x)
	sr := h.Store(1, x, 1, 0, false)
	if h.LLC().Peek(x).Owner != 1 {
		t.Fatalf("core 1 does not own the line")
	}
	at := sr.Done
	for i := uint64(1); i <= 4; i++ {
		_, r := h.Load(1, x+i*128, at, false)
		at = r.Done
	}
	if h.LLC().Peek(x) != nil {
		t.Fatalf("line was not evicted from the LLC")
	}
	if arb.llcEvicted != 0 {
		t.Fatalf("LLC victim owned by core 1 was charged to core 0 (%d evictions)", arb.llcEvicted)
	}
}

// TestCrashDiscardsCaches checks the failure model.
func TestCrashDiscardsCaches(t *testing.T) {
	h, store := newHier(1)
	h.Store(0, 0x50000, 123, 0, false)
	h.Crash()
	if h.L1(0).Peek(0x50000) != nil || h.LLC().Peek(0x50000) != nil {
		t.Fatalf("caches survived the crash")
	}
	if store.ReadWord(0x50000) != 0 {
		t.Fatalf("unwritten-back data survived the crash in NVM")
	}
}

// TestReleasedCachesSurviveGC checks that a released hierarchy's cache
// arrays serve the next hierarchy of the same geometry, cleared, even after
// garbage collections, and that the free list grows no longer than the
// number of arrays that were live at once.
func TestReleasedCachesSurviveGC(t *testing.T) {
	h, _ := newHier(2)
	h.Store(0, 0x50000, 123, 0, false)
	llc, l1 := h.LLC(), h.L1(0)
	h.Release()
	runtime.GC()
	runtime.GC()
	h2, _ := newHier(2)
	if h2.LLC() != llc || (h2.L1(0) != l1 && h2.L1(1) != l1) {
		t.Fatal("a garbage collection dropped the released cache arrays")
	}
	if h2.LLC().Peek(0x50000) != nil || h2.L1(0).Peek(0x50000) != nil || h2.L1(1).Peek(0x50000) != nil {
		t.Fatal("a recycled cache array kept its contents")
	}
	h2.Release()
	g := cacheGeom{size: llc.Lines() * llc.LineSize(), ways: llc.Ways(), line: llc.LineSize()}
	cacheFree.Lock()
	n := len(cacheFree.lists[g])
	cacheFree.Unlock()
	if n != 1 {
		t.Fatalf("%d LLC arrays on the free list, but only one was ever live", n)
	}
}

// TestFlushAndWriteBackHelpers checks the persistence primitives designs use.
func TestFlushAndWriteBackHelpers(t *testing.T) {
	h, store := newHier(1)
	sr := h.Store(0, 0x60000, 11, 0, false)
	done := h.FlushLine(0, 0x60000, sr.Done)
	if store.ReadWord(0x60000) != 11 {
		t.Fatalf("FlushLine did not persist the line")
	}
	if done <= sr.Done {
		t.Fatalf("FlushLine reported no latency")
	}
	// The undo designs flush a transactional line before their commit
	// record and release it after: FlushLine must keep the write bit.
	h.Store(0, 0x60000, 12, done, true)
	done = h.FlushLine(0, 0x60000, done)
	if l := h.L1(0).Peek(0x60000); store.ReadWord(0x60000) != 12 || l == nil || !l.W || l.Dirty {
		t.Fatalf("FlushLine did not persist a transactional line and keep its write bit")
	}
	h.Store(0, 0x60000, 13, done, true)
	if !h.CompleteL1Line(0, 0x60000) || store.ReadWord(0x60000) != 13 {
		t.Fatalf("CompleteL1Line did not persist the new value")
	}
	if l := h.L1(0).Peek(0x60000); l == nil || l.W || l.Dirty {
		t.Fatalf("CompleteL1Line did not clean the cached line")
	}
}
