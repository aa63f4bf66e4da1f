package wal

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"dhtm/internal/config"
	"dhtm/internal/memdev"
	"dhtm/internal/stats"
)

func newTestController() *memdev.Controller {
	cfg := config.Default()
	return memdev.NewController(cfg, memdev.NewStore(), stats.New(cfg.NumCores))
}

// TestRecordEncodeDecodeRoundtrip checks every record type survives encoding.
func TestRecordEncodeDecodeRoundtrip(t *testing.T) {
	recs := []Record{
		{Type: RecRedo, Thread: 3, TxID: 42, LineAddr: 0x1000, Data: memdev.Line{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: RecUndo, Thread: 1, TxID: 7, LineAddr: 0x2040, Data: memdev.Line{9}},
		{Type: RecCommit, Thread: 0, TxID: 9},
		{Type: RecComplete, Thread: 5, TxID: 9},
		{Type: RecAbort, Thread: 2, TxID: 11},
		{Type: RecSentinel, Thread: 2, TxID: 11, DepThread: 6, DepTxID: 4},
	}
	for _, want := range recs {
		words := want.Encode()
		got, n, err := decode(words, 0)
		if err != nil {
			t.Fatalf("%s: decode: %v", want.Type, err)
		}
		if n != len(words) {
			t.Fatalf("%s: consumed %d words, want %d", want.Type, n, len(words))
		}
		if got != want {
			t.Fatalf("%s: roundtrip mismatch: got %+v want %+v", want.Type, got, want)
		}
	}
}

// TestThreadLogAppendScan checks that appended records are durably visible to
// a scan of the memory image.
func TestThreadLogAppendScan(t *testing.T) {
	ctl := newTestController()
	reg := NewRegistry(ctl, 2, 64*1024, 256)
	log := reg.Log(1)
	txid := log.BeginTx()
	want := []Record{
		{Type: RecRedo, TxID: txid, LineAddr: 0x40, Data: memdev.Line{1}},
		{Type: RecRedo, TxID: txid, LineAddr: 0x80, Data: memdev.Line{2}},
		{Type: RecCommit, TxID: txid},
	}
	for i := range want {
		if _, err := log.Append(&want[i], uint64(i*10)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, err := log.Scan(ctl.Store())
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].TxID != want[i].TxID || got[i].LineAddr != want[i].LineAddr {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
		if got[i].Thread != 1 {
			t.Fatalf("record %d thread = %d, want 1", i, got[i].Thread)
		}
	}
}

// TestThreadLogTruncation checks that EndTx releases space and hides records
// from recovery scans.
func TestThreadLogTruncation(t *testing.T) {
	ctl := newTestController()
	reg := NewRegistry(ctl, 1, 16*1024, 64)
	log := reg.Log(0)
	tx1 := log.BeginTx()
	_, _ = log.Append(&Record{Type: RecRedo, TxID: tx1, LineAddr: 0x40}, 0)
	_, _ = log.Append(&Record{Type: RecCommit, TxID: tx1}, 0)
	tx2 := log.BeginTx()
	_, _ = log.Append(&Record{Type: RecRedo, TxID: tx2, LineAddr: 0x80}, 0)
	log.EndTx(tx1)
	recs, err := log.Scan(ctl.Store())
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	for _, r := range recs {
		if r.TxID == tx1 {
			t.Fatalf("truncated transaction %d still visible to scans", tx1)
		}
	}
	if len(recs) == 0 {
		t.Fatalf("live transaction's records disappeared with the truncation")
	}
}

// Scan decodes every live record (tail to head) from the given persistent
// memory image into a slice, lines included: the records Walk passes on,
// and its error.
func (l *ThreadLog) Scan(store *memdev.Store) ([]Record, error) {
	var recs []Record
	err := l.Walk(store, func(rec Record, off int) {
		if rec.Type == RecRedo || rec.Type == RecUndo {
			rec.Data = l.LineAt(store, off)
		}
		recs = append(recs, rec)
	})
	return recs, err
}

// TestThreadLogWrapAround fills and truncates repeatedly so the circular
// buffer wraps, checking scans stay consistent and read back every logged
// line, including lines that wrap around the end of the buffer.
func TestThreadLogWrapAround(t *testing.T) {
	ctl := newTestController()
	reg := NewRegistry(ctl, 1, 4*1024, 64) // 512 words of log
	log := reg.Log(0)
	wrapped := 0
	for round := 0; round < 50; round++ {
		txid := log.BeginTx()
		var want []Record
		for i := 0; i < 4; i++ {
			rec := Record{Type: RecRedo, TxID: txid, LineAddr: uint64(round*64 + i), Data: memdev.Line{uint64(round), uint64(i), 3, 4, 5, 6, 7, 8}}
			if _, err := log.Append(&rec, 0); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			want = append(want, rec)
		}
		if _, err := log.Append(&Record{Type: RecCommit, TxID: txid}, 0); err != nil {
			t.Fatalf("round %d commit: %v", round, err)
		}
		recs, err := log.Scan(ctl.Store())
		if err != nil {
			t.Fatalf("round %d scan: %v", round, err)
		}
		if len(recs) != 5 {
			t.Fatalf("round %d: scanned %d records, want 5", round, len(recs))
		}
		for i, w := range want {
			if recs[i] != w {
				t.Fatalf("round %d record %d: scanned %+v, want %+v", round, i, recs[i], w)
			}
		}
		if err := log.Walk(ctl.Store(), func(rec Record, off int) {
			if rec.Type == RecRedo && off+rec.SizeWords() > log.SizeWords {
				wrapped++
			}
		}); err != nil {
			t.Fatalf("round %d walk: %v", round, err)
		}
		log.EndTx(txid)
	}
	if wrapped == 0 {
		t.Fatal("no redo record wrapped around the end of the buffer")
	}
}

// TestScanCorruptGeometryReadsOnlyHeldWords checks that a registry claiming
// a huge log, with head and tail spanning most of it, costs Scan only the
// words the image holds: the records decode, zeroed space ends the scan, and
// nothing near the claimed span is allocated — on a straight and on a
// wrapped live region.
func TestScanCorruptGeometryReadsOnlyHeldWords(t *testing.T) {
	ctl := newTestController()
	reg := NewRegistry(ctl, 1, 4*1024, 64)
	log := reg.Log(0)
	txid := log.BeginTx()
	for _, rec := range []*Record{{Type: RecRedo, TxID: txid, LineAddr: 0x40}, {Type: RecCommit, TxID: txid}} {
		if _, err := log.Append(rec, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := ctl.Store()
	const size = 1 << 60
	entry := RegistryTableAddr + uint64(registryHeaderWords*8)
	st.WriteWord(entry+1*8, size)
	for _, c := range []struct {
		head, tail uint64
		want       int
	}{
		{head: size / 2, tail: 0, want: 2},
		{head: 1 << 20, tail: size - 3, want: 0},
	} {
		st.WriteWord(log.MetaAddr, c.head)
		st.WriteWord(log.MetaAddr+8, c.tail)
		loaded, err := LoadRegistry(st)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := loaded.Log(0).Scan(st)
		runtime.ReadMemStats(&after)
		if err != nil || len(recs) != c.want {
			t.Fatalf("head %#x tail %#x: scanned %d records, err %v; want %d", c.head, c.tail, len(recs), err, c.want)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("head %#x tail %#x: scan allocated %d bytes", c.head, c.tail, n)
		}
	}
}

// TestThreadLogFullAndGrow checks the log-overflow path and OS growth.
func TestThreadLogFullAndGrow(t *testing.T) {
	ctl := newTestController()
	reg := NewRegistry(ctl, 1, 512, 64) // 64 words usable
	log := reg.Log(0)
	txid := log.BeginTx()
	var sawFull bool
	for i := 0; i < 20; i++ {
		if _, err := log.Append(&Record{Type: RecRedo, TxID: txid, LineAddr: uint64(i)}, 0); err != nil {
			if !errors.Is(err, ErrLogFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatalf("log never filled")
	}
	log.EndTx(txid)
	if !reg.GrowLog(0, 2) {
		t.Fatalf("GrowLog failed")
	}
	txid = log.BeginTx()
	for i := 0; i < 12; i++ {
		if _, err := log.Append(&Record{Type: RecRedo, TxID: txid, LineAddr: uint64(i)}, 0); err != nil {
			t.Fatalf("append after growth failed at %d: %v", i, err)
		}
	}
}

// TestAppendCountsRecords checks that each successful Append counts one
// log record, whatever its type and whether or not it wraps the end of the
// buffer, that a sentinel also counts one sentinel record, and that a record
// refused with ErrLogFull counts nothing.
func TestAppendCountsRecords(t *testing.T) {
	cfg := config.Default()
	st := stats.New(cfg.NumCores)
	reg := NewRegistry(memdev.NewController(cfg, memdev.NewStore(), st), 1, 512, 64) // 64 words usable
	log := reg.Log(0)
	var records, sentinels uint64
	appendRec := func(rec Record, wantErr error) {
		t.Helper()
		if _, err := log.Append(&rec, 0); !errors.Is(err, wantErr) {
			t.Fatalf("append %v: error %v, want %v", rec.Type, err, wantErr)
		}
		if wantErr == nil {
			records++
			if rec.Type == RecSentinel {
				sentinels++
			}
		}
		if st.LogRecords != records || st.SentinelRecords != sentinels {
			t.Fatalf("after a %v append: %d log records and %d sentinel records, want %d and %d",
				rec.Type, st.LogRecords, st.SentinelRecords, records, sentinels)
		}
	}
	txid := log.BeginTx()
	for i := 0; i < 6; i++ { // 60 of the 63 free words
		appendRec(Record{Type: RecRedo, TxID: txid, LineAddr: uint64(i)}, nil)
	}
	appendRec(Record{Type: RecRedo, TxID: txid, LineAddr: 6}, ErrLogFull)
	appendRec(Record{Type: RecSentinel, TxID: txid, DepThread: 1, DepTxID: 1}, nil)
	appendRec(Record{Type: RecCommit, TxID: txid}, ErrLogFull)
	log.EndTx(txid)

	txid = log.BeginTx()
	head := log.head
	appendRec(Record{Type: RecUndo, TxID: txid, LineAddr: 7}, nil)
	if log.head >= head {
		t.Fatalf("head moved from %d to %d: the record did not wrap", head, log.head)
	}
	for _, typ := range []RecordType{RecCommit, RecComplete, RecAbort} {
		appendRec(Record{Type: typ, TxID: txid}, nil)
	}
}

// TestRegistryReload checks that LoadRegistry reconstructs the same geometry
// from the persistent image alone.
func TestRegistryReload(t *testing.T) {
	ctl := newTestController()
	reg := NewRegistry(ctl, 3, 32*1024, 128)
	log := reg.Log(2)
	txid := log.BeginTx()
	_, _ = log.Append(&Record{Type: RecRedo, TxID: txid, LineAddr: 0x1234 &^ 63, Data: memdev.Line{5}}, 0)
	_, _ = log.Append(&Record{Type: RecCommit, TxID: txid}, 0)

	loaded, err := LoadRegistry(ctl.Store())
	if err != nil {
		t.Fatalf("LoadRegistry: %v", err)
	}
	if loaded.Threads() != 3 {
		t.Fatalf("reloaded %d threads, want 3", loaded.Threads())
	}
	recs, err := loaded.Log(2).Scan(ctl.Store())
	if err != nil {
		t.Fatalf("Scan on reloaded log: %v", err)
	}
	if len(recs) != 2 || recs[1].Type != RecCommit {
		t.Fatalf("reloaded log contents wrong: %+v", recs)
	}
}

// TestRegistryLoadReusesHandles checks that Registry.Load refills the
// handles a registry already holds: loading images of 3, 2 and again 3
// threads into one registry keeps every handle it had, reads each image as
// LoadRegistry does, and stops at a bad image without touching the handles.
func TestRegistryLoadReusesHandles(t *testing.T) {
	images := make([]*memdev.Store, 0, 3)
	for i, n := range []int{3, 2, 3} {
		ctl := newTestController()
		reg := NewRegistry(ctl, n, (i+1)*1024, 16*(i+1))
		ov := reg.Overflow(n - 1)
		if _, err := ov.Append(0x40, 0); err != nil {
			t.Fatal(err)
		}
		images = append(images, ctl.Store())
	}
	var r Registry
	var held []*ThreadLog
	for i, st := range images {
		if err := r.Load(st); err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		want, err := LoadRegistry(st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&r, want) {
			t.Fatalf("image %d: Load gave %+v, LoadRegistry %+v", i, r, want)
		}
		if held == nil {
			held = slices.Clone(r.logs)
		}
		for th := range r.Threads() {
			if r.Log(th) != held[th] {
				t.Fatalf("image %d: thread %d's log handle was reallocated", i, th)
			}
		}
	}
	if err := r.Load(memdev.NewStore()); err == nil || r.Threads() != 3 || r.Log(0) != held[0] {
		t.Fatalf("Load of an image without a registry: err %v, %d threads", err, r.Threads())
	}
}

// TestOverflowList checks append/read-back/clear of the overflow list.
func TestOverflowList(t *testing.T) {
	ctl := newTestController()
	reg := NewRegistry(ctl, 1, 4*1024, 4)
	ov := reg.Overflow(0)
	for i := 0; i < 4; i++ {
		if _, err := ov.Append(uint64(i)*64, 0); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if _, err := ov.Append(999, 0); !errors.Is(err, ErrOverflowListFull) {
		t.Fatalf("expected ErrOverflowListFull, got %v", err)
	}
	entries := ov.Entries(ctl.Store())
	if len(entries) != 4 || entries[2] != 128 {
		t.Fatalf("entries wrong: %v", entries)
	}
	ov.Clear()
	if got := ov.Entries(ctl.Store()); len(got) != 0 {
		t.Fatalf("entries survive Clear: %v", got)
	}
}

// TestPropertyLogScanMatchesAppends: whatever sequence of records is appended
// (within capacity), a scan returns exactly that sequence in order.
func TestPropertyLogScanMatchesAppends(t *testing.T) {
	f := func(lineAddrs []uint16) bool {
		if len(lineAddrs) > 100 {
			lineAddrs = lineAddrs[:100]
		}
		ctl := newTestController()
		reg := NewRegistry(ctl, 1, 128*1024, 64)
		log := reg.Log(0)
		txid := log.BeginTx()
		for _, a := range lineAddrs {
			rec := &Record{Type: RecRedo, TxID: txid, LineAddr: uint64(a) * 64, Data: memdev.Line{uint64(a)}}
			if _, err := log.Append(rec, 0); err != nil {
				return false
			}
		}
		recs, err := log.Scan(ctl.Store())
		if err != nil || len(recs) != len(lineAddrs) {
			return false
		}
		for i, a := range lineAddrs {
			if recs[i].LineAddr != uint64(a)*64 || recs[i].Data[0] != uint64(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
