package memdev

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dhtm/internal/config"
	"dhtm/internal/stats"
)

// TestStoreWordLineRoundtrip checks the word/line views are consistent.
func TestStoreWordLineRoundtrip(t *testing.T) {
	s := NewStore()
	s.WriteWord(0x1008, 42)
	s.WriteWord(0x1038, 7)
	line := s.ReadLine(0x1000)
	if line[1] != 42 || line[7] != 7 {
		t.Fatalf("line view %v does not reflect word writes", line)
	}
	s.WriteLine(0x2000, Line{1, 2, 3, 4, 5, 6, 7, 8})
	if got := s.ReadWord(0x2018); got != 4 {
		t.Fatalf("word view = %d, want 4", got)
	}
	if s.ReadWord(0x9999999000) != 0 {
		t.Fatalf("unwritten memory is not zero")
	}
}

// TestStoreSaveLoad checks image serialisation round-trips.
func TestStoreSaveLoad(t *testing.T) {
	s := NewStore()
	for i := uint64(0); i < 100; i++ {
		s.WriteWord(0x4000+i*8, i*i)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored := NewStore()
	if err := restored.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !s.Equal(restored) {
		t.Fatalf("restored image differs from the original")
	}
}

// TestPropertyStoreReadsWhatWasWritten is the basic memory property over
// random word writes (last write wins).
func TestPropertyStoreReadsWhatWasWritten(t *testing.T) {
	f := func(ops []struct {
		Addr uint16
		Val  uint64
	}) bool {
		s := NewStore()
		model := make(map[uint64]uint64)
		for _, op := range ops {
			addr := uint64(op.Addr) &^ 7
			s.WriteWord(addr, op.Val)
			model[addr] = op.Val
		}
		for addr, want := range model {
			if s.ReadWord(addr) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestControllerLatencyAndBandwidth checks that reads/writes include the
// device latency and that back-to-back transfers queue on the channel.
func TestControllerLatencyAndBandwidth(t *testing.T) {
	cfg := config.Default()
	st := stats.New(1)
	ctl := NewController(cfg, NewStore(), st)

	_, readyAt := ctl.ReadLine(0x1000, 100)
	if readyAt < 100+cfg.NVMReadLatency {
		t.Fatalf("read ready at %d, want at least %d", readyAt, 100+cfg.NVMReadLatency)
	}
	first := ctl.WriteLine(0x2000, Line{}, 1000, TrafficData)
	second := ctl.WriteLine(0x2040, Line{}, 1000, TrafficData)
	if second <= first {
		t.Fatalf("second write (%d) did not queue behind the first (%d)", second, first)
	}
	if second-first < cfg.LineTransferCycles() {
		t.Fatalf("channel occupancy between writes is %d cycles, want at least %d",
			second-first, cfg.LineTransferCycles())
	}
	if st.DataWriteBytes != 2*LineBytes {
		t.Fatalf("accounted %d data bytes, want %d", st.DataWriteBytes, 2*LineBytes)
	}
}

// TestControllerLogAccounting checks traffic classification.
func TestControllerLogAccounting(t *testing.T) {
	cfg := config.Default()
	st := stats.New(1)
	ctl := NewController(cfg, NewStore(), st)
	ctl.WriteWords(0x100, []uint64{1, 2, 3}, 0, TrafficLog)
	if st.LogBytes != 24 {
		t.Fatalf("log bytes = %d, want 24", st.LogBytes)
	}
	if got := ctl.Store().ReadWord(0x108); got != 2 {
		t.Fatalf("functional log write missing: %d", got)
	}
	done := ctl.ReserveWrite(64, 0, TrafficData)
	if done < cfg.NVMWriteLatency {
		t.Fatalf("ReserveWrite returned %d, want at least the write latency", done)
	}
}

// obsEvent is a copied persist event (PersistEvent.Data aliases controller
// scratch and must not be retained).
type obsEvent struct {
	seq      uint64
	class    TrafficClass
	addr     uint64
	data     []uint64
	charged  bool
	preWords []uint64 // store contents of the written words at notify time
}

// recordingObserver captures every persist event plus the store's pre-image
// of the written words, proving the pre-apply contract.
type recordingObserver struct {
	store  *Store
	events []obsEvent
}

func (r *recordingObserver) PersistWrite(seq uint64, ev PersistEvent) {
	pre := make([]uint64, len(ev.Data))
	for i := range pre {
		pre[i] = r.store.ReadWord(ev.Addr + uint64(i*8))
	}
	r.events = append(r.events, obsEvent{
		seq: seq, class: ev.Class, addr: ev.Addr,
		data: append([]uint64(nil), ev.Data...), charged: ev.Charged, preWords: pre,
	})
}

// TestPersistObserver checks the crash-point hook: every charged durable
// write (WriteLine, WriteWord, WriteWords) and every functional persist
// (PersistLine, PersistWord) fires exactly one observer event carrying the
// right class, address and payload; ReserveWrite — which writes nothing —
// fires none; events are invoked before the write reaches the store; and the
// sequence numbers are dense from zero.
func TestPersistObserver(t *testing.T) {
	cfg := config.Default()
	store := NewStore()
	ctl := NewController(cfg, store, stats.New(1))
	store.WriteWord(0x1000, 77) // pre-existing durable value
	obs := &recordingObserver{store: store}
	ctl.SetPersistObserver(obs)

	ctl.WriteLine(0x1000, Line{1, 2, 3, 4, 5, 6, 7, 8}, 0, TrafficData)
	ctl.WriteWord(0x2000, 42, 0, TrafficLogMeta)
	ctl.WriteWords(0x3000, []uint64{9, 8, 7}, 0, TrafficLogRedo)
	ctl.ReserveWrite(64, 0, TrafficData) // no functional write, no event
	ctl.PersistLine(0x4000, Line{11}, TrafficData)
	ctl.PersistWord(0x5000, 13, TrafficLogCommit)

	want := []struct {
		class   TrafficClass
		addr    uint64
		words   int
		charged bool
	}{
		{TrafficData, 0x1000, 8, true},
		{TrafficLogMeta, 0x2000, 1, true},
		{TrafficLogRedo, 0x3000, 3, true},
		{TrafficData, 0x4000, 8, false},
		{TrafficLogCommit, 0x5000, 1, false},
	}
	if len(obs.events) != len(want) {
		t.Fatalf("observed %d events, want %d: %+v", len(obs.events), len(want), obs.events)
	}
	for i, w := range want {
		ev := obs.events[i]
		if ev.seq != uint64(i) {
			t.Errorf("event %d: seq %d, want dense numbering", i, ev.seq)
		}
		if ev.class != w.class || ev.addr != w.addr || len(ev.data) != w.words || ev.charged != w.charged {
			t.Errorf("event %d = {class %v addr %#x words %d charged %v}, want {%v %#x %d %v}",
				i, ev.class, ev.addr, len(ev.data), ev.charged, w.class, w.addr, w.words, w.charged)
		}
	}
	// Pre-apply contract: the first event saw the old value 77 still in the
	// store while carrying the new payload.
	if obs.events[0].preWords[0] != 77 || obs.events[0].data[0] != 1 {
		t.Errorf("observer did not run pre-apply: pre=%d payload=%d", obs.events[0].preWords[0], obs.events[0].data[0])
	}
	// The writes still landed functionally.
	if store.ReadWord(0x1000) != 1 || store.ReadWord(0x3008) != 8 || store.ReadWord(0x5000) != 13 {
		t.Errorf("functional writes missing after observed persists")
	}
	if got := ctl.obsSeq; got != uint64(len(want)) {
		t.Errorf("persist sequence = %d, want %d", got, len(want))
	}
	// Removing the observer restarts the sequence and stops delivery.
	ctl.SetPersistObserver(nil)
	ctl.WriteWord(0x6000, 1, 0, TrafficData)
	if len(obs.events) != len(want) {
		t.Errorf("events delivered after observer removal")
	}
}

// TestTrafficClassAccounting checks every log-flavoured class accounts as log
// traffic, so the finer crash-point classes cannot skew the paper's
// byte counters.
func TestTrafficClassAccounting(t *testing.T) {
	st := stats.New(1)
	ctl := NewController(config.Default(), NewStore(), st)
	logClasses := []TrafficClass{TrafficLog, TrafficLogRedo, TrafficLogUndo, TrafficLogCommit,
		TrafficLogComplete, TrafficLogAbort, TrafficLogSentinel, TrafficLogOverflow, TrafficLogMeta}
	for _, c := range logClasses {
		if !c.IsLog() {
			t.Errorf("%v not accounted as log traffic", c)
		}
		ctl.WriteWord(0x100, 1, 0, c)
	}
	if TrafficData.IsLog() {
		t.Errorf("data traffic accounted as log")
	}
	if st.LogBytes != uint64(8*len(logClasses)) || st.DataWriteBytes != 0 {
		t.Errorf("accounting: log=%d data=%d, want %d/0", st.LogBytes, st.DataWriteBytes, 8*len(logClasses))
	}
}

// TestBandwidthScaling checks Table VII's knob: scaling bandwidth shrinks the
// per-line channel occupancy.
func TestBandwidthScaling(t *testing.T) {
	base := config.Default()
	scaled := config.Default()
	scaled.BandwidthScale = 10
	if scaled.LineTransferCycles() >= base.LineTransferCycles() {
		t.Fatalf("10x bandwidth does not reduce transfer cycles (%d vs %d)",
			scaled.LineTransferCycles(), base.LineTransferCycles())
	}
}
