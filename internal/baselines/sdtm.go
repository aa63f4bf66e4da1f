package baselines

import (
	"slices"

	"dhtm/internal/htm"
	"dhtm/internal/txn"
)

// SdTM is the "software durability + hardware transactional memory" baseline
// (PHyTM-style): an RTM-like HTM provides atomic visibility and a
// Mnemosyne-style software redo log provides atomic durability. The log
// entries are ordinary stores issued inside the hardware transaction, so they
// join the write set and roughly double its footprint (Figure 1b), which in
// turn drives up the abort rate (Table V). The log is flushed and the commit
// record made durable on the critical path after the HTM commit, before the
// thread may proceed.
type SdTM struct {
	*htmBase
	// softCursor is the per-core cursor into the in-cache software log area;
	// entries are 16 bytes so every fourth entry starts a new cache line that
	// becomes part of the transaction's write set.
	softCursor []uint64
	// dataLines is the per-core scratch list of the committing write set's
	// data lines (its lines outside the software log area).
	dataLines [][]uint64
}

// NewSdTM builds the sdTM runtime and installs its arbiter.
func NewSdTM(env *txn.Env) *SdTM {
	s := &SdTM{htmBase: newHTMBase(env, false), dataLines: make([][]uint64, env.Cfg.NumCores)}
	for i := 0; i < env.Cfg.NumCores; i++ {
		s.softCursor = append(s.softCursor, softLogBase+uint64(i)*softLogBytesPerCore)
	}
	s.Hooks = htm.Hooks{Write: s.write, Commit: s.commitDurable, Persist: s.PersistRedo}
	return s
}

// Name implements txn.Runtime.
func (s *SdTM) Name() string { return "sdTM" }

// write issues the data store plus the software log-entry store inside the
// hardware transaction.
func (s *SdTM) write(core int, c txn.Clock, addr, val uint64) {
	s.Store(core, c, addr, val)
	// Software redo-log entry: (address, value), 16 bytes, written inside the
	// transaction. Writing the first word of the entry is enough to bring the
	// log line into the write set.
	entry := s.nextEntryAddr(core)
	s.Store(core, c, entry, addr)
	s.Store(core, c, entry+8, val)
}

// nextEntryAddr returns the address of the next 16-byte software log entry
// for core, wrapping within the per-core region.
func (s *SdTM) nextEntryAddr(core int) uint64 {
	base := softLogBase + uint64(core)*softLogBytesPerCore
	off := s.softCursor[core]
	entry := off
	next := off + 16
	if next >= base+softLogBytesPerCore {
		next = base
	}
	s.softCursor[core] = next
	return entry
}

// commitDurable performs the HTM commit for visibility and then, on the
// critical path, makes the transaction durable: the software log entries of
// its data lines are flushed (the redo records), a fence drains them, and
// the commit record is persisted. Only then may the core move on.
func (s *SdTM) commitDurable(core int, c txn.Clock) bool {
	log := s.Env.Registry.Log(core)
	s.commitVisibility(core)

	txid := log.BeginTx()
	lines := slices.DeleteFunc(append(s.dataLines[core][:0], s.Ctxs[core].WriteLines.Keys()...), s.isSoftLogLine)
	s.dataLines[core] = lines
	redo := htm.NewRedoLog(s.Env, core)
	redo.Record(c, txid, lines...)
	redo.Commit(c, txid)
	// In-place data persists lazily via evictions (Mnemosyne defers log
	// truncation); the measured window treats the log space as ample.
	log.EndTx(txid)
	return true
}

// isSoftLogLine reports whether a line belongs to the in-cache software log
// region (those lines inflate the write set but are not data to log).
func (s *SdTM) isSoftLogLine(la uint64) bool {
	return la >= softLogBase && la < softLogBase+uint64(s.Cfg.NumCores)*softLogBytesPerCore
}
