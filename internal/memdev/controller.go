package memdev

import (
	"dhtm/internal/config"
	"dhtm/internal/stats"
)

// TrafficClass labels NVM traffic for accounting purposes and, at finer
// granularity, classifies each durable write for the persist observer: the
// crash-point explorer uses the class to tell a redo append from a commit
// marker from an in-place write-back when numbering crash points.
type TrafficClass int

const (
	// TrafficData is in-place data movement (line fills and write-backs).
	TrafficData TrafficClass = iota
	// TrafficLog is generic durable-log traffic (software log flushes and
	// other log writes that carry no record-type information).
	TrafficLog
	// TrafficLogRedo through TrafficLogSentinel are durable log-record
	// appends, classified by the record type they carry.
	TrafficLogRedo
	TrafficLogUndo
	TrafficLogCommit
	TrafficLogComplete
	TrafficLogAbort
	TrafficLogSentinel
	// TrafficLogOverflow is an overflow-list entry (an overflowed write-set
	// line address).
	TrafficLogOverflow
	// TrafficLogMeta is durable log metadata: head/tail pointers, overflow
	// counts and registry entries — including the truncation writes that
	// release log space.
	TrafficLogMeta
)

// IsLog reports whether the class is accounted as durable-log traffic.
func (c TrafficClass) IsLog() bool { return c != TrafficData }

// String implements fmt.Stringer (the crash-point report keys on it).
func (c TrafficClass) String() string {
	switch c {
	case TrafficData:
		return "data"
	case TrafficLog:
		return "log"
	case TrafficLogRedo:
		return "log-redo"
	case TrafficLogUndo:
		return "log-undo"
	case TrafficLogCommit:
		return "log-commit"
	case TrafficLogComplete:
		return "log-complete"
	case TrafficLogAbort:
		return "log-abort"
	case TrafficLogSentinel:
		return "log-sentinel"
	case TrafficLogOverflow:
		return "log-overflow"
	case TrafficLogMeta:
		return "log-meta"
	default:
		return "unknown"
	}
}

// PersistEvent describes one durable write about to reach the persistent
// image. Data aliases a controller-internal buffer and is valid only for the
// duration of the PersistWrite call; observers that keep it must copy.
type PersistEvent struct {
	// Class labels what the write is (record append, metadata, in-place data).
	Class TrafficClass
	// Addr is the first byte address written; words land at Addr, Addr+8, ...
	Addr uint64
	// Data holds the 8-byte words being written.
	Data []uint64
	// Charged reports whether the write went through the bandwidth model
	// (false for functional completions whose timing was reserved earlier and
	// for metadata the hardware persists off the critical path).
	Charged bool
}

// PersistObserver sees every durable write in program order, numbered by seq
// from zero. It is invoked *before* the write reaches the backing store, so an
// observer that snapshots the store when seq == k captures exactly the image
// in which writes 0..k-1 are durable and write k is not — the crash model the
// torture-testing subsystem explores.
type PersistObserver interface {
	PersistWrite(seq uint64, ev PersistEvent)
}

// Controller is the persistent-memory controller. It performs the functional
// access against the backing Store and charges device latency plus channel
// occupancy, so that heavy logging from one core delays everybody else's
// memory traffic — the effect behind Figure 6 and Table VII of the paper.
//
// The controller is used from the single core that currently holds the
// scheduling token, so it needs no locking.
type Controller struct {
	cfg   config.Config
	store *Store
	st    *stats.Stats

	// channelFreeAt is the cycle at which the memory channel next becomes
	// idle. Requests issued earlier queue behind it.
	channelFreeAt uint64

	// obs, when non-nil, observes every durable write; obsSeq numbers them.
	// obsScratch stages single-word and line payloads so notifying never
	// allocates.
	obs        PersistObserver
	obsSeq     uint64
	obsScratch Line
}

// NewController wires a controller to a backing store.
func NewController(cfg config.Config, store *Store, st *stats.Stats) *Controller {
	return &Controller{cfg: cfg, store: store, st: st}
}

// Store exposes the durable backing store (recovery and verification read it
// directly; timed accesses should go through the controller).
func (c *Controller) Store() *Store { return c.store }

// Config returns the controller's configuration.
func (c *Controller) Config() config.Config { return c.cfg }

// SetPersistObserver installs (or, with nil, removes) the observer notified of
// every durable write from now on. The event sequence restarts at zero.
func (c *Controller) SetPersistObserver(o PersistObserver) {
	c.obs = o
	c.obsSeq = 0
}

// notify delivers one pre-apply persist event to the observer.
func (c *Controller) notify(class TrafficClass, addr uint64, data []uint64, charged bool) {
	c.obs.PersistWrite(c.obsSeq, PersistEvent{Class: class, Addr: addr, Data: data, Charged: charged})
	c.obsSeq++
}

// occupy reserves channel time for n bytes starting no earlier than at and
// returns the cycle at which the transfer begins.
func (c *Controller) occupy(n int, at uint64) uint64 {
	start := at
	if c.channelFreeAt > start {
		start = c.channelFreeAt
	}
	c.channelFreeAt = start + c.cfg.TransferCycles(n)
	return start
}

// ReadLine fetches the line containing addr. The returned cycle is when the
// data is available at the LLC.
func (c *Controller) ReadLine(addr uint64, at uint64) (Line, uint64) {
	start := c.occupy(LineBytes, at)
	if c.st != nil {
		c.st.DataReadBytes += LineBytes
	}
	return c.store.ReadLine(addr), start + c.cfg.NVMReadLatency
}

// WriteLine writes a full line in place. The returned cycle is when the write
// is durable.
func (c *Controller) WriteLine(addr uint64, data Line, at uint64, class TrafficClass) uint64 {
	start := c.occupy(LineBytes, at)
	if c.obs != nil {
		c.obsScratch = data
		c.notify(class, addr, c.obsScratch[:], true)
	}
	c.store.WriteLine(addr, data)
	c.account(LineBytes, class)
	return start + c.cfg.NVMWriteLatency
}

// WriteWord writes a single 8-byte word, charging bandwidth for it. It is
// the allocation-free primitive behind per-append metadata persists (log head
// pointers, overflow-list counts).
func (c *Controller) WriteWord(addr uint64, word uint64, at uint64, class TrafficClass) uint64 {
	start := c.occupy(8, at)
	if c.obs != nil {
		c.obsScratch[0] = word
		c.notify(class, addr, c.obsScratch[:1], true)
	}
	c.store.WriteWord(addr, word)
	c.account(8, class)
	return start + c.cfg.NVMWriteLatency
}

// WriteWords writes a sequence of 8-byte words starting at addr (8-byte
// aligned), charging bandwidth for the actual byte count. It is the primitive
// used for durable log appends and overflow-list entries, which the paper's
// hardware streams past the LLC straight to memory.
func (c *Controller) WriteWords(addr uint64, words []uint64, at uint64, class TrafficClass) uint64 {
	n := len(words) * 8
	if n == 0 {
		return at
	}
	start := c.occupy(n, at)
	if c.obs != nil {
		c.notify(class, addr, words, true)
	}
	for i, w := range words {
		c.store.WriteWord(addr+uint64(i*8), w)
	}
	c.account(n, class)
	return start + c.cfg.NVMWriteLatency
}

// PersistLine applies a functional line write to the durable image without
// charging channel occupancy — its timing was reserved earlier (DHTM's
// completion write-backs) or it models state the hardware persists off the
// critical path. Functionally it is a durable write, so it fires the persist
// observer like any charged write.
func (c *Controller) PersistLine(addr uint64, data Line, class TrafficClass) {
	if c.obs != nil {
		c.obsScratch = data
		c.notify(class, addr, c.obsScratch[:], false)
	}
	c.store.WriteLine(addr, data)
}

// PersistWord is PersistLine's single-word counterpart (log head/tail
// pointers, overflow counts, registry entries).
func (c *Controller) PersistWord(addr uint64, word uint64, class TrafficClass) {
	if c.obs != nil {
		c.obsScratch[0] = word
		c.notify(class, addr, c.obsScratch[:1], false)
	}
	c.store.WriteWord(addr, word)
}

// ReserveWrite reserves channel occupancy and device write latency for n
// bytes without performing a functional write. DHTM's commit uses it to
// account for the completion phase's in-place write-backs at the moment the
// hardware issues them, while the functional effect is applied when the
// completion phase finishes (keeping the crash model honest: the data is not
// in the durable image until completion).
func (c *Controller) ReserveWrite(n int, at uint64, class TrafficClass) uint64 {
	if n <= 0 {
		return at
	}
	start := c.occupy(n, at)
	c.account(n, class)
	return start + c.cfg.NVMWriteLatency
}

// ReserveRead reserves channel occupancy and device read latency for n
// bytes without a functional read, counting them as data reads. DHTM's
// commit and abort read their overflow list back with it: the simulator
// already holds the overflowed lines, so only the read's cost is modelled.
func (c *Controller) ReserveRead(n int, at uint64) uint64 {
	if n <= 0 {
		return at
	}
	start := c.occupy(n, at)
	if c.st != nil {
		c.st.DataReadBytes += uint64(n)
	}
	return start + c.cfg.NVMReadLatency
}

// CountRecord counts one log record appended to a durable log. It is the
// one place log records are counted (wal.ThreadLog.Append calls it), so
// every design's LogRecords means the same thing.
func (c *Controller) CountRecord(class TrafficClass) {
	if c.st == nil {
		return
	}
	c.st.LogRecords++
	if class == TrafficLogSentinel {
		c.st.SentinelRecords++
	}
}

// account records write traffic in the global statistics.
func (c *Controller) account(n int, class TrafficClass) {
	if c.st == nil {
		return
	}
	if class.IsLog() {
		c.st.LogBytes += uint64(n)
	} else {
		c.st.DataWriteBytes += uint64(n)
	}
}
