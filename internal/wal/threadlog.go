package wal

import (
	"errors"
	"fmt"

	"dhtm/internal/memdev"
)

// ErrLogFull is returned when a record does not fit in the live region of a
// thread log. Designs translate it into a log-overflow abort; the OS then
// grows the log and the transaction retries (§III-A of the paper).
var ErrLogFull = errors.New("wal: thread log full")

// ThreadLog is one thread's durable transaction log: a circular buffer of
// 8-byte words in persistent memory, with its head and tail offsets persisted
// in a small metadata block so the recovery manager can locate the live
// records after a crash.
//
// The hardware keeps the equivalent of the head pointer in a register
// (Table II); persisting it alongside each append stands in for the record
// validity detection (checksums / epoch bits) a real implementation would use
// and costs one extra word of metadata per append, which is charged to the
// bandwidth model.
type ThreadLog struct {
	Thread    int
	Base      uint64 // first data word address
	SizeWords int
	// MaxWords is the size of the reserved region; Grow may raise SizeWords
	// up to this limit when the OS responds to a log-overflow abort.
	MaxWords int
	MetaAddr uint64 // two persisted words: head offset, tail offset

	ctl *memdev.Controller

	head, tail int // word offsets into the data area (in-memory mirrors)

	nextTx uint64
	// live tracks the start offset of every transaction whose records may
	// still be needed (active, committing, or committed-but-incomplete), in
	// begin order, so the tail can advance when the oldest one finishes.
	// Finished prefixes are compacted in place (the backing array is reused)
	// rather than re-sliced away, so steady-state operation never allocates.
	live []liveTx

	// scratch is the reused encode buffer for Append; it grows to the largest
	// record ever appended (11 words) and is never reallocated afterwards.
	scratch []uint64
}

type liveTx struct {
	txid  uint64
	start int
}

// newThreadLog wires a log onto an already-reserved persistent region of
// maxWords capacity, of which sizeWords are initially usable.
func newThreadLog(ctl *memdev.Controller, thread int, base uint64, sizeWords, maxWords int, metaAddr uint64) *ThreadLog {
	l := &ThreadLog{
		Thread:    thread,
		Base:      base,
		SizeWords: sizeWords,
		MaxWords:  maxWords,
		MetaAddr:  metaAddr,
		ctl:       ctl,
		nextTx:    1,
	}
	l.persistMeta()
	return l
}

// attach makes l the handle of a log from persisted metadata (used by the
// recovery manager, which has no in-memory state).
func (l *ThreadLog) attach(store *memdev.Store, thread int, base uint64, sizeWords int, metaAddr uint64) {
	*l = ThreadLog{
		Thread:    thread,
		Base:      base,
		SizeWords: sizeWords,
		MaxWords:  sizeWords,
		MetaAddr:  metaAddr,
		head:      int(store.ReadWord(metaAddr)),
		tail:      int(store.ReadWord(metaAddr + 8)),
		nextTx:    1,
	}
}

// persistMeta writes the head/tail offsets to persistent memory (functional
// only; the append that triggered it already paid for the bandwidth). Each
// word is a durable write — a log truncation the recovery manager will see —
// so both go through the controller's persist-observer path.
func (l *ThreadLog) persistMeta() {
	if l.ctl == nil {
		return
	}
	l.ctl.PersistWord(l.MetaAddr, uint64(l.head), memdev.TrafficLogMeta)
	l.ctl.PersistWord(l.MetaAddr+8, uint64(l.tail), memdev.TrafficLogMeta)
}

// BeginTx allocates a new transaction ID and remembers where its records
// start so the log can be truncated once the transaction finishes.
func (l *ThreadLog) BeginTx() uint64 {
	id := l.nextTx
	l.nextTx++
	l.live = append(l.live, liveTx{txid: id, start: l.head})
	return id
}

// EndTx marks a transaction's records as no longer needed (it reached
// commit-complete or abort-complete) and advances the persisted tail past any
// prefix of finished transactions.
func (l *ThreadLog) EndTx(txid uint64) {
	for i := range l.live {
		if l.live[i].txid == txid {
			l.live[i].txid = 0 // finished marker
			break
		}
	}
	finished := 0
	for finished < len(l.live) && l.live[finished].txid == 0 {
		finished++
	}
	if finished > 0 {
		copy(l.live, l.live[finished:])
		l.live = l.live[:len(l.live)-finished]
	}
	if len(l.live) == 0 {
		l.tail = l.head
	} else {
		l.tail = l.live[0].start
	}
	l.persistMeta()
}

// used returns the number of live words in the circular buffer.
func (l *ThreadLog) used() int {
	if l.head >= l.tail {
		return l.head - l.tail
	}
	return l.SizeWords - l.tail + l.head
}

// Free returns the number of words that can still be appended.
func (l *ThreadLog) Free() int { return l.SizeWords - 1 - l.used() }

// Append serialises rec into the log's reused scratch buffer, writes it to
// persistent memory at the log head and returns the cycle at which the record
// is durable. The write is charged to the memory-channel bandwidth model,
// plus one metadata word for persisting the head pointer. Each appended
// record counts as one log record (a sentinel also as one sentinel record),
// whether or not it wraps; a record refused with ErrLogFull counts nothing.
//
// Metadata accounting: each append changes exactly one metadata word — the
// head offset — and that word's persist is charged to the bandwidth model
// alongside the record. The tail offset does not change during an append
// (only EndTx/Reset/Grow move it), so no tail write is issued or charged
// here; EndTx persists the new tail functionally only, standing in for the
// tail register the hardware keeps on-chip (Table II) whose lazy persistence
// is off every transaction's critical path.
func (l *ThreadLog) Append(rec *Record, at uint64) (uint64, error) {
	rec.Thread = l.Thread
	l.scratch = rec.EncodeTo(l.scratch[:0])
	words := l.scratch
	if len(words) > l.Free() {
		return at, ErrLogFull
	}
	done, class := at, rec.Type.TrafficClass()
	// The record may wrap around the end of the circular buffer; issue up to
	// two contiguous writes.
	remaining := words
	off := l.head
	for len(remaining) > 0 {
		chunk := remaining
		if off+len(chunk) > l.SizeWords {
			chunk = remaining[:l.SizeWords-off]
		}
		d := l.ctl.WriteWords(l.Base+uint64(off*8), chunk, at, class)
		if d > done {
			done = d
		}
		off = (off + len(chunk)) % l.SizeWords
		remaining = remaining[len(chunk):]
	}
	l.head = off
	// One extra metadata word accounts for persisting the head pointer.
	d := l.ctl.WriteWord(l.MetaAddr, uint64(l.head), at, memdev.TrafficLogMeta)
	if d > done {
		done = d
	}
	l.ctl.CountRecord(class)
	return done, nil
}

// readWord reads the word at data-area offset off from a store image.
func (l *ThreadLog) readWord(store *memdev.Store, off int) uint64 {
	return store.ReadWord(l.Base + uint64(off*8))
}

// Walk decodes every live record (tail to head) from the given persistent
// memory image and passes each to fn in log order, with off, the data-area
// offset of its header. The line of a redo or undo record is not read: fn
// gets the record with a zero Data, and LineAt(store, off) reads it. A
// corrupt head or tail is an error before any record; a truncated record is
// an error after fn has seen every record before it.
func (l *ThreadLog) Walk(store *memdev.Store, fn func(rec Record, off int)) error {
	head := int(store.ReadWord(l.MetaAddr))
	tail := int(store.ReadWord(l.MetaAddr + 8))
	if head < 0 || head >= l.SizeWords || tail < 0 || tail >= l.SizeWords {
		return fmt.Errorf("wal: thread %d log has corrupt head/tail %d/%d", l.Thread, head, tail)
	}
	liveWords := head - tail
	if liveWords < 0 {
		liveWords += l.SizeWords
	}
	// Records are decoded one at a time from the image, so records that wrap
	// decode contiguously and a corrupt head, tail or log size costs the
	// words actually read — zeroed space ends the scan — not the span it
	// claims.
	offset := func(i int) int { // the data-area offset of the i-th live word
		if i < l.SizeWords-tail {
			return tail + i
		}
		return i - (l.SizeWords - tail)
	}
	for idx := 0; idx < liveWords; {
		var buf [1 + 2]uint64 // a header and the payload words besides a line
		off := offset(idx)
		buf[0] = l.readWord(store, off)
		t, _, _ := unpackHeader(buf[0])
		n := 1 + payloadWords(t)
		if idx+n > liveWords {
			return errTruncated(t, idx)
		}
		m := min(n, len(buf))
		if t == RecRedo || t == RecUndo {
			m = 2 // the line address; LineAt reads the line
		}
		for i := 1; i < m; i++ {
			buf[i] = l.readWord(store, offset(idx+i))
		}
		rec := decodeFields(buf[0], buf[1:])
		if rec.Type == RecInvalid {
			// Zeroed space; nothing further is live.
			break
		}
		fn(rec, off)
		idx += n
	}
	return nil
}

// LineAt reads the line of the redo or undo record whose header Walk passed
// on at data-area offset off, wrapping around the end of the circular buffer
// as the record does.
func (l *ThreadLog) LineAt(store *memdev.Store, off int) memdev.Line {
	var line memdev.Line
	for i := range line {
		// A walked redo or undo record fits in the buffer, so its words
		// wrap at most once.
		o := off + 2 + i
		if o >= l.SizeWords {
			o -= l.SizeWords
		}
		line[i] = l.readWord(store, o)
	}
	return line
}

// Reset empties the log (used after recovery has replayed it, and by the
// OS-grows-the-log path after a log-overflow abort).
func (l *ThreadLog) Reset() {
	l.head, l.tail = 0, 0
	l.live = nil
	l.persistMeta()
}

// Grow enlarges the log capacity (the OS response to a log-overflow abort).
// The paper allocates a fresh, larger log; here the region was reserved with
// headroom so growth raises the usable size up to that reservation and
// reports whether any growth was possible. Growing empties the log, which is
// safe because it only happens after the offending transaction has reached
// abort-complete and no other transaction of this thread is live.
func (l *ThreadLog) Grow(factor int) bool {
	if factor <= 1 || l.SizeWords >= l.MaxWords || len(l.live) > 0 {
		return false
	}
	l.SizeWords *= factor
	if l.SizeWords > l.MaxWords {
		l.SizeWords = l.MaxWords
	}
	l.Reset()
	return true
}
