// Package htm provides the RTM-like hardware-transactional-memory machinery
// shared by every HTM-based design in the evaluation (NP, sdTM, LogTM-ATOM
// and DHTM): per-core transaction contexts with read/write-set bookkeeping,
// the read-set overflow Bloom signature kept next to the L1, the
// conflict-resolution policies (first-writer-wins and requester-wins), and
// the Runtime that executes transactions on them — begin, transactional
// accesses, the abort sweep, the retry loop and the software fallback —
// calling each design's Hooks for what it logs, commits and aborts.
package htm

import (
	"fmt"

	"dhtm/internal/config"
	"dhtm/internal/stats"
)

// State is the lifecycle state of a hardware transaction (Figure 3 of the
// paper). Committed and Aborted are the windows between the commit/abort
// point and the corresponding completion point; designs without a completion
// phase go straight back to Idle.
type State int

const (
	// Idle means no transaction is in flight on the core.
	Idle State = iota
	// Active means the transaction is executing.
	Active
	// Committed means the commit point was reached (log records durable) but
	// write-back completion is still pending.
	Committed
	// Aborted means the abort point was reached but overflow-invalidation
	// completion is still pending.
	Aborted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Signature is the read-set overflow signature: a Bloom filter over line
// addresses of read-set lines that were evicted from the L1. False positives
// are allowed (they cause spurious conflicts, as in real hardware); false
// negatives are not.
type Signature struct {
	bits  []uint64
	nbits uint64
	count int
}

// NewSignature builds a signature with the given number of bits (a power of
// two, per config validation).
func NewSignature(nbits int) *Signature {
	return &Signature{bits: make([]uint64, (nbits+63)/64), nbits: uint64(nbits)}
}

// hashes derives two independent bit positions from a line address.
func (s *Signature) hashes(lineAddr uint64) (uint64, uint64) {
	x := lineAddr >> 6
	// 64-bit mix (splitmix64 finaliser) for the first hash.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	h1 := x % s.nbits
	h2 := (x >> 32) % s.nbits
	return h1, h2
}

// Add inserts a line address.
func (s *Signature) Add(lineAddr uint64) {
	h1, h2 := s.hashes(lineAddr)
	s.bits[h1/64] |= 1 << (h1 % 64)
	s.bits[h2/64] |= 1 << (h2 % 64)
	s.count++
}

// Contains reports whether the line address may have been added.
func (s *Signature) Contains(lineAddr uint64) bool {
	if s.count == 0 {
		return false
	}
	h1, h2 := s.hashes(lineAddr)
	return s.bits[h1/64]&(1<<(h1%64)) != 0 && s.bits[h2/64]&(1<<(h2%64)) != 0
}

// Empty reports whether nothing has been added since the last Clear.
func (s *Signature) Empty() bool { return s.count == 0 }

// Clear resets the signature (flash clear at commit/abort).
func (s *Signature) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
	s.count = 0
}

// LineSet is a reusable set of cache-line addresses: open-addressing lookup
// with an insertion-ordered key slice for deterministic iteration. Clearing
// keeps the backing storage, so per-transaction read/write-set tracking costs
// no allocation in steady state (the map-based predecessor re-bucketed on
// every transaction). The zero value is not ready for use; call NewLineSet.
type LineSet struct {
	table []uint64 // open addressing; 0 = empty slot, else lineAddr+1
	keys  []uint64 // insertion order
	mask  uint64
}

// NewLineSet builds a set pre-sized for about hint lines (minimum 16).
func NewLineSet(hint int) *LineSet {
	n := 16
	for n < hint*2 {
		n <<= 1
	}
	return &LineSet{table: make([]uint64, n), mask: uint64(n - 1)}
}

// slotHash spreads a line address over the table (splitmix64 finaliser on the
// line number).
func slotHash(lineAddr uint64) uint64 {
	x := lineAddr >> 6
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of distinct line addresses in the set.
func (s *LineSet) Len() int { return len(s.keys) }

// Contains reports whether lineAddr is in the set.
func (s *LineSet) Contains(lineAddr uint64) bool {
	for i := slotHash(lineAddr) & s.mask; ; i = (i + 1) & s.mask {
		switch s.table[i] {
		case 0:
			return false
		case lineAddr + 1:
			return true
		}
	}
}

// Add inserts lineAddr, reporting whether it was newly added.
func (s *LineSet) Add(lineAddr uint64) bool {
	for i := slotHash(lineAddr) & s.mask; ; i = (i + 1) & s.mask {
		switch s.table[i] {
		case 0:
			s.table[i] = lineAddr + 1
			s.keys = append(s.keys, lineAddr)
			if uint64(len(s.keys))*4 >= uint64(len(s.table))*3 {
				s.grow()
			}
			return true
		case lineAddr + 1:
			return false
		}
	}
}

// grow doubles the table and re-inserts every key.
func (s *LineSet) grow() {
	n := len(s.table) * 2
	s.table = make([]uint64, n)
	s.mask = uint64(n - 1)
	for _, k := range s.keys {
		i := slotHash(k) & s.mask
		for s.table[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.table[i] = k + 1
	}
}

// Keys returns the line addresses in insertion order. The slice aliases the
// set's storage and is valid only until the next Add or Clear.
func (s *LineSet) Keys() []uint64 { return s.keys }

// Clear empties the set, keeping the backing storage for reuse.
func (s *LineSet) Clear() {
	if len(s.keys) == 0 {
		return
	}
	clear(s.table)
	s.keys = s.keys[:0]
}

// Ctx is the per-core transactional context.
type Ctx struct {
	State State
	// TxID is the durable-log transaction of the current attempt or fallback
	// (designs that log per attempt; other cores read DHTM's to resolve
	// sentinel dependencies).
	TxID   uint64
	Sig    *Signature
	Doomed bool
	Reason stats.AbortReason
	// Committing marks an Active transaction that passed its commit point
	// and is still persisting its write set in place (LogTM-ATOM's undo
	// commit): it can no longer abort, and a fallback waits for it to
	// finish before running its body.
	Committing bool

	// WriteLines and ReadLines track the distinct cache lines touched by the
	// current transaction. The hardware equivalents are the W/R bits plus the
	// overflow structures; the runtime keeps these mirrors for commit/abort
	// processing and for the write-set-size characterisation (Table IV).
	WriteLines *LineSet
	ReadLines  *LineSet
	// Overflowed holds the write-set lines that spilled from the L1 to the
	// LLC in sticky state (designs that allow write-set overflow). It is the
	// only record of which lines overflowed; the hierarchy asks it through
	// Runtime.Overflowed.
	Overflowed *LineSet

	// CompletionAt is the cycle at which the previous transaction's
	// completion phase (write-backs or overflow invalidations) finishes; a
	// new transaction may not begin before it.
	CompletionAt uint64
}

// NewCtx builds an idle context with a signature of the configured size.
func NewCtx(cfg config.Config) *Ctx {
	return &Ctx{
		Sig:        NewSignature(cfg.ReadSignatureBits),
		WriteLines: NewLineSet(64),
		ReadLines:  NewLineSet(64),
		Overflowed: NewLineSet(32),
	}
}

// BeginReset prepares the context for a new transaction attempt.
func (c *Ctx) BeginReset() {
	c.State = Active
	c.Doomed = false
	c.Committing = false
	c.Sig.Clear()
	c.WriteLines.Clear()
	c.ReadLines.Clear()
	c.Overflowed.Clear()
}

// Doom marks the transaction as having lost a conflict (or otherwise being
// forced to abort) so the owning core unwinds at its next transactional
// access.
func (c *Ctx) Doom(reason stats.AbortReason) {
	if c.State == Active && !c.Doomed {
		c.Doomed = true
		c.Reason = reason
	}
}

// OwnerShouldAbort applies a conflict-resolution policy: it reports whether
// the transaction currently holding the line (the "owner", i.e. the first
// writer) must abort so the requester can proceed. A non-transactional
// requester always wins, preserving strong isolation.
func OwnerShouldAbort(policy config.ConflictPolicy, requesterTx bool) bool {
	if !requesterTx {
		return true
	}
	return policy == config.RequesterWins
}
