// Package wal implements the durable transaction logs that DHTM and the
// baseline designs write to persistent memory: the per-thread circular log
// holding redo/undo records and transaction markers, the per-thread overflow
// list that records write-set lines which escaped the L1, and the registry
// the OS keeps so the recovery manager can find every log after a crash.
//
// Log contents are stored functionally in the memdev.Store (so recovery and
// the crash tests operate on real bytes) and every append is charged to the
// memory controller's bandwidth model.
package wal

import (
	"errors"
	"fmt"

	"dhtm/internal/memdev"
)

// RecordType identifies a log record.
type RecordType uint8

const (
	// RecInvalid marks unused log space.
	RecInvalid RecordType = iota
	// RecRedo carries the new value of one cache line (DHTM, SO, sdTM).
	RecRedo
	// RecUndo carries the old value of one cache line (ATOM, LogTM-ATOM).
	RecUndo
	// RecCommit marks the transaction as committed (durable).
	RecCommit
	// RecComplete marks all in-place data of a committed transaction durable.
	RecComplete
	// RecAbort logically clears the records of an aborted transaction.
	RecAbort
	// RecSentinel records that this transaction depends on (read data from)
	// another committed-but-incomplete transaction and must be replayed after
	// it. Payload: dependee thread ID and transaction ID.
	RecSentinel
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecInvalid:
		return "invalid"
	case RecRedo:
		return "redo"
	case RecUndo:
		return "undo"
	case RecCommit:
		return "commit"
	case RecComplete:
		return "complete"
	case RecAbort:
		return "abort"
	case RecSentinel:
		return "sentinel"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is the in-memory form of a log record.
type Record struct {
	Type   RecordType
	Thread int
	TxID   uint64

	// Redo/undo payload.
	LineAddr uint64
	Data     memdev.Line

	// Sentinel payload.
	DepThread int
	DepTxID   uint64
}

// Header packing: [ 8 bits type | 8 bits thread | 48 bits txid ].
const (
	typeShift   = 56
	threadShift = 48
	txidMask    = (uint64(1) << 48) - 1
)

func packHeader(t RecordType, thread int, txid uint64) uint64 {
	return uint64(t)<<typeShift | uint64(uint8(thread))<<threadShift | (txid & txidMask)
}

func unpackHeader(h uint64) (RecordType, int, uint64) {
	return RecordType(h >> typeShift), int((h >> threadShift) & 0xff), h & txidMask
}

// payloadWords returns the number of payload words following the header for
// each record type.
func payloadWords(t RecordType) int {
	switch t {
	case RecRedo, RecUndo:
		return 1 + memdev.WordsPerLine // line address + data
	case RecSentinel:
		return 2
	default:
		return 0
	}
}

// EncodeTo appends the record's serialised words (header first) to dst and
// returns the extended slice. Appending into a reused scratch buffer keeps
// the per-record hot path (ThreadLog.Append) allocation-free.
func (r *Record) EncodeTo(dst []uint64) []uint64 {
	dst = append(dst, packHeader(r.Type, r.Thread, r.TxID))
	switch r.Type {
	case RecRedo, RecUndo:
		dst = append(dst, r.LineAddr)
		dst = append(dst, r.Data[:]...)
	case RecSentinel:
		dst = append(dst, uint64(r.DepThread), r.DepTxID)
	}
	return dst
}

// Encode serialises the record into a fresh word slice (header first).
func (r *Record) Encode() []uint64 {
	return r.EncodeTo(make([]uint64, 0, 1+payloadWords(r.Type)))
}

// SizeWords returns the encoded size of the record in 8-byte words.
func (r *Record) SizeWords() int { return 1 + payloadWords(r.Type) }

// TrafficClass returns the memory-traffic class a record of type t is charged
// (and observed) under, so the persist observer can tell a redo append from a
// commit marker from a sentinel.
func (t RecordType) TrafficClass() memdev.TrafficClass {
	switch t {
	case RecRedo:
		return memdev.TrafficLogRedo
	case RecUndo:
		return memdev.TrafficLogUndo
	case RecCommit:
		return memdev.TrafficLogCommit
	case RecComplete:
		return memdev.TrafficLogComplete
	case RecAbort:
		return memdev.TrafficLogAbort
	case RecSentinel:
		return memdev.TrafficLogSentinel
	default:
		return memdev.TrafficLog
	}
}

// IsRecordClass reports whether a persist-event traffic class carries encoded
// log-record words (the classes RecordType.TrafficClass emits). Log-analysis
// tooling uses it to reassemble the record stream from persist events.
func IsRecordClass(c memdev.TrafficClass) bool {
	switch c {
	case memdev.TrafficLogRedo, memdev.TrafficLogUndo, memdev.TrafficLogCommit,
		memdev.TrafficLogComplete, memdev.TrafficLogAbort, memdev.TrafficLogSentinel:
		return true
	default:
		return false
	}
}

// HeaderInfo unpacks a record header word into its type, thread and
// transaction ID (exported for log-analysis tooling such as the crash-point
// explorer, which decodes records from observed persist events).
func HeaderInfo(h uint64) (RecordType, int, uint64) { return unpackHeader(h) }

// DecodeRecord decodes one record starting at word idx of a raw word slice,
// returning the record and the number of words consumed (HeaderInfo plus
// SizeWords tell a caller whether enough words have accumulated).
func DecodeRecord(words []uint64, idx int) (Record, int, error) { return decode(words, idx) }

// errTruncated reports a record of type t at word idx whose payload runs
// past the end of the words holding it.
func errTruncated(t RecordType, idx int) error {
	return fmt.Errorf("wal: truncated %s record at word %d", t, idx)
}

// decode reads one record starting at the given word index within a raw word
// slice, returning the record and the number of words consumed. A zero header
// decodes as RecInvalid with one word consumed.
func decode(words []uint64, idx int) (Record, int, error) {
	if idx >= len(words) {
		return Record{}, 0, errors.New("wal: decode past end of buffer")
	}
	t, _, _ := unpackHeader(words[idx])
	need := payloadWords(t)
	if idx+1+need > len(words) {
		return Record{}, 0, errTruncated(t, idx)
	}
	p := words[idx+1 : idx+1+need]
	r := decodeFields(words[idx], p)
	if t == RecRedo || t == RecUndo {
		copy(r.Data[:], p[1:])
	}
	return r, 1 + need, nil
}

// decodeFields decodes a record from its header h and the payload words p
// that follow it, all but a redo or undo record's line.
func decodeFields(h uint64, p []uint64) Record {
	t, thread, txid := unpackHeader(h)
	r := Record{Type: t, Thread: thread, TxID: txid}
	switch t {
	case RecRedo, RecUndo:
		r.LineAddr = p[0]
	case RecSentinel:
		r.DepThread = int(p[0])
		r.DepTxID = p[1]
	}
	return r
}
