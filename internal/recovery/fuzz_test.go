package recovery

import (
	"encoding/binary"
	"testing"

	"dhtm/internal/memdev"
)

// rawLineBytes is the size of one line of a raw fuzz image: its address and
// its eight words, little-endian.
const rawLineBytes = 8 + memdev.LineBytes

// rawImage builds a persistent-memory image from raw lines; a trailing
// partial line is dropped. Unlike the gob format of memdev.Store.Save, the
// encoding allocates nothing beyond its input, and a mutated byte lands
// directly on a registry, log-metadata or record word.
func rawImage(b []byte) *memdev.Store {
	st := memdev.NewStore()
	for ; len(b) >= rawLineBytes; b = b[rawLineBytes:] {
		var l memdev.Line
		for i := range l {
			l[i] = binary.LittleEndian.Uint64(b[8+8*i:])
		}
		st.WriteLine(binary.LittleEndian.Uint64(b), l)
	}
	return st
}

// FuzzRecover feeds mutated crash images to Recover, which must return — a
// report or an error — and never panic or hang, however the registry, the
// log geometry, the head/tail words or the records are corrupted. The seed
// corpus in testdata/fuzz/FuzzRecover holds the registry and log lines
// (everything below wal.HeapBase: all recovery reads) of real crash images:
// a DHTM one with a committed-but-incomplete transaction to replay and an
// ATOM one with an uncommitted transaction to roll back.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, image []byte) {
		Recover(rawImage(image)) //nolint:errcheck // any outcome but a panic or a hang passes
	})
}
