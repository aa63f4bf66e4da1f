package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
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
// log geometry, the head/tail words or the records are corrupted. It must
// also agree with referenceRecover, which decodes every logged line before
// it writes any: the same report, the same error and an equal image — or
// reject the image because a record's line lies in a log's data area, the
// one case where reading lines lazily could differ. The seed corpus in
// testdata/fuzz/FuzzRecover holds the registry and log lines (everything
// below wal.HeapBase: all recovery reads) of real crash images — a DHTM one
// with a committed-but-incomplete transaction to replay and an ATOM one with
// an uncommitted transaction to roll back — and of two built ones: a
// replayed record whose line lies in its own log, and a replayed record
// that wraps around the end of its log.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, image []byte) {
		got, want := rawImage(image), rawImage(image)
		rep, err := Recover(got)
		if errors.Is(err, errLineInLog) {
			return
		}
		wantRep, wantErr := referenceRecover(want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("Recover = %+v, %v; reference %+v, %v", rep, err, wantRep, wantErr)
		}
		if !got.Equal(want) {
			t.Fatal("Recover and the reference left different images")
		}
	})
}
