package workloads

import (
	"fmt"
	"math/rand"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
)

// tatpWL is the TATP (Telecom Application Transaction Processing) workload:
// an in-memory mobile-carrier database with Subscriber, SpecialFacility and
// CallForwarding tables. Each ACID transaction is a batch of TATP operations
// dominated by the write transaction types (UPDATE_LOCATION,
// UPDATE_SUBSCRIBER_DATA, INSERT/DELETE_CALL_FORWARDING), sized so the
// write-set footprint lands in the same regime as the paper's Table IV
// (~167 cache lines, ~10 KB).
//
// Layout:
//
//	meta line:        [subscribers, 0...]                       (static)
//	subscriber s:     two lines: [s_id, bit1, vlr_location, msc_location,
//	                  cfCount, ... | derived location fields in line 2]
//	specialfacility:  4 per subscriber, one line: [valid, is_active, data_a, data_b]
//	callforwarding:   3 per (subscriber, sf_type), one line: [valid, start, end, number]
//
// The call-forwarding row count is kept per subscriber (word 4 of the
// subscriber row) rather than globally, mirroring how the TATP schema scopes
// CALL_FORWARDING to its subscriber and avoiding a global hot line.
type tatpWL struct {
	meta        uint64
	subscribers uint64
	facilities  uint64
	forwards    uint64
	numSubs     int
	opsPerTx    int
}

func newTATP() *tatpWL { return &tatpWL{} }

// Name implements Workload.
func (t *tatpWL) Name() string { return "tatp" }

const (
	tatpSubLines = 2
	tatpSFPerSub = 4
	tatpCFPerSF  = 3
)

// Lock-ID name spaces so different tables never alias.
const (
	tatpLockSub = uint64(1_000_000)
	tatpLockSF  = uint64(2_000_000)
)

// Setup implements Workload.
func (t *tatpWL) Setup(heap *palloc.Heap, p Params) error {
	t.numSubs = 1000
	t.opsPerTx = p.OpsPerTx
	if t.opsPerTx <= 0 {
		t.opsPerTx = 110
	}
	t.meta = heap.AllocLines(1)
	t.subscribers = heap.AllocLines(t.numSubs * tatpSubLines)
	t.facilities = heap.AllocLines(t.numSubs * tatpSFPerSub)
	t.forwards = heap.AllocLines(t.numSubs * tatpSFPerSub * tatpCFPerSF)

	rng := rand.New(rand.NewSource(p.Seed + 5))
	for s := 0; s < t.numSubs; s++ {
		var cfCount uint64
		sub := t.subAddr(s)
		heap.WriteWord(word(sub, 0), uint64(s)+1)
		heap.WriteWord(word(sub, 1), uint64(rng.Intn(2)))
		heap.WriteWord(word(sub, 2), rng.Uint64()%1_000_000)
		heap.WriteWord(word(sub, 3), rng.Uint64()%1_000_000)
		for f := 0; f < tatpSFPerSub; f++ {
			sf := t.sfAddr(s, f)
			valid := uint64(0)
			if rng.Intn(100) < 75 {
				valid = 1
			}
			heap.WriteWord(word(sf, 0), valid)
			heap.WriteWord(word(sf, 1), uint64(rng.Intn(2)))
			heap.WriteWord(word(sf, 2), rng.Uint64()%256)
			heap.WriteWord(word(sf, 3), rng.Uint64()%256)
			if valid == 0 {
				continue
			}
			for c := 0; c < tatpCFPerSF; c++ {
				if rng.Intn(100) >= 25 {
					continue
				}
				cf := t.cfAddr(s, f, c)
				heap.WriteWord(word(cf, 0), 1)
				heap.WriteWord(word(cf, 1), uint64(c*8))
				heap.WriteWord(word(cf, 2), uint64(c*8+rng.Intn(8)+1))
				heap.WriteWord(word(cf, 3), rng.Uint64()%1_000_000)
				cfCount++
			}
		}
		heap.WriteWord(word(sub, 4), cfCount)
	}
	heap.WriteWord(word(t.meta, 0), uint64(t.numSubs))
	return nil
}

func (t *tatpWL) subAddr(s int) uint64 {
	return t.subscribers + uint64(s)*tatpSubLines*uint64(memdev.LineBytes)
}

func (t *tatpWL) sfAddr(s, f int) uint64 {
	return line(t.facilities, s*tatpSFPerSub+f)
}

func (t *tatpWL) cfAddr(s, f, c int) uint64 {
	return line(t.forwards, (s*tatpSFPerSub+f)*tatpCFPerSF+c)
}

// tatpOp is one TATP operation within a batch.
type tatpOp struct {
	kind int // 0 update_location, 1 update_subscriber, 2 insert_cf, 3 delete_cf, 4 get_subscriber
	sub  int
	sf   int
	slot int
	val  uint64
}

// Next implements Workload.
func (t *tatpWL) Next(core int, rng *rand.Rand) *txn.Transaction {
	ops := make([]tatpOp, t.opsPerTx)
	lockSet := make(map[uint64]struct{})
	for i := range ops {
		r := rng.Intn(100)
		kind := 0
		switch {
		case r < 70:
			kind = 0 // UPDATE_LOCATION
		case r < 80:
			kind = 1 // UPDATE_SUBSCRIBER_DATA
		case r < 87:
			kind = 2 // INSERT_CALL_FORWARDING
		case r < 94:
			kind = 3 // DELETE_CALL_FORWARDING
		default:
			kind = 4 // GET_SUBSCRIBER_DATA
		}
		op := tatpOp{
			kind: kind,
			sub:  rng.Intn(t.numSubs),
			sf:   rng.Intn(tatpSFPerSub),
			slot: rng.Intn(tatpCFPerSF),
			val:  rng.Uint64()%1_000_000 + 1,
		}
		ops[i] = op
		lockSet[tatpLockSub+uint64(op.sub)] = struct{}{}
		if kind == 1 || kind == 2 || kind == 3 {
			lockSet[tatpLockSF+uint64(op.sub*tatpSFPerSub+op.sf)] = struct{}{}
		}
	}
	lockIDs := make([]uint64, 0, len(lockSet))
	for id := range lockSet {
		lockIDs = append(lockIDs, id)
	}
	return &txn.Transaction{
		Label:   "tatp-batch",
		LockIDs: lockIDs,
		Body: func(tx txn.Tx) error {
			for _, op := range ops {
				sub := t.subAddr(op.sub)
				switch op.kind {
				case 0: // UPDATE_LOCATION: rewrite the subscriber's location fields.
					tx.Write(word(sub, 2), op.val)
					tx.Write(word(sub, 3), op.val/2)
					// The second line of the row carries derived fields kept
					// in sync with the location.
					tx.Write(word(sub, 8), op.val%4096)
					tx.Write(word(sub, 9), op.val%251)
				case 1: // UPDATE_SUBSCRIBER_DATA: flip the bit and SF data.
					tx.Write(word(sub, 1), op.val%2)
					sf := t.sfAddr(op.sub, op.sf)
					if tx.Read(word(sf, 0)) == 1 {
						tx.Write(word(sf, 2), op.val%256)
					}
				case 2: // INSERT_CALL_FORWARDING
					sf := t.sfAddr(op.sub, op.sf)
					if tx.Read(word(sf, 0)) != 1 {
						continue
					}
					cf := t.cfAddr(op.sub, op.sf, op.slot)
					if tx.Read(word(cf, 0)) == 1 {
						continue
					}
					tx.Write(word(cf, 0), 1)
					tx.Write(word(cf, 1), uint64(op.slot*8))
					tx.Write(word(cf, 2), uint64(op.slot*8)+op.val%8+1)
					tx.Write(word(cf, 3), op.val)
					tx.Write(word(sub, 4), tx.Read(word(sub, 4))+1)
				case 3: // DELETE_CALL_FORWARDING
					cf := t.cfAddr(op.sub, op.sf, op.slot)
					if tx.Read(word(cf, 0)) != 1 {
						continue
					}
					tx.Write(word(cf, 0), 0)
					tx.Write(word(sub, 4), tx.Read(word(sub, 4))-1)
				case 4: // GET_SUBSCRIBER_DATA (read only)
					_ = tx.Read(word(sub, 0))
					_ = tx.Read(word(sub, 1))
					_ = tx.Read(word(sub, 2))
					_ = tx.Read(word(sub, 8))
				}
			}
			return nil
		},
	}
}

// Verify implements Workload.
func (t *tatpWL) Verify(store *memdev.Store) error {
	if got := store.ReadWord(word(t.meta, 0)); got != uint64(t.numSubs) {
		return fmt.Errorf("tatp: subscriber count corrupted: %d != %d", got, t.numSubs)
	}
	for s := 0; s < t.numSubs; s++ {
		sub := t.subAddr(s)
		if store.ReadWord(word(sub, 0)) != uint64(s)+1 {
			return fmt.Errorf("tatp: subscriber %d id corrupted", s)
		}
		// Derived location fields must be consistent with the location value
		// written by the same UPDATE_LOCATION operation.
		loc := store.ReadWord(word(sub, 2))
		if loc != 0 && store.ReadWord(word(sub, 3)) != 0 {
			if store.ReadWord(word(sub, 8)) != 0 && store.ReadWord(word(sub, 8)) != loc%4096 {
				return fmt.Errorf("tatp: subscriber %d torn location update", s)
			}
		}
		var cf uint64
		for f := 0; f < tatpSFPerSub; f++ {
			sfValid := store.ReadWord(word(t.sfAddr(s, f), 0)) == 1
			for c := 0; c < tatpCFPerSF; c++ {
				cfAddr := t.cfAddr(s, f, c)
				if store.ReadWord(word(cfAddr, 0)) != 1 {
					continue
				}
				cf++
				if !sfValid {
					return fmt.Errorf("tatp: call forwarding row for invalid facility %d/%d", s, f)
				}
				if store.ReadWord(word(cfAddr, 2)) <= store.ReadWord(word(cfAddr, 1)) {
					return fmt.Errorf("tatp: call forwarding row %d/%d/%d has empty time range", s, f, c)
				}
			}
		}
		if got := store.ReadWord(word(sub, 4)); got != cf {
			return fmt.Errorf("tatp: subscriber %d call-forwarding count %d != recorded %d", s, cf, got)
		}
	}
	return nil
}
