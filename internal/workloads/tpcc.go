package workloads

import (
	"fmt"
	"math/rand"

	"dhtm/internal/memdev"
	"dhtm/internal/palloc"
	"dhtm/internal/txn"
)

// tpccWL is the TPC-C online-transaction-processing workload, scaled to one
// warehouse with ten districts and implemented directly over the persistent
// heap (REWIND-style in-memory tables). Each ACID transaction batches a
// standard TPC-C mix (New-Order 45%, Payment 43%, Delivery 4%, Order-Status
// 4%, Stock-Level 4%) so the write-set footprint lands in the same regime as
// Table IV (~590 cache lines, ~37 KB > L1).
//
// Layout (rows padded to whole cache lines):
//
//	warehouse:  2 lines  [ytd, tax, ...]
//	district d: 2 lines  [next_o_id, ytd, tax, delivered_o_id, ...]
//	customer:   2 lines  [balance, ytd_payment, payment_cnt, delivery_cnt, ...]
//	item:       1 line   [price, ...]
//	stock:      2 lines  [quantity, ytd, order_cnt, remote_cnt, ...]
//	order slot: 1 line   [o_id, c_id, ol_cnt, carrier_id, total, valid]
//	order line: 1 line   [item, qty, amount, delivered]
type tpccWL struct {
	meta      uint64
	warehouse uint64
	districts uint64
	customers uint64
	items     uint64
	stocks    uint64
	orders    uint64
	olines    uint64

	numDistricts int
	custPerDist  int
	numItems     int
	orderSlots   int // ring-buffer capacity per district
	maxOLPerOrd  int
	opsPerTx     int
}

func newTPCC() *tpccWL { return &tpccWL{} }

// Name implements Workload.
func (w *tpccWL) Name() string { return "tpcc" }

// Lock-ID name spaces.
const (
	tpccLockWarehouse = uint64(10_000_000)
	tpccLockDistrict  = uint64(11_000_000)
	tpccLockCustomer  = uint64(12_000_000)
	tpccLockStock     = uint64(13_000_000)
)

// Setup implements Workload.
func (w *tpccWL) Setup(heap *palloc.Heap, p Params) error {
	w.numDistricts = 10
	w.custPerDist = 96
	w.numItems = 256
	w.orderSlots = 512
	w.maxOLPerOrd = 15
	w.opsPerTx = p.OpsPerTx
	if w.opsPerTx <= 0 {
		w.opsPerTx = 40
	}

	w.meta = heap.AllocLines(1)
	w.warehouse = heap.AllocLines(2)
	w.districts = heap.AllocLines(w.numDistricts * 2)
	w.customers = heap.AllocLines(w.numDistricts * w.custPerDist * 2)
	w.items = heap.AllocLines(w.numItems)
	w.stocks = heap.AllocLines(w.numItems * 2)
	w.orders = heap.AllocLines(w.numDistricts * w.orderSlots)
	w.olines = heap.AllocLines(w.numDistricts * w.orderSlots * w.maxOLPerOrd)

	rng := rand.New(rand.NewSource(p.Seed + 6))
	heap.WriteWord(word(w.warehouse, 0), 0)                    // ytd
	heap.WriteWord(word(w.warehouse, 1), uint64(rng.Intn(20))) // tax
	for d := 0; d < w.numDistricts; d++ {
		dd := w.districtAddr(d)
		heap.WriteWord(word(dd, 0), 1)                    // next_o_id
		heap.WriteWord(word(dd, 1), 0)                    // ytd
		heap.WriteWord(word(dd, 2), uint64(rng.Intn(20))) // tax
		heap.WriteWord(word(dd, 3), 1)                    // delivered_o_id (next to deliver)
		for c := 0; c < w.custPerDist; c++ {
			cc := w.customerAddr(d, c)
			heap.WriteWord(word(cc, 0), 1000) // balance
			heap.WriteWord(word(cc, 1), 0)    // ytd_payment
			heap.WriteWord(word(cc, 2), 0)    // payment_cnt
			heap.WriteWord(word(cc, 3), 0)    // delivery_cnt
		}
	}
	for i := 0; i < w.numItems; i++ {
		heap.WriteWord(word(w.itemAddr(i), 0), uint64(rng.Intn(9900)+100)) // price
		ss := w.stockAddr(i)
		heap.WriteWord(word(ss, 0), uint64(rng.Intn(90)+10)) // quantity
		heap.WriteWord(word(ss, 1), 0)                       // ytd
		heap.WriteWord(word(ss, 2), 0)                       // order_cnt
	}
	heap.WriteWord(word(w.meta, 0), uint64(w.numDistricts))
	heap.WriteWord(word(w.meta, 1), uint64(w.orderSlots))
	return nil
}

func (w *tpccWL) districtAddr(d int) uint64 {
	return w.districts + uint64(d)*2*uint64(memdev.LineBytes)
}

func (w *tpccWL) customerAddr(d, c int) uint64 {
	return w.customers + uint64(d*w.custPerDist+c)*2*uint64(memdev.LineBytes)
}

func (w *tpccWL) itemAddr(i int) uint64 { return line(w.items, i) }

func (w *tpccWL) stockAddr(i int) uint64 { return w.stocks + uint64(i)*2*uint64(memdev.LineBytes) }

func (w *tpccWL) orderAddr(d int, slot int) uint64 {
	return line(w.orders, d*w.orderSlots+slot)
}

func (w *tpccWL) olineAddr(d int, slot int, ol int) uint64 {
	return line(w.olines, (d*w.orderSlots+slot)*w.maxOLPerOrd+ol)
}

// tpccOp is one TPC-C operation within a batch.
type tpccOp struct {
	kind     int // 0 new-order, 1 payment, 2 delivery, 3 order-status, 4 stock-level
	district int
	customer int
	amount   uint64
	items    []int
	qtys     []uint64
}

// Next implements Workload.
func (w *tpccWL) Next(core int, rng *rand.Rand) *txn.Transaction {
	ops := make([]tpccOp, w.opsPerTx)
	lockSet := make(map[uint64]struct{})
	for i := range ops {
		r := rng.Intn(100)
		op := tpccOp{
			district: rng.Intn(w.numDistricts),
			customer: rng.Intn(w.custPerDist),
			amount:   uint64(rng.Intn(5000) + 1),
		}
		switch {
		case r < 45:
			op.kind = 0
			n := rng.Intn(11) + 5
			op.items = make([]int, n)
			op.qtys = make([]uint64, n)
			for j := range op.items {
				op.items[j] = rng.Intn(w.numItems)
				op.qtys[j] = uint64(rng.Intn(10) + 1)
				lockSet[tpccLockStock+uint64(op.items[j])] = struct{}{}
			}
			lockSet[tpccLockDistrict+uint64(op.district)] = struct{}{}
			lockSet[tpccLockCustomer+uint64(op.district*w.custPerDist+op.customer)] = struct{}{}
		case r < 88:
			op.kind = 1
			lockSet[tpccLockWarehouse] = struct{}{}
			lockSet[tpccLockDistrict+uint64(op.district)] = struct{}{}
			lockSet[tpccLockCustomer+uint64(op.district*w.custPerDist+op.customer)] = struct{}{}
		case r < 92:
			op.kind = 2
			lockSet[tpccLockDistrict+uint64(op.district)] = struct{}{}
			// Delivery credits the customer of the delivered order, which is
			// only known at execution time; the coarse district lock covers it
			// for the lock-based designs by also locking the district's
			// customers partition.
			lockSet[tpccLockCustomer+uint64(op.district*w.custPerDist)] = struct{}{}
		case r < 96:
			op.kind = 3
			lockSet[tpccLockCustomer+uint64(op.district*w.custPerDist+op.customer)] = struct{}{}
		default:
			op.kind = 4
			lockSet[tpccLockDistrict+uint64(op.district)] = struct{}{}
		}
		ops[i] = op
	}
	lockIDs := make([]uint64, 0, len(lockSet))
	for id := range lockSet {
		lockIDs = append(lockIDs, id)
	}
	return &txn.Transaction{
		Label:   "tpcc-batch",
		LockIDs: lockIDs,
		Body: func(tx txn.Tx) error {
			for _, op := range ops {
				switch op.kind {
				case 0:
					if err := w.newOrder(tx, op); err != nil {
						return err
					}
				case 1:
					w.payment(tx, op)
				case 2:
					w.delivery(tx, op)
				case 3:
					w.orderStatus(tx, op)
				case 4:
					w.stockLevel(tx, op)
				}
			}
			return nil
		},
	}
}

// newOrder implements the New-Order transaction for one (district, customer).
func (w *tpccWL) newOrder(tx txn.Tx, op tpccOp) error {
	dd := w.districtAddr(op.district)
	oID := tx.Read(word(dd, 0))
	tx.Write(word(dd, 0), oID+1)
	_ = tx.Read(word(w.warehouse, 1)) // warehouse tax
	_ = tx.Read(word(dd, 2))          // district tax
	cc := w.customerAddr(op.district, op.customer)
	_ = tx.Read(word(cc, 0)) // customer balance/discount

	slot := int(oID % uint64(w.orderSlots))
	var total uint64
	for j, it := range op.items {
		price := tx.Read(word(w.itemAddr(it), 0))
		ss := w.stockAddr(it)
		qty := tx.Read(word(ss, 0))
		if qty >= op.qtys[j]+10 {
			qty -= op.qtys[j]
		} else {
			qty = qty + 91 - op.qtys[j]
		}
		tx.Write(word(ss, 0), qty)
		tx.Write(word(ss, 1), tx.Read(word(ss, 1))+op.qtys[j])
		tx.Write(word(ss, 2), tx.Read(word(ss, 2))+1)
		// The stock row's second line carries the per-district information
		// string TPC-C rewrites alongside the counters.
		tx.Write(word(ss, 8), tx.Read(word(ss, 8))+1)
		amount := price * op.qtys[j]
		ol := w.olineAddr(op.district, slot, j)
		tx.Write(word(ol, 0), uint64(it)+1)
		tx.Write(word(ol, 1), op.qtys[j])
		tx.Write(word(ol, 2), amount)
		tx.Write(word(ol, 3), 0)
		total += amount
	}
	oo := w.orderAddr(op.district, slot)
	tx.Write(word(oo, 0), oID)
	tx.Write(word(oo, 1), uint64(op.customer)+1)
	tx.Write(word(oo, 2), uint64(len(op.items)))
	tx.Write(word(oo, 3), 0) // carrier (undelivered)
	tx.Write(word(oo, 4), total)
	tx.Write(word(oo, 5), 1) // valid
	return nil
}

// payment implements the Payment transaction.
func (w *tpccWL) payment(tx txn.Tx, op tpccOp) {
	tx.Write(word(w.warehouse, 0), tx.Read(word(w.warehouse, 0))+op.amount)
	dd := w.districtAddr(op.district)
	tx.Write(word(dd, 1), tx.Read(word(dd, 1))+op.amount)
	cc := w.customerAddr(op.district, op.customer)
	tx.Write(word(cc, 0), tx.Read(word(cc, 0))-op.amount)
	tx.Write(word(cc, 1), tx.Read(word(cc, 1))+op.amount)
	tx.Write(word(cc, 2), tx.Read(word(cc, 2))+1)
}

// delivery implements (a single-district slice of) the Delivery transaction:
// the oldest undelivered order of the district is marked delivered and its
// total is credited to the ordering customer.
func (w *tpccWL) delivery(tx txn.Tx, op tpccOp) {
	dd := w.districtAddr(op.district)
	next := tx.Read(word(dd, 0))
	toDeliver := tx.Read(word(dd, 3))
	if toDeliver >= next {
		return // nothing undelivered
	}
	slot := int(toDeliver % uint64(w.orderSlots))
	oo := w.orderAddr(op.district, slot)
	if tx.Read(word(oo, 5)) != 1 || tx.Read(word(oo, 0)) != toDeliver {
		// The slot was recycled by a newer order; skip past it.
		tx.Write(word(dd, 3), toDeliver+1)
		return
	}
	tx.Write(word(oo, 3), 7) // carrier id
	olCnt := int(tx.Read(word(oo, 2)))
	var total uint64
	for j := 0; j < olCnt && j < w.maxOLPerOrd; j++ {
		ol := w.olineAddr(op.district, slot, j)
		tx.Write(word(ol, 3), 1)
		total += tx.Read(word(ol, 2))
	}
	cID := int(tx.Read(word(oo, 1))) - 1
	if cID >= 0 && cID < w.custPerDist {
		cc := w.customerAddr(op.district, cID)
		tx.Write(word(cc, 0), tx.Read(word(cc, 0))+total)
		tx.Write(word(cc, 3), tx.Read(word(cc, 3))+1)
	}
	tx.Write(word(dd, 3), toDeliver+1)
}

// orderStatus implements the read-only Order-Status transaction.
func (w *tpccWL) orderStatus(tx txn.Tx, op tpccOp) {
	cc := w.customerAddr(op.district, op.customer)
	_ = tx.Read(word(cc, 0))
	_ = tx.Read(word(cc, 2))
	dd := w.districtAddr(op.district)
	next := tx.Read(word(dd, 0))
	if next <= 1 {
		return
	}
	slot := int((next - 1) % uint64(w.orderSlots))
	oo := w.orderAddr(op.district, slot)
	_ = tx.Read(word(oo, 0))
	_ = tx.Read(word(oo, 4))
}

// stockLevel implements the read-only Stock-Level transaction: it scans the
// stock of the items referenced by the district's most recent orders.
func (w *tpccWL) stockLevel(tx txn.Tx, op tpccOp) {
	dd := w.districtAddr(op.district)
	next := tx.Read(word(dd, 0))
	for back := uint64(1); back <= 5 && back < next; back++ {
		slot := int((next - back) % uint64(w.orderSlots))
		oo := w.orderAddr(op.district, slot)
		if tx.Read(word(oo, 5)) != 1 {
			continue
		}
		olCnt := int(tx.Read(word(oo, 2)))
		for j := 0; j < olCnt && j < w.maxOLPerOrd; j++ {
			it := tx.Read(word(w.olineAddr(op.district, slot, j), 0))
			if it == 0 {
				continue
			}
			_ = tx.Read(word(w.stockAddr(int(it-1)), 0))
		}
	}
}

// Verify implements Workload: the warehouse year-to-date total must equal the
// sum of the district year-to-date totals (payments update both atomically),
// order slots must be internally consistent with their order lines, and
// district delivery cursors must not run ahead of order allocation.
func (w *tpccWL) Verify(store *memdev.Store) error {
	var districtYTD uint64
	for d := 0; d < w.numDistricts; d++ {
		dd := w.districtAddr(d)
		districtYTD += store.ReadWord(word(dd, 1))
		next := store.ReadWord(word(dd, 0))
		delivered := store.ReadWord(word(dd, 3))
		if next < 1 {
			return fmt.Errorf("tpcc: district %d next_o_id underflow", d)
		}
		if delivered > next {
			return fmt.Errorf("tpcc: district %d delivered %d beyond next order %d", d, delivered, next)
		}
		// Orders still resident in the ring must be fully formed.
		lo := uint64(1)
		if next > uint64(w.orderSlots) {
			lo = next - uint64(w.orderSlots)
		}
		for o := lo; o < next; o++ {
			slot := int(o % uint64(w.orderSlots))
			oo := w.orderAddr(d, slot)
			if store.ReadWord(word(oo, 5)) != 1 {
				return fmt.Errorf("tpcc: district %d order %d missing from its slot", d, o)
			}
			if store.ReadWord(word(oo, 0)) != o {
				return fmt.Errorf("tpcc: district %d slot %d holds order %d, want %d",
					d, slot, store.ReadWord(word(oo, 0)), o)
			}
			olCnt := store.ReadWord(word(oo, 2))
			if olCnt < 5 || olCnt > uint64(w.maxOLPerOrd) {
				return fmt.Errorf("tpcc: district %d order %d has invalid line count %d", d, o, olCnt)
			}
			var total uint64
			for j := 0; j < int(olCnt); j++ {
				ol := w.olineAddr(d, slot, j)
				if store.ReadWord(word(ol, 0)) == 0 {
					return fmt.Errorf("tpcc: district %d order %d line %d empty", d, o, j)
				}
				total += store.ReadWord(word(ol, 2))
			}
			if total != store.ReadWord(word(oo, 4)) {
				return fmt.Errorf("tpcc: district %d order %d total %d != sum of lines %d",
					d, o, store.ReadWord(word(oo, 4)), total)
			}
		}
	}
	if wytd := store.ReadWord(word(w.warehouse, 0)); wytd != districtYTD {
		return fmt.Errorf("tpcc: warehouse YTD %d != sum of district YTDs %d", wytd, districtYTD)
	}
	return nil
}
