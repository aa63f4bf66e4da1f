package crashtest

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"dhtm/internal/config"
	"dhtm/internal/memdev"
	"dhtm/internal/obs"
	"dhtm/internal/recovery"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
	"dhtm/internal/snapshot"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// traceEvent is one recorded durable write of the counting pass.
type traceEvent struct {
	class memdev.TrafficClass
	addr  uint64
	words []uint64
}

// recorder captures the counting pass's persist-event trace.
type recorder struct {
	events []traceEvent
}

// PersistWrite implements memdev.PersistObserver.
func (r *recorder) PersistWrite(_ uint64, ev memdev.PersistEvent) {
	r.events = append(r.events, traceEvent{
		class: ev.Class,
		addr:  ev.Addr,
		words: append([]uint64(nil), ev.Data...),
	})
}

// pass is the record of an exploration's one run: every durable write it
// made, in order, together with the durable images before the first and
// after the last of them. Every crash image is built from it: the trace
// replayed onto start ends at final (countPass checks it), so it is the
// complete record of durable writes.
type pass struct {
	prep  *snapshot.Prepared // the run's post-setup snapshot and workload
	trace []traceEvent
	txs   *traceTxs     // the trace's transaction-level decoding
	start *memdev.Store // frozen: the image the first recorded write applies to
	final *memdev.Store // frozen: the run's final image, unrecovered
}

// prepare returns the exploration's machine (runner.Cell.Config for its
// core count) and the cached post-setup snapshot of a run under seed.
func (c Config) prepare(seed int64) (config.Config, *snapshot.Prepared, error) {
	hw, err := runner.Cell{Cores: c.Cores}.Config()
	if err != nil {
		return config.Config{}, nil, err
	}
	p := workloads.Params{OpsPerTx: c.OpsPerTx, Seed: seed}
	prep, err := snapshot.Default.Prepare(hw, c.Workload, p)
	return hw, prep, err
}

// countPass measures the persist-event space: one uncrashed run of TxPerCore
// transactions per core through workloads.RunPrepared, the drive loop every
// plain run uses, with a recording observer. The machine's store is a fresh
// copy-on-write clone of the cached post-setup snapshot for (config,
// workload, seed), so the run's writes land in its private clone, never in
// the shared snapshot. The observer is installed once the runtime is built,
// so only the measured run's durable writes are numbered. A panic in the run
// is returned as an error rather than taking the process down.
//
// countPass also sanity-checks the baseline — the final durable image must
// recover as a no-op and satisfy the workload's invariants — because a
// workload that is inconsistent without any crash would fail every point
// for the wrong reason, and replays the trace onto the start image once,
// which must end at the final image.
func (c Config) countPass(seed int64) (*pass, error) {
	hw, prep, err := c.prepare(seed)
	if err != nil {
		return nil, err
	}
	env, err := txn.NewEnvOn(hw, prep.NewStore())
	if err != nil {
		return nil, err
	}
	var rt txn.Runtime
	if c.Factory != nil {
		rt, err = c.Factory(env)
	} else {
		rt, err = registry.NewRuntime(env, c.Design)
	}
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	env.Ctl.SetPersistObserver(rec)
	p := &pass{prep: prep, start: frozenClone(env.Store())}
	var panicked string
	func() {
		defer catchPanic(&panicked)
		_, err = workloads.RunPrepared(env, rt, prep.Workload, prep.Params, c.TxPerCore, true)
	}()
	if panicked != "" {
		return nil, errors.New("crashtest: " + panicked)
	}
	if err != nil {
		return nil, fmt.Errorf("crashtest: %w", err)
	}
	p.trace, p.final = rec.events, frozenClone(env.Store())
	p.txs = parseTrace(p.trace)
	env.Release()

	img := p.final.Clone()
	if _, err := recovery.Recover(img); err != nil {
		return nil, fmt.Errorf("crashtest: baseline recovery of the uncrashed image failed: %w", err)
	}
	if err := prep.Workload.Verify(img); err != nil {
		return nil, fmt.Errorf("crashtest: baseline image violates workload invariants without any crash: %w", err)
	}
	replay := p.start.Clone()
	for _, ev := range p.trace {
		applyEvent(replay, ev)
	}
	if !replay.Equal(p.final) {
		return nil, errors.New("crashtest: the persist trace does not reproduce the run's final image")
	}
	return p, nil
}

// frozenClone returns a frozen copy of st's current image.
func frozenClone(st *memdev.Store) *memdev.Store {
	img := st.Clone()
	img.Freeze()
	return img
}

// cursor replays a pass's trace forward on a store of its own, so a
// judging worker can build the pre-image of each point it takes without
// anyone keeping the pre-images of the others: at is how many writes st
// holds.
type cursor struct {
	run *pass
	st  *memdev.Store
	at  int
}

// newCursor returns a cursor at the start of p's trace.
func (p *pass) newCursor() *cursor {
	c := &cursor{run: p}
	c.rewind()
	return c
}

// rewind moves the cursor back to the start image.
func (c *cursor) rewind() {
	c.st, c.at = c.run.start.Clone(), 0
}

// preImage replays writes up to wStart and freezes a copy: the image in
// which writes [0, wStart) are durable and no later one is — all volatile
// state is absent by construction. A worker's window starts ascend — it
// takes points in ascending order, and a point's window never starts before
// an earlier point's — so the replay only moves forward; a start behind the
// cursor replays from the start image again.
func (c *cursor) preImage(wStart uint64) *memdev.Store {
	if int(wStart) < c.at {
		c.rewind()
	}
	for ; c.at < int(wStart); c.at++ {
		applyEvent(c.st, c.run.trace[c.at])
	}
	return frozenClone(c.st)
}

// judgePoint judges every crash image of one crash point — tasks, one per
// adversary mask — into the matching slot of out, calling done after each.
// All masks share the point's frozen pre-image pre, and each builds its
// image from a clone of it in arena, which is reset after every image: no
// store of one image outlives its judging. A panic in recovery or an oracle
// (e.g. recovery walking a log the adversary corrupted) is recovered and
// reported as that image's failure: one pathological crash image must not
// kill the sweep.
func (c Config) judgePoint(seed int64, run *pass, pre *memdev.Store, w workloads.Workload, tasks []task, dc *diffCtx, arena *memdev.Arena, out []PointResult, done func()) {
	k, trace := tasks[0].point, run.trace
	torn := c.tornWords(seed, trace, k)
	pt := &pointCtx{trace: trace, point: k, pre: pre, w: w, dc: dc, arena: arena}
	pt.info, pt.infoErr = run.txs.prefix(k)
	for i, tk := range tasks {
		out[i] = PointResult{Point: k, Class: trace[k].class.String(), TornWords: torn}
		if n := k - int(tk.wStart); n > 0 {
			out[i].Window = n
			out[i].Mask = fmt.Sprintf("%#x", tk.mask)
		}
		func() {
			defer arena.Reset()
			defer catchPanic(&out[i].Err)
			pt.judge(tk, &out[i])
		}()
		done()
	}
}

// tornWords is how many words of the write interrupted at point k reach
// memory: in torn mode a deterministic, seed-derived proper prefix of a
// multi-word write, otherwise none.
func (c Config) tornWords(seed int64, trace []traceEvent, k int) int {
	if !c.Torn || len(trace[k].words) < 2 {
		return 0
	}
	return 1 + int(runner.Mix64(uint64(seed)^uint64(k))%uint64(len(trace[k].words)-1))
}

// catchPanic, deferred, turns a panic into a "panic:" failure in *errStr.
func catchPanic(errStr *string) {
	if r := recover(); r != nil {
		stack := debug.Stack()
		if len(stack) > 4096 {
			stack = stack[:4096]
		}
		*errStr = fmt.Sprintf("panic: %v\n%s", r, stack)
	}
}

// pointCtx is what every crash image of one point shares: the frozen
// pre-image holding writes [0, wStart), the mask-independent decoding of
// the trace prefix [0, point) and the worker's arena, which every store
// judge makes allocates from.
type pointCtx struct {
	trace   []traceEvent
	point   int
	pre     *memdev.Store
	w       workloads.Workload
	dc      *diffCtx
	arena   *memdev.Arena
	info    *txPrefix
	infoErr error
}

// crashImage builds the crash image tk's adversary mask describes, with the
// first torn words of the interrupted write: the pre-image holds writes
// [0, wStart); the mask retires its subset of the in-flight window
// [wStart, k) — in issue order, since the queue keeps same-address writes
// coherent — and the interrupted write k itself contributes at most a torn
// prefix. Payloads come from the recorded trace. The image is a clone of
// the pre-image in the point's arena, and so is every clone judge makes
// of it.
func (pt *pointCtx) crashImage(tk task, torn int) *memdev.Store {
	k, trace := pt.point, pt.trace
	pre := pt.arena.CloneIn(pt.pre)
	for i := 0; i < k-int(tk.wStart); i++ {
		if tk.mask>>uint(i)&1 == 1 {
			applyEvent(pre, trace[int(tk.wStart)+i])
		}
	}
	for i := 0; i < torn && i < len(trace[k].words); i++ {
		pre.WriteWord(trace[k].addr+uint64(i*8), trace[k].words[i])
	}
	return pre
}

// judge builds the crash image of tk, recovers it and judges the recovered
// image against the oracles, recording the outcome in res.
func (pt *pointCtx) judge(tk task, res *PointResult) {
	pre := pt.crashImage(tk, res.TornWords)
	img := pre.Clone()
	report, err := recovery.Recover(img)
	if err != nil {
		res.Err = "recovery: " + err.Error()
		return
	}
	res.Replayed = len(report.Replayed)
	res.RolledBack = len(report.RolledBack)

	// Oracle 1: the workload's own structural invariants.
	vstart := time.Now()
	err = pt.w.Verify(img)
	metricPhases.Observe(obs.PhaseVerify, time.Since(vstart))
	if err != nil {
		res.Err = "invariant oracle: " + err.Error()
		return
	}

	// Oracle 2: prefix consistency against the trace-derived reference image.
	// The reference is mask-independent — log-meta persists drain the queue,
	// so no window write can change which records recovery sees activated —
	// but the pre-image it corrects is the masked one.
	if pt.infoErr != nil {
		res.Err = "reference image: " + pt.infoErr.Error()
		return
	}
	if diff := diffHeap(img, expectedImage(pre, pt.info)); diff != "" {
		res.Err = "prefix oracle: " + diff
		return
	}

	// Oracle 3: recovery idempotency.
	img2 := img.Clone()
	second, err := recovery.Recover(img2)
	if err != nil {
		res.Err = "idempotency oracle: second recovery failed: " + err.Error()
		return
	}
	if len(second.Replayed) != 0 || len(second.RolledBack) != 0 {
		res.Err = fmt.Sprintf("idempotency oracle: second recovery replayed %d and rolled back %d transactions",
			len(second.Replayed), len(second.RolledBack))
		return
	}
	if !img2.Equal(img) {
		res.Err = "idempotency oracle: second recovery changed the image"
		return
	}

	// Oracle 4 (differential mode): the recovered image must match a serial
	// re-execution of exactly the committed transaction sequence, on a store
	// that never saw this design's machinery — the cross-design ground truth.
	if pt.dc != nil {
		m := len(pt.info.commits)
		if diff := diffHeap(img, pt.dc.replays[m]); diff != "" {
			res.Err = "differential oracle: recovered image diverges from serial re-execution of the committed sequence: " + diff
			return
		}
		res.commits = m
	}
}

// applyEvent retires one recorded durable write into a crash image.
func applyEvent(st *memdev.Store, ev traceEvent) {
	for i, w := range ev.words {
		st.WriteWord(ev.addr+uint64(i*8), w)
	}
}
