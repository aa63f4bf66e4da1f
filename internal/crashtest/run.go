package crashtest

import (
	"fmt"
	"runtime/debug"
	"sync"
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

// injector crashes a re-run at one crash point: when the first durable write
// that may still be in flight at the crash (start, the persist-queue window's
// lower bound; start == target when the queue is strictly ordered) is about
// to apply, it clones the store — writes 0..start-1 are in the clone, every
// later write is not, and all volatile state is absent by construction. The
// driver then builds the crash image by applying the adversary's mask of
// window writes (and the torn prefix of write target) from the recorded
// trace, whose payloads are cross-checked here against the live run up to
// and including target, so any determinism violation surfaces instead of
// silently exploring the wrong image.
type injector struct {
	trace  []traceEvent
	start  uint64 // first write that may be in flight at the crash
	target uint64 // the crash point itself
	store  *memdev.Store

	snapshot *memdev.Store
	reached  bool
	mismatch error
}

// PersistWrite implements memdev.PersistObserver.
func (in *injector) PersistWrite(seq uint64, ev memdev.PersistEvent) {
	if seq <= in.target && in.mismatch == nil {
		te := in.trace[seq]
		if te.class != ev.Class || te.addr != ev.Addr || !wordsEqual(te.words, ev.Data) {
			in.mismatch = fmt.Errorf("event %d diverged from the counting pass: got %s@%#x/%dw, recorded %s@%#x/%dw",
				seq, ev.Class, ev.Addr, len(ev.Data), te.class, te.addr, len(te.words))
		}
	}
	if seq == in.start && in.snapshot == nil {
		in.snapshot = in.store.Clone()
	}
	if seq == in.target {
		in.reached = true
	}
}

// wordsEqual compares an event payload against its recorded counterpart —
// payload values are part of the determinism contract, not just shape, since
// the reference image is built from the counting pass's values.
func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// done reports whether the crash point has been reached; the driver stops
// issuing new transactions once it has (the snapshot and the trace segment
// the crash image is built from are fixed from then on, so the remaining
// work cannot change the outcome).
func (in *injector) done() bool { return in.reached }

// runOnce builds one fully isolated simulated machine and drives TxPerCore
// transactions per core through workloads.RunPrepared — the same drive loop
// every plain run uses, so identical seeds yield identical persist-event
// sequences. The machine's store is a fresh copy-on-write clone of the
// cached post-setup snapshot for (config, workload, seed): the counting pass
// and every crash-point re-run start from byte-identical images, and the
// writes of one re-run land in its private clone, never in the shared
// snapshot. The observer returned by arm is installed after the clone is
// built, so only the measured run's durable writes are numbered.
func (c Config) runOnce(seed int64, arm func(*txn.Env) (memdev.PersistObserver, func() bool)) (*txn.Env, workloads.Workload, error) {
	hw := config.Default()
	hw.NumCores = c.Cores
	p := workloads.Params{Cores: c.Cores, OpsPerTx: c.OpsPerTx, Seed: seed}
	prep, err := snapshot.Default.Prepare(hw, c.Workload, p)
	if err != nil {
		return nil, nil, err
	}
	env, err := txn.NewEnvOn(hw, prep.NewStore())
	if err != nil {
		return nil, nil, err
	}
	var rt txn.Runtime
	if c.Factory != nil {
		rt, err = c.Factory(env)
	} else {
		rt, err = registry.NewRuntime(env, c.Design)
	}
	if err != nil {
		return nil, nil, err
	}
	var stop func() bool
	_, err = workloads.RunPrepared(env, rt, prep.Workload, p, c.TxPerCore, true,
		func() {
			obs, s := arm(env)
			env.Ctl.SetPersistObserver(obs)
			stop = s
		},
		func() bool { return stop != nil && stop() })
	if err != nil {
		return nil, nil, fmt.Errorf("crashtest: %w", err)
	}
	return env, prep.Workload, nil
}

// countPass measures the persist-event space: one uncrashed run with a
// recording observer. It also sanity-checks the baseline — the final durable
// image must recover as a no-op and satisfy the workload's invariants —
// because a workload that is inconsistent without any crash would fail every
// point for the wrong reason.
func (c Config) countPass(seed int64) ([]traceEvent, error) {
	rec := &recorder{}
	env, w, err := c.runOnce(seed, func(*txn.Env) (memdev.PersistObserver, func() bool) {
		return rec, nil
	})
	if err != nil {
		return nil, err
	}
	final := env.Store().Clone()
	env.Release()
	if _, err := recovery.Recover(final); err != nil {
		return nil, fmt.Errorf("crashtest: baseline recovery of the uncrashed image failed: %w", err)
	}
	if err := w.Verify(final); err != nil {
		return nil, fmt.Errorf("crashtest: baseline image violates workload invariants without any crash: %w", err)
	}
	return rec.events, nil
}

// explorePoint crash-tests one crash point: it re-runs the workload once,
// crashes it at the point every task of tasks shares, and judges each task's
// crash image — one per adversary mask — into the matching slot of out,
// calling done after each. The injector's pre-image depends only on the
// point, so all masks share the re-run (still cross-checked event by event
// against the trace) and each builds its image from a Clone of that
// pre-image. A panic anywhere in the re-run, recovery or an oracle (e.g.
// recovery walking a log the adversary corrupted) is recovered and reported
// as the failure of every image it affects: one pathological crash image
// must not kill the sweep, and the re-run's store is a private clone so
// nothing leaks into the shared snapshot.
func (c Config) explorePoint(seed int64, trace []traceEvent, tasks []task, dc *diffCtx, out []PointResult, done func()) {
	k := tasks[0].point
	torn := 0
	if c.Torn && len(trace[k].words) >= 2 {
		// A deterministic, seed-derived proper prefix of the in-flight words.
		torn = 1 + int(runner.Mix64(uint64(seed)^uint64(k))%uint64(len(trace[k].words)-1))
	}
	for i, tk := range tasks {
		out[i] = PointResult{Point: k, Class: trace[k].class.String(), TornWords: torn}
		if n := k - int(tk.wStart); n > 0 {
			out[i].Window = n
			out[i].Mask = fmt.Sprintf("%#x", tk.mask)
		}
	}
	var pt *pointCtx
	var runErr string
	func() {
		defer catchPanic(&runErr)
		pt, runErr = c.rerun(seed, trace, tasks[0], dc)
	}()
	for i, tk := range tasks {
		if runErr != "" {
			out[i].Err = runErr
		} else {
			func() {
				defer catchPanic(&out[i].Err)
				pt.judge(tk, &out[i])
			}()
		}
		done()
	}
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
// pre-image holding writes [0, wStart) and the mask-independent reference
// inputs, each computed once on first use.
type pointCtx struct {
	trace []traceEvent
	point int
	pre   *memdev.Store // frozen: writes [0, wStart) durable, nothing later
	w     workloads.Workload
	dc    *diffCtx
	// info decodes the trace prefix [0, point); replay re-executes its
	// committed sequence serially (differential mode only).
	info   func() (*traceTxs, error)
	replay func() (*memdev.Store, error)
}

// rerun re-runs the workload up to the crash point of tk, returning the
// point's shared context or the failure every image of the point reports.
func (c Config) rerun(seed int64, trace []traceEvent, tk task, dc *diffCtx) (*pointCtx, string) {
	k := tk.point
	inj := &injector{trace: trace, start: tk.wStart, target: uint64(k)}
	env, w, err := c.runOnce(seed, func(env *txn.Env) (memdev.PersistObserver, func() bool) {
		inj.store = env.Store()
		return inj, inj.done
	})
	if err != nil {
		return nil, err.Error()
	}
	env.Release()
	if inj.mismatch != nil {
		return nil, "determinism: " + inj.mismatch.Error()
	}
	if !inj.reached {
		return nil, fmt.Sprintf("crash point %d was never reached (re-run produced fewer events)", k)
	}
	inj.snapshot.Freeze()
	pt := &pointCtx{trace: trace, point: k, pre: inj.snapshot, w: w, dc: dc}
	pt.info = sync.OnceValues(func() (*traceTxs, error) { return parseTrace(trace[:k]) })
	pt.replay = sync.OnceValues(func() (*memdev.Store, error) {
		info, _ := pt.info() // judge asks only once info succeeded
		return dc.replay(info.commits)
	})
	return pt, ""
}

// judge builds the crash image tk's adversary mask describes, recovers it and
// judges the recovered image against the oracles, recording the outcome in
// res.
func (pt *pointCtx) judge(tk task, res *PointResult) {
	// Build the crash image: the pre-image holds writes [0, wStart); the mask
	// retires its subset of the in-flight window [wStart, k) — in issue
	// order, since the queue keeps same-address writes coherent — and the
	// interrupted write k itself contributes at most a torn prefix. Payloads
	// come from the cross-checked trace, identical to the live run's.
	k, trace := pt.point, pt.trace
	pre := pt.pre.Clone()
	for i := 0; i < k-int(tk.wStart); i++ {
		if tk.mask>>uint(i)&1 == 1 {
			applyEvent(pre, trace[int(tk.wStart)+i])
		}
	}
	for i := 0; i < res.TornWords && i < len(trace[k].words); i++ {
		pre.WriteWord(trace[k].addr+uint64(i*8), trace[k].words[i])
	}

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
	info, err := pt.info()
	if err != nil {
		res.Err = "reference image: " + err.Error()
		return
	}
	if diff := diffHeap(img, expectedImage(pre, info)); diff != "" {
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
		replay, err := pt.replay()
		if err != nil {
			res.Err = "differential oracle: " + err.Error()
			return
		}
		if diff := diffHeap(img, replay); diff != "" {
			res.Err = "differential oracle: recovered image diverges from serial re-execution of the committed sequence: " + diff
			return
		}
		res.commitKey = commitKey(info.commits)
		res.digest = pt.dc.digest(img)
	}
}

// applyEvent retires one recorded durable write into a crash image.
func applyEvent(st *memdev.Store, ev traceEvent) {
	for i, w := range ev.words {
		st.WriteWord(ev.addr+uint64(i*8), w)
	}
}
