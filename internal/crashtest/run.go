package crashtest

import (
	"fmt"
	"runtime/debug"
	"slices"
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

// injector crashes one re-run of the workload at every selected crash point
// at once. When the first durable write that may still be in flight at a
// point's crash (the persist-queue window's lower bound wStart; wStart ==
// point when the queue is strictly ordered) is about to apply, it clones the
// store and freezes the clone: writes 0..wStart-1 are in it, every later
// write is not, and all volatile state is absent by construction. Each
// distinct window start is captured once, however many points share it. The
// judge then builds every crash image from its point's pre-image and the
// recorded trace, whose payloads are cross-checked here against the live run
// up to and including the largest selected point, so a determinism
// violation surfaces instead of silently exploring the wrong image.
type injector struct {
	trace []traceEvent
	last  uint64 // the largest selected crash point
	store *memdev.Store
	// pre maps every window start to capture to its frozen pre-image, nil
	// until the re-run gets there.
	pre map[uint64]*memdev.Store

	seen     uint64 // events observed so far
	mismatch error  // set by the first event that diverged from the trace
	diverged uint64 // that event's index
	// failed is why the re-run itself failed — a setup error, or a panic
	// that cut it short — and fails every point the re-run did not reach.
	failed string
	w      workloads.Workload // the run's workload object
}

// PersistWrite implements memdev.PersistObserver.
func (in *injector) PersistWrite(seq uint64, ev memdev.PersistEvent) {
	if seq <= in.last && in.mismatch == nil {
		te := in.trace[seq]
		if te.class != ev.Class || te.addr != ev.Addr || !slices.Equal(te.words, ev.Data) {
			in.mismatch = fmt.Errorf("event %d diverged from the counting pass: got %s@%#x/%dw, recorded %s@%#x/%dw",
				seq, ev.Class, ev.Addr, len(ev.Data), te.class, te.addr, len(te.words))
			in.diverged = seq
		}
	}
	if _, ok := in.pre[seq]; ok {
		pre := in.store.Clone()
		pre.Freeze()
		in.pre[seq] = pre
	}
	in.seen = seq + 1
}

// done reports whether the re-run has captured all it can: the driver stops
// issuing new transactions once the largest point has been reached (every
// pre-image and the trace segment each crash image is built from are fixed
// from then on), or once the run diverged (every point at or past the
// divergence fails, and every earlier point's pre-image is captured).
func (in *injector) done() bool { return in.seen > in.last || in.mismatch != nil }

// runOnce builds one fully isolated simulated machine and drives TxPerCore
// transactions per core through workloads.RunPrepared — the same drive loop
// every plain run uses, so identical seeds yield identical persist-event
// sequences. The machine's store is a fresh copy-on-write clone of prep, the
// cached post-setup snapshot for (config, workload, seed): the counting pass
// and the crash re-run start from byte-identical images, and the writes of
// a run land in its private clone, never in the shared snapshot. The
// observer returned by arm is installed after the clone is built, so only
// the measured run's durable writes are numbered.
func (c Config) runOnce(hw config.Config, prep *snapshot.Prepared, arm func(*txn.Env) (memdev.PersistObserver, func() bool)) (*txn.Env, error) {
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
	var stop func() bool
	_, err = workloads.RunPrepared(env, rt, prep.Workload, prep.Params, c.TxPerCore, true,
		func() {
			obs, s := arm(env)
			env.Ctl.SetPersistObserver(obs)
			stop = s
		},
		func() bool { return stop != nil && stop() })
	if err != nil {
		return nil, fmt.Errorf("crashtest: %w", err)
	}
	return env, nil
}

// prepare returns the exploration's machine (runner.Cell.Config for its
// core count) and the cached post-setup snapshot of a run under seed.
func (c Config) prepare(seed int64) (config.Config, *snapshot.Prepared, error) {
	hw, err := runner.Cell{Cores: c.Cores}.Config()
	if err != nil {
		return config.Config{}, nil, err
	}
	p := workloads.Params{Cores: c.Cores, OpsPerTx: c.OpsPerTx, Seed: seed}
	prep, err := snapshot.Default.Prepare(hw, c.Workload, p)
	return hw, prep, err
}

// countPass measures the persist-event space: one uncrashed run with a
// recording observer. It also sanity-checks the baseline — the final durable
// image must recover as a no-op and satisfy the workload's invariants —
// because a workload that is inconsistent without any crash would fail every
// point for the wrong reason.
func (c Config) countPass(seed int64) ([]traceEvent, error) {
	hw, prep, err := c.prepare(seed)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	env, err := c.runOnce(hw, prep, func(*txn.Env) (memdev.PersistObserver, func() bool) {
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
	if err := prep.Workload.Verify(final); err != nil {
		return nil, fmt.Errorf("crashtest: baseline image violates workload invariants without any crash: %w", err)
	}
	return rec.events, nil
}

// runToCrashes runs the exploration's one crash re-run for tasks, which are
// sorted by point: the workload driven up to the largest point, with the
// pre-image of every task's window start captured on the way. A panic in
// the re-run is recovered: what was captured before it stays usable.
func (c Config) runToCrashes(seed int64, trace []traceEvent, tasks []task) (in *injector) {
	in = &injector{trace: trace, last: uint64(tasks[len(tasks)-1].point), pre: make(map[uint64]*memdev.Store)}
	for _, tk := range tasks {
		in.pre[tk.wStart] = nil
	}
	hw, prep, err := c.prepare(seed)
	if err != nil {
		in.failed = err.Error()
		return in
	}
	in.w = prep.Workload
	defer catchPanic(&in.failed)
	env, err := c.runOnce(hw, prep, func(env *txn.Env) (memdev.PersistObserver, func() bool) {
		in.store = env.Store()
		return in, in.done
	})
	if err != nil {
		in.failed = err.Error()
		return in
	}
	env.Release()
	return in
}

// pointErr returns why crash point k cannot be judged, or "" when its
// pre-image and every event up to k match the counting pass.
func (in *injector) pointErr(k int) string {
	switch {
	case in.mismatch != nil && uint64(k) >= in.diverged:
		return "determinism: " + in.mismatch.Error()
	case uint64(k) < in.seen:
		return ""
	case in.failed != "":
		return in.failed
	default:
		return fmt.Sprintf("crash point %d was never reached (re-run produced fewer events)", k)
	}
}

// judgePoint judges every crash image of one crash point — tasks, one per
// adversary mask — into the matching slot of out, calling done after each.
// All masks share the point's frozen pre-image from the re-run, and each
// builds its image from a Clone of it. A panic in recovery or an oracle
// (e.g. recovery walking a log the adversary corrupted) is recovered and
// reported as that image's failure: one pathological crash image must not
// kill the sweep.
func (c Config) judgePoint(seed int64, in *injector, tasks []task, dc *diffCtx, out []PointResult, done func()) {
	trace := in.trace
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
	runErr := in.pointErr(k)
	var pt *pointCtx
	if runErr == "" {
		pt = &pointCtx{trace: trace, point: k, pre: in.pre[tasks[0].wStart], w: in.w, dc: dc}
		pt.info = sync.OnceValues(func() (*traceTxs, error) { return parseTrace(trace[:k]) })
		pt.replay = sync.OnceValues(func() (*memdev.Store, error) {
			info, _ := pt.info() // judge asks only once info succeeded
			return dc.replay(info.commits)
		})
	}
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
