package core

import (
	"runtime"
	"sync"
	"time"

	"fiat/internal/features"
	"fiat/internal/ml"
	"fiat/internal/obs"
)

// ringCapacity is the per-shard ring size. A full ring backpressures the
// producer, which wakes the worker and yields with runtime.Gosched until the
// worker drains a slot.
const ringCapacity = 1024

// asyncPipeline is the multi-shard engine behind ProcessBatch: one
// persistent worker goroutine per shard, each fed through a fixed-capacity
// SPSC ring, draining packets into a shared per-batch outcome arena. The
// workers start on the first multi-shard batch, so building a proxy starts
// no goroutine. Batched classifier inference runs through
// ml.CompiledModel.InferBatch with shard-owned scratch; audit/event records
// accumulate in arena-reused buffers recycled per batch. In steady state a
// packet traverses intercept → verdict with zero heap allocations
// (TestPipelineSteadyStateZeroAllocs).
//
// Determinism: outcomes land in arena slots indexed by batch position, so
// the merge — decisions out, audit entries appended, pending holds pushed,
// stat deltas summed — replays the sequential order exactly no matter how
// the workers interleaved. Within a shard, a device whose event decision is
// deferred into an InferBatch round blocks its own later packets (they queue
// and replay after the round, in order) but never other devices'; devices on
// different shards share no mutable pipeline state. The differential
// (async_test.go) holds this byte-identical to the sequential engine.
type asyncPipeline struct {
	p *Proxy
	// mu serializes whole batches against each other and against close:
	// concurrent ProcessBatch callers take turns, because the outcome arena
	// and the rings are single-producer.
	mu      sync.Mutex
	ringCap int            // per-shard ring capacity, read when the workers start
	workers []*asyncWorker // nil until the first batch, and again after close
	closed  bool
	stop    chan struct{}
	batch   sync.WaitGroup // workers still draining the current batch
	exited  sync.WaitGroup // worker goroutines still running
	out     []outcome      // per-batch outcome arena, slot i = batch index i
}

// start launches one worker per shard. The caller holds a.mu.
func (a *asyncPipeline) start() {
	p := a.p
	a.stop = make(chan struct{})
	a.workers = make([]*asyncWorker, len(p.shards))
	a.exited.Add(len(p.shards))
	for i, sh := range p.shards {
		w := &asyncWorker{
			p:    p,
			a:    a,
			sh:   sh,
			si:   i,
			ring: newPacketRing(a.ringCap),
			wake: make(chan struct{}, 1),
		}
		// The worker's metrics are goroutine-private tallies, flushed once
		// per batch, so its per-packet path writes no cache line another
		// worker shares. Its tracer reads the producer's once-per-batch
		// timestamp instead of the live clock, so stage accounting costs no
		// clock reads either. Dwells become 0 — the same value every engine
		// observes under a virtual clock, so the snapshot oracle is
		// unaffected.
		w.tracer = p.metrics.tracer.Local(w.batchNow)
		w.matchNanos = p.metrics.matchNanos.Local()
		w.inferNanos = p.metrics.inferNanos.Local()
		a.workers[i] = w
		go w.loop()
	}
}

// close stops the workers and waits for them to exit. Taking a.mu first
// means an in-flight batch completes before the stop, so no worker can see
// a wake and the stop at once. Later batches report false from run and
// take the inline path. Idempotent.
func (a *asyncPipeline) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	if a.workers != nil {
		close(a.stop)
		a.exited.Wait()
		a.workers, a.out = nil, nil
	}
}

// run executes one batch on the pipeline, writing decisions into dst
// (len(dst) == len(batch)), and reports false without touching anything
// once the pipeline is closed. The producer streams the packets' batch
// indices into the shard rings in batch order, terminates each ring with a
// marker, wakes each worker once its ring holds its whole share, and waits.
// A full ring wakes its worker at once and backpressures the producer, which
// yields until the worker drains a slot. The workers read the packets from
// batch itself, which stays put until run returns. Nothing here allocates
// once the arenas have warmed to the workload's batch size.
func (a *asyncPipeline) run(batch []PacketIn, dst []Decision, now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	if a.workers == nil {
		a.start()
	}
	p := a.p
	n := len(batch)
	if cap(a.out) < n {
		a.out = make([]outcome, n)
	}
	out := a.out[:n]

	a.batch.Add(len(a.workers))
	for _, w := range a.workers {
		w.now = now
		w.out = out
		w.batch = batch
		w.woken = false
	}
	for i := range batch {
		w := a.workers[p.shardIndex(batch[i].Device)]
		w.push(int32(i))
	}
	for _, w := range a.workers {
		w.push(ringMarker)
		w.wakeOnce()
	}
	a.batch.Wait()
	for _, w := range a.workers {
		w.batch = nil // hold no reference to the caller's batch
	}

	// Merge in batch order: each arena slot holds at most one decision, one
	// audit entry, and one pending hold, so walking the slots reproduces the
	// sequential commit order bit-for-bit.
	var delta statDelta
	for i := range out {
		o := &out[i]
		dst[i] = o.d
		if o.hasPending {
			p.pending.push(o.pending)
		}
		delta.add(o.delta)
	}
	p.mu.Lock()
	for i := range out {
		if out[i].hasEntry {
			p.appendEntryLocked(out[i].entry)
		}
	}
	p.applyDeltaLocked(delta)
	p.mu.Unlock()
	return true
}

// asyncWorker drains one shard's ring. All fields below the ring are either
// producer-owned (woken), producer-published batch context (now, out, batch
// — written before the wake send, read only after receiving it) or
// worker-owned tallies and arenas reused across batches.
type asyncWorker struct {
	p    *Proxy
	a    *asyncPipeline
	sh   *shard
	si   int // shard index, for the post-batch epoch advance
	ring *packetRing
	wake chan struct{}

	woken bool // this batch's wake has been sent

	now   time.Time
	out   []outcome
	batch []PacketIn

	// Goroutine-private metric tallies, folded into the proxy's registry
	// at the end of each runBatch. tracer reads time from batchNow.
	tracer                 *obs.Tracer
	matchNanos, inferNanos *obs.HistogramTally

	rows    []asyncRow  // deferred event decisions awaiting an InferBatch round
	rowBufs [][]float64 // feature-row arena backing rows[i].x
	replay  []asyncPkt  // packets queued behind a deferred decision
	replay2 []asyncPkt  // spare queue for round swapping

	batchX   [][]float64 // InferBatch input rows for one model group
	batchIdx []int       // rows[] index per batchX row
	batchRes []int       // InferBatch output
}

// asyncRow is one deferred event decision: the packet hit its decision point
// wearing a compiled classifier, so the features were frozen into x (exactly
// what the inline path would have extracted at this instant), the trace span
// parked, and the verdict deferred to the next batched-inference round.
type asyncRow struct {
	ds    *deviceState
	cec   *compiledEventClassifier
	o     *outcome
	sp    obs.Span
	x     []float64
	evLen int
	key   ml.CompiledModel // grouping key: the shared compiled template
	res   int
	done  bool
}

type asyncPkt struct {
	o  *outcome
	pk *PacketIn
}

func (w *asyncWorker) loop() {
	defer w.a.exited.Done()
	for {
		select {
		case <-w.wake:
			w.runBatch()
		case <-w.a.stop:
			return
		}
	}
}

// push enqueues one batch index (or the marker) into the worker's ring. A
// full ring wakes the worker, if this batch has not already, so it can
// drain; the producer yields until a slot frees. Producer-only.
func (w *asyncWorker) push(idx int32) {
	for !w.ring.push(idx) {
		w.wakeOnce()
		runtime.Gosched()
	}
}

// wakeOnce sends the worker this batch's one wake. Producer-only.
func (w *asyncWorker) wakeOnce() {
	if !w.woken {
		w.woken = true
		w.wake <- struct{}{}
	}
}

// runBatch drains the ring until the batch marker, resolves the deferred
// decisions, and folds the batch's metric tallies into the registry, so
// every metric is complete when ProcessBatch returns. The shard mutex is
// held for the whole batch, so concurrent Process/FlushEvent/AddDevice
// callers serialize at batch granularity and the ring never deadlocks (the
// producer takes no shard locks).
func (w *asyncWorker) runBatch() {
	w.rows = w.rows[:0]
	w.replay = w.replay[:0]
	sh := w.sh
	sh.mu.Lock()
	for {
		idx, ok := w.ring.pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if idx == ringMarker {
			break
		}
		pk := &w.batch[idx]
		o := &w.out[idx]
		*o = outcome{}
		ds := sh.devices[pk.Device]
		if ds != nil && ds.deferBlocked {
			w.replay = append(w.replay, asyncPkt{o: o, pk: pk})
			continue
		}
		w.process(ds, pk, o)
	}
	w.finishBatch()
	sh.mu.Unlock()
	w.tracer.Flush()
	w.matchNanos.Flush()
	w.inferNanos.Flush()
	// Swap boundary: the worker holds no artifact pointer between batches.
	w.p.epochs.Advance(w.si)
	w.a.batch.Done()
}

// batchNow is the worker's coarse time source: the timestamp the producer
// sampled once for the whole batch. Reading it costs a field load, not a
// clock read.
func (w *asyncWorker) batchNow() time.Time { return w.now }

// process runs one packet through the pipeline body. A deferred decision
// leaves the span open inside the parked row; everything else closes out
// through StageVerdict exactly like processLocked.
func (w *asyncWorker) process(ds *deviceState, pk *PacketIn, o *outcome) {
	p := w.p
	sp := w.tracer.Begin(obs.StageIntercept)
	if p.processSpanned(ds, pk.Rec, pk.Peer, w.now, &sp, o, w) {
		return
	}
	sp.Enter(obs.StageVerdict)
	sp.End()
}

// deferDecision parks one event decision for the next InferBatch round. The
// caller (processSpanned) has already entered StageClassify; the feature row
// and event length are frozen now, so the round later computes exactly what
// the inline path would have.
func (w *asyncWorker) deferDecision(ds *deviceState, cec *compiledEventClassifier, o *outcome, sp *obs.Span) {
	ev := ds.grouper.Current()
	i := len(w.rows)
	var buf []float64
	if i < len(w.rowBufs) {
		buf = w.rowBufs[i]
	}
	buf = features.ExtractInto(ev, buf)
	if i < len(w.rowBufs) {
		w.rowBufs[i] = buf
	} else {
		w.rowBufs = append(w.rowBufs, buf)
	}
	key := cec.template
	if key == nil {
		key = cec.model
	}
	w.rows = append(w.rows, asyncRow{
		ds: ds, cec: cec, o: o, sp: *sp, x: buf, evLen: ev.Len(), key: key,
	})
}

// finishBatch resolves deferred decisions in rounds: run the pending rows
// through batched inference, then replay the packets that queued behind
// them (which may defer new decisions), until both queues drain. Each round
// unblocks every deferred device, so every round makes progress.
func (w *asyncWorker) finishBatch() {
	for len(w.rows) > 0 || len(w.replay) > 0 {
		if len(w.rows) > 0 {
			w.inferRows()
		}
		if len(w.replay) == 0 {
			return
		}
		q := w.replay
		w.replay = w.replay2[:0]
		for _, ap := range q {
			ds := w.sh.devices[ap.pk.Device]
			if ds != nil && ds.deferBlocked {
				w.replay = append(w.replay, ap)
				continue
			}
			w.process(ds, ap.pk, ap.o)
		}
		w.replay2 = q[:0]
	}
}

// inferRows groups the parked rows by compiled template and runs one
// InferBatch per group, then applies the decisions in row (= packet) order.
// Execution uses the first row's device clone: devices sharing a template
// wear identical clones, and a clone is owned by this shard, so its
// inference scratch is race-free here — the template itself may be shared
// with other shards' workers and is only a grouping key, never run.
func (w *asyncWorker) inferRows() {
	rows := w.rows
	for i := range rows {
		rows[i].done = false
	}
	for i := range rows {
		if rows[i].done {
			continue
		}
		key := rows[i].key
		w.batchX = w.batchX[:0]
		w.batchIdx = w.batchIdx[:0]
		for j := i; j < len(rows); j++ {
			if rows[j].key == key {
				w.batchX = append(w.batchX, rows[j].x)
				w.batchIdx = append(w.batchIdx, j)
			}
		}
		if cap(w.batchRes) < len(w.batchX) {
			w.batchRes = make([]int, len(w.batchX))
		}
		w.batchRes = rows[i].cec.model.InferBatch(w.batchX, w.batchRes[:0])
		// One inference-latency observation per decided row, mirroring the
		// inline path's one observation per decision. The worker observes
		// the coarse-time constant 0 — the value every engine observes under
		// a virtual clock — rather than paying clock reads per row.
		for k, j := range w.batchIdx {
			rows[j].res = w.batchRes[k]
			rows[j].done = true
			w.inferNanos.Observe(0)
		}
	}
	for i := range rows {
		w.applyRow(&rows[i])
	}
	w.rows = rows[:0]
}

// applyRow finishes one deferred packet: the humanness gate and bookkeeping
// through decideManual (identical to the inline decision point), then the
// verdict stage on the parked span.
func (w *asyncWorker) applyRow(r *asyncRow) {
	ds := r.ds
	d := w.p.decideManual(ds, w.now, r.o, &r.sp, r.res == 2, r.evLen)
	ds.evDecision = d
	ds.evDecided = true
	ds.deferBlocked = false
	r.o.d = d
	r.sp.Enter(obs.StageVerdict)
	r.sp.End()
}
