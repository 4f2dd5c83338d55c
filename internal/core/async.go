package core

import (
	"runtime"
	"sync"
	"time"

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
// no goroutine. A worker runs each packet through the same pipeline body as
// the sequential path (processTraced), event decisions included; only its
// metric tallies differ, being goroutine-private and clock-free. In steady
// state a packet traverses intercept → verdict with zero heap allocations
// (TestPipelineSteadyStateZeroAllocs).
//
// Determinism: outcomes land in arena slots indexed by batch position, so
// the merge — decisions out, audit entries appended, pending holds pushed,
// stat deltas summed — replays the sequential order exactly no matter how
// the workers interleaved. Within a shard, packets are decided in batch
// order; devices on different shards share no mutable pipeline state. The
// differential (async_test.go) holds this byte-identical to the sequential
// engine.
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
// worker-owned metric tallies.
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

// runBatch drains the ring until the batch marker, deciding each packet in
// place, and folds the batch's metric tallies into the registry, so every
// metric is complete when ProcessBatch returns. The shard mutex is held for
// the whole batch, so concurrent Process/FlushEvent/AddDevice callers
// serialize at batch granularity and the ring never deadlocks (the producer
// takes no shard locks).
func (w *asyncWorker) runBatch() {
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
		w.p.processTraced(w.tracer, sh.devices[pk.Device], pk.Rec, pk.Peer, w.now, o, w)
	}
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
