package core

import (
	"sync"
	"time"

	"fiat/internal/obs"
)

// asyncPipeline is the multi-shard engine behind ProcessBatch: one worker
// per shard, each handed the batch indices of its shard's packets, deciding
// them into a shared per-batch outcome arena. Shards 1..N−1 run on
// persistent goroutines; the producer runs shard 0's worker itself while
// they work, so a batch wakes only the goroutines whose shard has packets
// in it, and the producer parks only for whatever they have left. The
// goroutines start on the first multi-shard batch, so building a proxy
// starts none. A worker runs each
// packet through the same pipeline body as the sequential path
// (processTraced), event decisions included; only its metric tallies
// differ, being worker-private and count-only.
// In steady state a packet traverses intercept → verdict with zero heap
// allocations (TestPipelineSteadyStateZeroAllocs).
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
	// and the workers' index lists belong to one batch at a time.
	mu      sync.Mutex
	workers []*asyncWorker // one per shard; nil until the first batch, and again after close
	closed  bool
	stop    chan struct{}
	batch   sync.WaitGroup // worker goroutines still deciding the current batch
	exited  sync.WaitGroup // worker goroutines still running
	out     []outcome      // per-batch outcome arena, slot i = batch index i
}

// start builds one worker per shard and launches a goroutine for each but
// shard 0's, which the producer runs. The caller holds a.mu.
func (a *asyncPipeline) start() {
	p := a.p
	a.stop = make(chan struct{})
	a.workers = make([]*asyncWorker, len(p.shards))
	a.exited.Add(len(p.shards) - 1)
	for i, sh := range p.shards {
		w := &asyncWorker{p: p, a: a, sh: sh}
		// The worker's metrics are private tallies, flushed once per batch,
		// so its per-packet path writes no cache line another worker
		// shares. Its tracer view is count-only: a stage entry is one
		// increment, and Flush files it as the 0-ns dwell every engine
		// observes under a virtual clock, so the snapshot oracle is
		// unaffected.
		w.tracer = p.metrics.tracer.Local()
		w.matchNanos = p.metrics.matchNanos.Local()
		w.inferNanos = p.metrics.inferNanos.Local()
		a.workers[i] = w
		if i > 0 {
			w.wake = make(chan struct{}, 1)
			go w.loop()
		}
	}
}

// close stops the worker goroutines and waits for them to exit. Taking a.mu
// first means an in-flight batch completes before the stop, so no worker
// can see a wake and the stop at once. Later batches report false from run
// and take the inline path. Idempotent.
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
// once the pipeline is closed. The producer appends each packet's batch
// index to its owning shard's list, in batch order, wakes only the worker
// goroutines whose list is non-empty, runs shard 0's list itself when it
// has one, and then waits for the goroutines it woke. A shard with no
// packets in the batch is not touched. The workers read the packets from
// batch itself, which stays put until run returns. Nothing here allocates
// once the arena and the lists have warmed to the workload's batch size.
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

	for _, w := range a.workers {
		w.now = now
		w.out = out
		w.batch = batch
		w.idx = w.idx[:0]
	}
	for i := range batch {
		w := a.workers[p.shardIndex(batch[i].Device)]
		w.idx = append(w.idx, int32(i))
	}
	for _, w := range a.workers[1:] {
		if len(w.idx) > 0 {
			a.batch.Add(1)
			w.wake <- struct{}{}
		}
	}
	if w := a.workers[0]; len(w.idx) > 0 {
		w.runBatch()
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

// asyncWorker decides one shard's share of each batch, on its own
// goroutine or, for shard 0, on the producer's. The batch context (now,
// out, batch, idx) is written by the producer before the wake send and read
// by the worker goroutine only after receiving it; the metric tallies are
// worker-owned.
type asyncWorker struct {
	p    *Proxy
	a    *asyncPipeline
	sh   *shard
	wake chan struct{} // nil for shard 0, which the producer runs

	now   time.Time
	out   []outcome
	batch []PacketIn
	idx   []int32 // batch indices of this shard's packets, in batch order

	// Worker-private metric tallies, folded into the proxy's registry at
	// the end of each runBatch. tracer is a count-only view.
	tracer                 *obs.Tracer
	matchNanos, inferNanos *obs.HistogramTally
}

func (w *asyncWorker) loop() {
	defer w.a.exited.Done()
	for {
		select {
		case <-w.wake:
			w.runBatch()
			w.a.batch.Done()
		case <-w.a.stop:
			return
		}
	}
}

// runBatch decides the shard's packets of the batch in place and folds the
// batch's metric tallies into the registry, so every metric is complete
// when ProcessBatch returns. The shard mutex is held for the whole batch,
// so concurrent Process/FlushEvent/AddDevice callers serialize at batch
// granularity. The producer takes only shard 0's lock, under a.mu, which no
// shard-lock holder ever waits for, so it cannot deadlock against them.
func (w *asyncWorker) runBatch() {
	sh := w.sh
	sh.mu.Lock()
	for _, i := range w.idx {
		pk := &w.batch[i]
		o := &w.out[i]
		*o = outcome{}
		w.p.processTraced(w.tracer, sh.devices[pk.Device], pk.Rec, pk.Peer, w.now, o, w)
	}
	sh.mu.Unlock()
	w.tracer.Flush()
	w.matchNanos.Flush()
	w.inferNanos.Flush()
}
