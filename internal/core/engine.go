package core

import (
	"sync"
	"time"

	"fiat/internal/flows"
	"fiat/internal/obs"
)

// PacketIn is one packet submitted to the batched engine: the owning device,
// its flow record, and the LAN peer ("" for WAN traffic).
type PacketIn struct {
	Device string
	Rec    flows.Record
	Peer   string
}

// ProcessBatch runs a batch of packets through the pipeline. With one shard
// the batch runs packet by packet on the sequential path; otherwise the
// calling goroutine decides it shard by shard (see batcher).
//
// Determinism contract: ProcessBatch(batch) returns exactly the decisions —
// and appends exactly the audit entries, in the same order, with the same
// stats — that calling Process on each packet in batch order would produce
// while the clock does not advance during the batch. The timestamp is
// sampled once at batch entry; packets of one device are processed in input
// order by the one shard that owns the device, and devices on different
// shards share no mutable pipeline state. The differential tests in
// engine_test.go and async_test.go check this decision-for-decision across
// shard counts.
func (p *Proxy) ProcessBatch(batch []PacketIn) []Decision {
	return p.ProcessBatchInto(batch, nil)
}

// ProcessBatchInto is ProcessBatch writing decisions into dst (grown as
// needed, reused when capacity allows) so a steady-state caller performs no
// per-batch allocation. It returns dst resized to len(batch).
func (p *Proxy) ProcessBatchInto(batch []PacketIn, dst []Decision) []Decision {
	if len(batch) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(batch) {
		dst = make([]Decision, len(batch))
	} else {
		dst = dst[:len(batch)]
	}
	start := p.clock.Now()
	if len(p.shards) == 1 {
		p.processBatchSequential(batch, dst)
	} else {
		p.batcher.run(p, batch, dst, start)
	}
	// Batch-level observability: size and wall latency (0 under a virtual
	// clock, so snapshots stay deterministic), plus the pending-queue depth
	// the batch left behind. Observed on both paths so they stay
	// snapshot-comparable.
	p.metrics.batchSize.Observe(int64(len(batch)))
	p.metrics.batchNanos.Observe(p.clock.Now().Sub(start).Nanoseconds())
	p.metrics.pendingDepth.Set(int64(p.pending.depth()))
	return dst
}

// processBatchSequential is the one-shard path: each packet is a Process
// call, so it is the reference the batched path is checked against.
func (p *Proxy) processBatchSequential(batch []PacketIn, dst []Decision) {
	for i, pk := range batch {
		dst[i] = p.Process(pk.Device, pk.Rec, pk.Peer)
	}
}

// batcher is the multi-shard engine behind ProcessBatch. It sorts the
// batch's indices into one list per shard, in batch order, and then decides
// each non-empty list on the calling goroutine, in shard order, under that
// shard's mutex. Each packet runs through the same pipeline body as the
// sequential path (processTraced), event decisions included, and writes its
// outcome into a per-batch arena slot indexed by batch position. A shard
// with no packets in the batch is not touched.
// In steady state a packet traverses intercept → verdict with zero heap
// allocations (TestPipelineSteadyStateZeroAllocs).
//
// Determinism: the merge walks the arena in batch order — decisions out,
// audit entries appended, pending holds pushed, stat deltas summed — so it
// replays the sequential order exactly. Within a shard, packets are decided
// in batch order; devices on different shards share no mutable pipeline
// state, so deciding shard by shard instead of packet by packet changes
// nothing. The differential (async_test.go) holds this byte-identical to the
// sequential engine.
type batcher struct {
	// mu serializes whole batches: concurrent ProcessBatch callers take
	// turns, because the index lists, the arena and the tallies belong to
	// one batch at a time. A holder takes one shard mutex at a time, and no
	// shard-mutex holder waits for mu, so it cannot deadlock.
	mu  sync.Mutex
	idx [][]int32 // per shard: batch indices of its packets, in batch order
	out []outcome // per-batch outcome arena, slot i = batch index i
	bt  batchTallies
}

// batchTallies is the batched path's metric view, folded into the proxy's
// registry once per batch. The tracer is count-only: a stage entry is one
// increment, and Flush files it as the 0-ns dwell every engine observes
// under a virtual clock. The match and inference latencies are tallied as
// that same constant 0 instead of paying two clock reads per packet. The
// snapshot oracle is unaffected either way.
type batchTallies struct {
	tracer                 *obs.Tracer
	matchNanos, inferNanos *obs.HistogramTally
}

// run decides one batch, writing decisions into dst (len(dst) ==
// len(batch)). Nothing here allocates once the arena and the lists have
// warmed to the workload's batch size.
func (b *batcher) run(p *Proxy, batch []PacketIn, dst []Decision, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.idx == nil {
		b.idx = make([][]int32, len(p.shards))
		b.bt = batchTallies{
			tracer:     p.metrics.tracer.Local(),
			matchNanos: p.metrics.matchNanos.Local(),
			inferNanos: p.metrics.inferNanos.Local(),
		}
	}
	n := len(batch)
	if cap(b.out) < n {
		b.out = make([]outcome, n)
	}
	out := b.out[:n]

	for s := range b.idx {
		b.idx[s] = b.idx[s][:0]
	}
	for i := range batch {
		s := p.shardIndex(batch[i].Device)
		b.idx[s] = append(b.idx[s], int32(i))
	}
	for s, idx := range b.idx {
		if len(idx) == 0 {
			continue
		}
		sh := p.shards[s]
		sh.mu.Lock()
		for _, i := range idx {
			pk := &batch[i]
			o := &out[i]
			*o = outcome{}
			p.processTraced(sh.devices[pk.Device], pk.Rec, pk.Peer, now, o, &b.bt)
		}
		sh.mu.Unlock()
	}
	b.bt.tracer.Flush()
	b.bt.matchNanos.Flush()
	b.bt.inferNanos.Flush()

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
}

// FrameGate adapts ProcessBatch to a frame-level batch inspector — the shape
// netsim.Gateway feeds (it satisfies netsim's BatchInspector interface
// structurally, keeping core free of a netsim dependency). Resolve maps one
// raw frame to its device, flow record, and LAN peer; frames it cannot
// resolve are not FIAT-protected and fail open, mirroring the NFQUEUE
// bypass policy.
type FrameGate struct {
	Proxy *Proxy
	// Resolve maps a frame observed at `at` to the pipeline inputs.
	Resolve func(frame []byte, at time.Time) (device string, rec flows.Record, peer string, ok bool)
}

// InspectBatch decides a batch of frames; out[i] reports whether frame i may
// be forwarded.
func (g *FrameGate) InspectBatch(frames [][]byte, now time.Time) []bool {
	allow := make([]bool, len(frames))
	pkts := make([]PacketIn, 0, len(frames))
	backrefs := make([]int, 0, len(frames))
	for i, f := range frames {
		device, rec, peer, ok := g.Resolve(f, now)
		if !ok {
			allow[i] = true
			continue
		}
		pkts = append(pkts, PacketIn{Device: device, Rec: rec, Peer: peer})
		backrefs = append(backrefs, i)
	}
	for j, d := range g.Proxy.ProcessBatch(pkts) {
		allow[backrefs[j]] = d.Verdict == Allow
	}
	return allow
}
