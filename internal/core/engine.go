package core

import (
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

// ProcessBatch runs a batch of packets through the pipeline. The batched
// body decides the whole batch under one hold of the device mutex (see
// batcher); with Config.Shards == 1 the batch runs packet by packet through
// Process instead, the reference the batched body is checked against.
//
// Determinism contract: ProcessBatch(batch) returns exactly the decisions —
// and appends exactly the audit entries, in the same order, with the same
// stats — that calling Process on each packet in batch order would produce
// while the clock does not advance during the batch. The timestamp is
// sampled once at batch entry and the packets are decided in batch order.
// The engine differentials (TestAsyncPipelineMatchesSequentialAndSharded,
// TestGoldenDigests and their kin) check this decision for decision against
// the Process loop.
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
	if p.cfg.Shards == 1 {
		for i := range batch {
			pk := &batch[i]
			dst[i] = p.Process(pk.Device, pk.Rec, pk.Peer)
		}
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

// batcher is the batched body behind ProcessBatch. It decides the batch in
// batch order under one hold of the device mutex, which also guards the
// batcher itself. Each packet runs through the same pipeline body as
// Process (processTraced), event decisions included, and writes its outcome
// into an arena slot indexed by batch position. In steady state a packet
// traverses intercept → verdict with zero heap allocations
// (TestPipelineSteadyStateZeroAllocs).
//
// Determinism: the merge walks the arena in batch order — decisions out,
// audit entries appended, pending holds pushed, stat deltas summed — so it
// replays the sequential commit order exactly, with p.mu taken once per
// batch instead of once per packet.
type batcher struct {
	out []outcome // per-batch outcome arena, slot i = batch index i
	bt  batchTallies
}

// batchTallies is the batched body's metric view, folded into the proxy's
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
// len(batch)). Nothing here allocates once the arena has warmed to the
// workload's batch size.
func (b *batcher) run(p *Proxy, batch []PacketIn, dst []Decision, now time.Time) {
	p.devMu.Lock()
	defer p.devMu.Unlock()
	if b.bt.tracer == nil {
		b.bt = batchTallies{
			tracer:     p.metrics.tracer.Local(),
			matchNanos: p.metrics.matchNanos.Local(),
			inferNanos: p.metrics.inferNanos.Local(),
		}
	}
	if cap(b.out) < len(batch) {
		b.out = make([]outcome, len(batch))
	}
	out := b.out[:len(batch)]
	for i := range batch {
		pk := &batch[i]
		o := &out[i]
		*o = outcome{}
		p.processTraced(p.devices[pk.Device], &pk.Rec, pk.Peer, now, o, &b.bt)
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
