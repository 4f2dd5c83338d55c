package core

import (
	"time"

	"fiat/internal/flows"
)

// PacketIn is one packet submitted to the batched engine: the owning device,
// its flow record, and the LAN peer ("" for WAN traffic).
type PacketIn struct {
	Device string
	Rec    flows.Record
	Peer   string
}

// ProcessBatch runs a batch of packets through the pipeline. With one shard
// the batch runs inline on the sequential path; otherwise it runs on the
// pipeline's per-shard workers (async.go), which start on the first such
// batch.
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
	if len(p.shards) == 1 || !p.async.run(batch, dst, start) {
		p.processBatchSequential(batch, dst)
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

// processBatchSequential is the inline path: one shard, or a batch after
// Close.
func (p *Proxy) processBatchSequential(batch []PacketIn, dst []Decision) {
	for i, pk := range batch {
		dst[i] = p.Process(pk.Device, pk.Rec, pk.Peer)
	}
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
