package core

import (
	"sync"
	"time"

	"fiat/internal/events"
	"fiat/internal/flows"
	"fiat/internal/obs"
	"fiat/internal/swap"
)

// shard owns the state of the devices hash-assigned to it. All per-device
// mutation — rule learning and matching, event grouping, grace counting,
// lockout bookkeeping — happens under sh.mu, so callers touching devices on
// different shards do not contend and share no mutable state.
// Cross-cutting reads (attestation freshness, the device DAG) go through
// structures with their own synchronization; cross-cutting writes (audit
// log, stats, the pending queue) are returned as an outcome and committed
// by the caller.
type shard struct {
	mu      sync.Mutex
	devices map[string]*deviceState
}

// deviceState is one protected device's pipeline state, owned by exactly one
// shard.
type deviceState struct {
	cfg DeviceConfig
	// rules is the bootstrap learning table. The freeze point compiles it
	// into art and drops it, so exactly one of rules and art is non-nil.
	rules   *flows.RuleTable
	grouper *events.Grouper
	// art is the enforcement-phase rule engine, installed at the freeze
	// point as generation 1: the immutable compiled table, this device's
	// own arrival-state block, and the artifact's versioned identity, held
	// as ONE pointer so a hot swap (see swap.go) replaces them together and
	// can never expose a mixed-generation view. Guarded by the shard's mu,
	// like the rest of the device: every read and write holds it, so a
	// reader never keeps a retired generation past the swap. nil before the
	// freeze point.
	art *ruleArtifact
	// rl is the in-flight relearning lifecycle (nil while idle), read by
	// every stage-1 match.
	rl *relearnState
	// tally is the device's cumulative drift tallies, bumped where the
	// pipeline bumps the matching statDelta counters (and the locked-device
	// gauge); drift is the device's own detector window over them, ticked
	// at housekeeping. Both are shard-owned, so the relearning lifecycle is
	// a per-device function of the device's own traffic, the same under
	// every engine and shard count.
	tally swap.Sample
	drift swap.Detector
	// genCounter is the device's monotonic artifact generation counter and
	// cooldownUntil pauses drift-triggered relearning after a rollback.
	genCounter    uint64
	cooldownUntil time.Time
	// classifier is the enforcement-phase event classifier: the per-device
	// compiled inference engine (own model clone + feature scratch, see
	// classifier.go) when the device wears a compilable trained model, or
	// cfg.Classifier itself (rule classifiers, uncompilable families).
	// Owned by this shard, so the compiled path's scratch reuse is
	// race-free.
	classifier EventClassifier
	// current event decision state: evDecision holds the event verdict once
	// evDecided is set (a value pair, not a pointer, so reaching a decision
	// point allocates nothing).
	evPackets  int
	evDecision Decision
	evDecided  bool
	drops      []time.Time
	locked     bool
}

// statDelta accumulates the stats produced by packets before they are merged
// into Proxy.Stats. All counters are sums, so shard-local accumulation and a
// single merge is arithmetically identical to the sequential path.
type statDelta struct {
	packets, allowed, dropped       int
	ruleHits, eventsManual          int
	eventsNonManual                 int
	attestationsOK, attestationsBad int
	pendingHeld, pendingExpired     int
	outageExcused                   int
	ruleCompiles, ruleMatches       int
	compiledKeys                    int
}

func (d *statDelta) add(o statDelta) {
	d.packets += o.packets
	d.allowed += o.allowed
	d.dropped += o.dropped
	d.ruleHits += o.ruleHits
	d.eventsManual += o.eventsManual
	d.eventsNonManual += o.eventsNonManual
	d.attestationsOK += o.attestationsOK
	d.attestationsBad += o.attestationsBad
	d.pendingHeld += o.pendingHeld
	d.pendingExpired += o.pendingExpired
	d.outageExcused += o.outageExcused
	d.ruleCompiles += o.ruleCompiles
	d.ruleMatches += o.ruleMatches
	d.compiledKeys += o.compiledKeys
}

func (d *statDelta) count(v Verdict) {
	if v == Allow {
		d.allowed++
	} else {
		d.dropped++
	}
}

// outcome is the result of one packet (or event flush) through the pipeline:
// the decision plus the global side effects it produced — an audit entry, a
// held pending decision, stat deltas — to be committed by the caller in a
// deterministic order. Everything is held by value so producing an outcome
// performs no heap allocation; hasEntry/hasPending flag which sections are
// populated.
type outcome struct {
	d          Decision
	entry      LogEntry
	hasEntry   bool
	pending    pendingDecision
	hasPending bool
	delta      statDelta
}

// shardIndex hash-assigns a device name to a shard (FNV-1a, inlined so the
// per-packet path does not allocate a hasher or copy the name to a byte
// slice). The assignment is stable across runs and independent of
// registration order, so replays partition identically.
func (p *Proxy) shardIndex(device string) int {
	if len(p.shards) == 1 {
		return 0
	}
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for i := 0; i < len(device); i++ {
		h ^= uint64(device[i])
		h *= prime64
	}
	return int(h % uint64(len(p.shards)))
}

func (p *Proxy) shardFor(device string) *shard {
	return p.shards[p.shardIndex(device)]
}

// processLocked runs one packet through the Fig 4 pipeline. The caller holds
// sh.mu; now is the verdict timestamp.
func (p *Proxy) processLocked(sh *shard, device string, rec flows.Record, peer string, now time.Time) outcome {
	var o outcome
	p.processTraced(sh.devices[device], rec, peer, now, &o, nil)
	return o
}

// processTraced is the per-packet body shared by the sequential and the
// batched path: a trace span follows the packet across the stages, and every
// packet ends in StageVerdict, so the verdict stage counter equals the
// packet counter by construction. The span is closed here rather than by a
// deferred closure so the rule-hit path stays free of heap allocations
// (TestProcessRuleHitZeroAllocs). bt is the batched path's metric view, nil
// on the sequential path, which traces into the shared tracer.
func (p *Proxy) processTraced(ds *deviceState, rec flows.Record, peer string, now time.Time, o *outcome, bt *batchTallies) {
	tr := p.metrics.tracer
	if bt != nil {
		tr = bt.tracer
	}
	sp := tr.Begin(obs.StageIntercept)
	p.processSpanned(ds, rec, peer, now, &sp, o, bt)
	sp.Enter(obs.StageVerdict)
	sp.End()
}

// processSpanned is the pipeline body inside the packet's trace span. ds is
// the pre-resolved device state (nil for unknown devices, which fail open);
// the result lands in *o. When bt is non-nil the packet is part of a
// multi-shard batch, which tallies the match and inference latencies as the
// coarse-time constant 0 instead of reading the clock; the decisions are the
// same either way.
func (p *Proxy) processSpanned(ds *deviceState, rec flows.Record, peer string, now time.Time, sp *obs.Span, o *outcome, bt *batchTallies) {
	o.delta.packets++
	if ds == nil {
		// Unknown devices are not FIAT-protected; fail open like the
		// NFQUEUE bypass policy.
		o.delta.allowed++
		o.d = Decision{Verdict: Allow, Reason: ReasonBootstrap}
		return
	}

	// Bootstrap: allow everything, learn rules. A device already past its
	// freeze point (the clock read behind its freeze) has no table left to
	// learn into and is allowed all the same.
	if now.Sub(p.started) < p.cfg.Bootstrap {
		if ds.rules != nil {
			ds.rules.Learn(rec)
		}
		o.delta.allowed++
		o.d = Decision{Verdict: Allow, Reason: ReasonBootstrap}
		return
	}
	art := ds.art
	if art == nil {
		// Freeze point: compile the learned table, install it as generation
		// 1, and drop the table. From here on the artifact is the device's
		// rules.
		cr := ds.rules.Compile()
		ds.rules = nil
		ds.genCounter = 1
		art = &ruleArtifact{
			meta: swap.Meta{
				Generation: 1,
				RulesSum:   cr.Checksum(),
				ModelSum:   ds.modelSum(),
			},
			compiled: cr,
			arrival:  cr.NewArrivalState(),
		}
		ds.art = art
		o.delta.ruleCompiles++
		o.delta.compiledKeys += cr.NumKeys()
	}

	// Device-to-device DAG rules bypass the pipeline.
	if peer != "" && p.dag.Allowed(peer, ds.cfg.Name) {
		o.delta.allowed++
		o.d = Decision{Verdict: Allow, Reason: ReasonDAGAllowed}
		return
	}

	// Stage 1: predictable? The batched path tallies the coarse-time
	// constant 0 for the match latency (the value every engine observes
	// under a virtual clock) instead of paying two clock reads per packet;
	// the sequential path keeps real per-match timing.
	sp.Enter(obs.StageRules)
	o.delta.ruleMatches++
	ds.tally.Matches++
	var matchStart time.Time
	if bt == nil {
		matchStart = p.metrics.matchStart()
	}
	hit := p.matchRules(ds, art, &rec)
	if bt == nil {
		p.metrics.matchDone(matchStart)
	} else {
		bt.matchNanos.Observe(0)
	}
	if hit {
		o.delta.ruleHits++
		ds.tally.Hits++
		o.delta.allowed++
		o.d = Decision{Verdict: Allow, Reason: ReasonRuleHit}
		return
	}

	// Stage 2: event grouping. A finished previous event is recycled into
	// the grouper's spare slot — nothing downstream retains it (the decision
	// froze its features at the decision point), so the next event reuses
	// its backing array and steady-state grouping allocates nothing.
	sp.Enter(obs.StageGrouping)
	if done := ds.grouper.Add(rec); done != nil || ds.grouper.Current().Len() == 1 {
		// A new event started: reset the per-event decision state.
		ds.grouper.Recycle(done)
		ds.evPackets = 0
		ds.evDecided = false
	}
	ds.evPackets++

	// Stage 3/4 happen once, at the decision point (the N-th packet, or
	// the first when the event is already classifiable).
	if !ds.evDecided {
		if ds.evPackets < ds.cfg.GraceN {
			o.delta.allowed++
			o.d = Decision{Verdict: Allow, Reason: ReasonGraceN}
			return
		}
		d := p.decideEvent(ds, now, o, sp, bt)
		ds.evDecision = d
		ds.evDecided = true
		o.d = d
		return
	}

	// Later packets follow the event's verdict.
	d := ds.evDecision
	d.Reason = ReasonEventFollow
	o.delta.count(d.Verdict)
	o.d = d
}

// decideEvent classifies the current event and applies the humanness gate,
// recording the audit entry and stat counts into o and advancing the trace
// span through classify/attest-check. A held pending decision is recorded
// into o (not pushed), so the caller commits it in deterministic packet
// order. bt is the batched path's metric view, nil on the sequential path.
// The caller holds the owning shard's mutex.
func (p *Proxy) decideEvent(ds *deviceState, now time.Time, o *outcome, sp *obs.Span, bt *batchTallies) Decision {
	sp.Enter(obs.StageClassify)
	ev := ds.grouper.Current()
	if ev == nil {
		return Decision{Verdict: Allow, Reason: ReasonNonManual}
	}
	if ds.locked {
		d := Decision{Verdict: Drop, Reason: ReasonLocked}
		o.note(ds, now, d, ev.Len())
		o.delta.count(d.Verdict)
		return d
	}
	var inferStart time.Time
	if bt == nil {
		inferStart = p.metrics.matchStart()
	}
	manual := ds.classifier != nil && ds.classifier.IsManual(ev)
	if bt == nil {
		p.metrics.inferDone(inferStart)
	} else {
		bt.inferNanos.Observe(0)
	}
	var d Decision
	if !manual {
		o.delta.eventsNonManual++
		ds.tally.NonManual++
		d = Decision{Verdict: Allow, Reason: ReasonNonManual}
	} else {
		o.delta.eventsManual++
		ds.tally.Manual++
		sp.Enter(obs.StageAttestCheck)
		switch {
		case p.validations.humanRecently(ds.cfg.Name, now):
			d = Decision{Verdict: Allow, Reason: ReasonHumanOK}
		case p.cfg.PendingWindow > 0:
			// Degraded mode: withhold the event but defer judgment — a
			// late attestation may still vouch for it, and only an expiry
			// over a healthy channel feeds the lockout counter (see
			// SweepPending).
			d = Decision{Verdict: Drop, Reason: ReasonPendingHold}
			o.pending = pendingDecision{
				device:  ds.cfg.Name,
				decided: now,
				expires: now.Add(p.cfg.PendingWindow),
				packets: ev.Len(),
			}
			o.hasPending = true
			o.delta.pendingHeld++
		default:
			d = Decision{Verdict: Drop, Reason: ReasonNoHuman}
			p.registerDrop(ds, now)
		}
	}
	o.note(ds, now, d, ev.Len())
	o.delta.count(d.Verdict)
	return d
}

// flushLocked finalizes a device's in-progress event. The caller holds the
// owning shard's mutex; the outcome's entry/pending/delta must still be
// committed.
func (p *Proxy) flushLocked(ds *deviceState, now time.Time) (outcome, *Decision) {
	var o outcome
	if ds.grouper.Current() == nil {
		return o, nil
	}
	if !ds.evDecided {
		sp := p.metrics.tracer.Begin(obs.StageClassify)
		d := p.decideEvent(ds, now, &o, &sp, nil)
		sp.End()
		ds.evDecision = d
		ds.evDecided = true
	}
	d := ds.evDecision
	ds.grouper.Recycle(ds.grouper.Flush())
	ds.evPackets = 0
	ds.evDecided = false
	o.d = d
	return o, &d
}

func (p *Proxy) registerDrop(ds *deviceState, now time.Time) {
	keep := ds.drops[:0]
	for _, t := range ds.drops {
		if now.Sub(t) < p.cfg.LockoutWindow {
			keep = append(keep, t)
		}
	}
	ds.drops = append(keep, now)
	if len(ds.drops) >= p.cfg.LockoutThreshold && !ds.locked {
		ds.locked = true
		ds.tally.Lockouts++
		p.metrics.lockedDevices.Add(1)
	}
}

func (o *outcome) note(ds *deviceState, now time.Time, d Decision, packets int) {
	o.entry = LogEntry{
		Time: now, Device: ds.cfg.Name, Reason: d.Reason, Verdict: d.Verdict, Packets: packets,
	}
	o.hasEntry = true
}
