package core

import (
	"fmt"
	"time"

	"fiat/internal/flows"
	"fiat/internal/obs"
	"fiat/internal/swap"
)

// ruleArtifact is one immutable generation of a device's enforcement-phase
// rule engine: the compiled arena, the shard-owned arrival state evolving
// against it, and the versioned identity that travels into EncodeState. The
// pointer as a whole is what Process loads and what promotion swaps, so a
// reader can never observe the compiled rules of one generation paired with
// the arrival state or identity of another. Every load and store happens
// under the owning shard's mutex, so a superseded generation is retired by
// dropping the pointer: once no shard holds it, the garbage collector takes
// it (a restored view's bytes alias a mapping that is never unmapped).
type ruleArtifact struct {
	meta     swap.Meta
	compiled *flows.CompiledRules
	arrival  *flows.ArrivalState
}

// relearnState is a device's in-flight relearning lifecycle: the candidate
// mutable table while learning; the compiled candidate, its identity, and
// its shadow matrix once it enters shadow evaluation, which drops the table.
// Owned by the device's shard (mutated only under sh.mu); nil while the
// device is idle.
type relearnState struct {
	phase   swap.Phase
	started time.Time

	table *flows.RuleTable // PhaseRelearn only

	meta     swap.Meta
	compiled *flows.CompiledRules
	arrival  *flows.ArrivalState
	matrix   swap.ShadowMatrix
	// flushed is the matrix image already mirrored into the swap counters,
	// so each housekeeping tick adds only the window's delta.
	flushed swap.ShadowMatrix
}

// swapMetrics is the relearning lifecycle's own registry. It is deliberately
// NOT the proxy's main registry: the main registry is a determinism oracle —
// byte-identical across engines and across the swapped-identical differential
// arm — and swap counters (generations, promotions) legitimately differ between
// a swapped and a never-swapped run. The split mirrors durable.Manager's
// private registry; read it via Proxy.SwapMetrics.
type swapMetrics struct {
	reg *obs.Registry

	generations      *obs.Counter
	relearns         *obs.Counter
	promotions       *obs.Counter
	rollbacks        *obs.Counter
	shadowPackets    *obs.Counter
	shadowMismatches *obs.Counter
}

// newSwapMetrics pre-registers every lifecycle metric so snapshots are
// structurally identical whether or not a given transition ever fired.
func newSwapMetrics() *swapMetrics {
	reg := obs.NewRegistry()
	return &swapMetrics{
		reg:              reg,
		generations:      reg.Counter("fiat_swap_generations_total"),
		relearns:         reg.Counter("fiat_swap_relearns_total"),
		promotions:       reg.Counter("fiat_swap_promotions_total"),
		rollbacks:        reg.Counter("fiat_swap_rollbacks_total"),
		shadowPackets:    reg.Counter("fiat_swap_shadow_packets_total"),
		shadowMismatches: reg.Counter("fiat_swap_shadow_mismatches_total"),
	}
}

// SwapMetrics exposes the relearning lifecycle's private registry (see
// swapMetrics for why it is not merged into the main one).
func (p *Proxy) SwapMetrics() *obs.Registry { return p.swapM.reg }

// matchRules runs the stage-1 predictability check through art, the
// device's live compiled artifact as the caller loaded it for this packet
// (the freeze point installs one before the first match). The caller holds
// the owning shard's mutex, which promotion also holds, so the artifact
// cannot change under a packet. While a relearn lifecycle is in flight
// the live verdict is computed first and is never affected: the relearn
// phase feeds the candidate table (the one allocating phase, excluded from
// the steady-state alloc pins), and the shadow phase scores the candidate
// against its own arrival state and notes agreement — both zero-alloc on the
// live path.
func (p *Proxy) matchRules(ds *deviceState, art *ruleArtifact, rec *flows.Record) bool {
	if h := p.swapHook; h != nil {
		h(ds.cfg.Name, art)
	}
	hit := art.compiled.Match(rec, art.arrival)
	if rl := ds.rl; rl != nil {
		switch rl.phase {
		case swap.PhaseRelearn:
			rl.table.Learn(*rec)
		case swap.PhaseShadow:
			rl.matrix.Note(hit, rl.compiled.Match(rec, rl.arrival))
		}
	}
	return hit
}

// swapTick advances the relearning lifecycle one housekeeping tick: walk
// every device in name order (so every serialized side effect lands in a
// deterministic order), tick its own drift detector and advance its
// lifecycle under its shard lock. Called from SweepPending, which the
// durable WAL logs as an op, so crash replay re-runs the lifecycle
// tick-for-tick.
func (p *Proxy) swapTick(now time.Time) {
	if !p.cfg.Relearn.Enabled {
		return
	}
	for _, ds := range p.deviceStates() {
		sh := p.shardFor(ds.cfg.Name)
		sh.mu.Lock()
		p.deviceSwapTickLocked(ds, now)
		sh.mu.Unlock()
	}
}

// deviceSwapTickLocked ticks one device's drift detector over its own
// tallies and advances its lifecycle. The caller holds the owning shard's
// mutex.
func (p *Proxy) deviceSwapTickLocked(ds *deviceState, now time.Time) {
	o := &p.cfg.Relearn
	sig := ds.drift.Tick(ds.tally, o)
	rl := ds.rl
	if rl == nil {
		if sig == swap.SignalNone || now.Before(ds.cooldownUntil) || ds.art == nil {
			// Nothing to do: no drift, cooling down, or the device has no
			// compiled artifact yet (pre-freeze).
			return
		}
		ds.rl = &relearnState{
			phase:   swap.PhaseRelearn,
			started: now,
			table:   flows.NewRuleTable(p.cfg.Mode),
		}
		p.swapM.relearns.Inc()
		return
	}
	switch rl.phase {
	case swap.PhaseRelearn:
		if now.Sub(rl.started) >= o.RelearnFor {
			p.compileCandidateLocked(ds, rl, now)
		}
	case swap.PhaseShadow:
		p.flushShadowLocked(rl)
		if now.Sub(rl.started) < o.ShadowFor {
			return
		}
		if rl.matrix.MatchesOrBeats(o.ShadowMin) {
			p.promoteLocked(ds, rl)
		} else {
			ds.rl = nil
			ds.cooldownUntil = now.Add(o.Cooldown)
			p.swapM.rollbacks.Inc()
		}
		// A promotion or rollback changed the device's enforcement regime on
		// purpose; re-arm its detector so the old baseline does not
		// immediately re-trigger.
		ds.drift.Reset(ds.tally)
	}
}

// compileCandidateLocked compiles the candidate table and drops it, carries
// the live arrival positions over for the buckets both generations know, and
// enters shadow evaluation under the next generation number. The caller
// holds the owning shard's mutex.
func (p *Proxy) compileCandidateLocked(ds *deviceState, rl *relearnState, now time.Time) {
	live := ds.art
	compiled := rl.table.Compile()
	rl.table = nil
	arrival := compiled.NewArrivalState()
	flows.TransferArrival(compiled, arrival, live.compiled, live.arrival)
	ds.genCounter++
	rl.meta = swap.Meta{
		Generation: ds.genCounter,
		Parent:     live.meta.Generation,
		RulesSum:   compiled.Checksum(),
		ModelSum:   live.meta.ModelSum,
	}
	rl.compiled = compiled
	rl.arrival = arrival
	rl.matrix = swap.ShadowMatrix{}
	rl.flushed = swap.ShadowMatrix{}
	rl.started = now
	rl.phase = swap.PhaseShadow
	p.swapM.generations.Inc()
}

// flushShadowLocked mirrors the shadow matrix's growth since the last tick
// into the monotonic swap counters.
func (p *Proxy) flushShadowLocked(rl *relearnState) {
	d := rl.matrix.Sub(rl.flushed)
	p.swapM.shadowPackets.Add(d.Packets)
	p.swapM.shadowMismatches.Add(d.Mismatches())
	rl.flushed = rl.matrix
}

// promoteLocked installs the shadow candidate as the live artifact. The
// caller holds the owning shard's mutex, which every reader of ds.art also
// holds, so the next packet sees the new generation and nothing is left
// pointing at the old one for the garbage collector to wait on.
func (p *Proxy) promoteLocked(ds *deviceState, rl *relearnState) {
	ds.art = &ruleArtifact{meta: rl.meta, compiled: rl.compiled, arrival: rl.arrival}
	ds.rl = nil
	p.swapM.promotions.Inc()
}

// PromoteIdentical clones the device's live arena into a fresh artifact of
// the next generation, transfers the live arrival state, and hot swaps it
// in — a semantic no-op whose decisions, audit log, stats, and main
// metrics are byte-identical to never swapping (the four-way differential
// enforces it). It is the manual half of the lifecycle: the path a fleet
// control plane distributing re-signed artifacts would drive, and the lever
// the property and differential suites use to exercise the hot swap without
// waiting for drift.
func (p *Proxy) PromoteIdentical(device string) (swap.Meta, error) {
	sh := p.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ds, ok := sh.devices[device]
	if !ok {
		return swap.Meta{}, fmt.Errorf("core: device %q not registered", device)
	}
	old := ds.art
	if old == nil {
		return swap.Meta{}, fmt.Errorf("core: device %q has no compiled artifact to swap", device)
	}
	// The clone goes through the canonical arena codec, so it is a fresh
	// in-process arena, like the freeze point's.
	compiled, _, err := flows.DecodeCompiledRules(old.compiled.EncodeArena())
	if err != nil {
		return swap.Meta{}, fmt.Errorf("core: device %q clone arena: %w", device, err)
	}
	arrival := compiled.NewArrivalState()
	flows.TransferArrival(compiled, arrival, old.compiled, old.arrival)
	ds.genCounter++
	meta := swap.Meta{
		Generation: ds.genCounter,
		Parent:     old.meta.Generation,
		RulesSum:   compiled.Checksum(),
		ModelSum:   old.meta.ModelSum,
	}
	ds.art = &ruleArtifact{meta: meta, compiled: compiled, arrival: arrival}
	p.swapM.generations.Inc()
	p.swapM.promotions.Inc()
	return meta, nil
}

// ArtifactMeta reports the live artifact's identity (zero Meta and false
// before the device's freeze point).
func (p *Proxy) ArtifactMeta(device string) (swap.Meta, bool) {
	sh := p.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ds, ok := sh.devices[device]
	if !ok {
		return swap.Meta{}, false
	}
	art := ds.art
	if art == nil {
		return swap.Meta{}, false
	}
	return art.meta, true
}

// SwapPhase reports where the device sits in the relearning lifecycle.
func (p *Proxy) SwapPhase(device string) swap.Phase {
	sh := p.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ds, ok := sh.devices[device]; ok && ds.rl != nil {
		return ds.rl.phase
	}
	return swap.PhaseIdle
}

// modelSum digests the device's compiled classifier model for artifact
// identity (0 when the device classifies through an uncompiled path).
func (ds *deviceState) modelSum() uint32 {
	if cec, ok := ds.classifier.(*compiledEventClassifier); ok {
		return cec.sum
	}
	return 0
}
