package core

import (
	"time"

	"fiat/internal/obs"
	"fiat/internal/simclock"
)

// allReasons enumerates every decision reason for metric pre-registration.
// Pre-registering keeps snapshots deterministic: a run in which a reason
// never fires still encodes its counter (as 0), so two runs differing only
// in which code paths executed still produce structurally identical
// snapshots.
var allReasons = []Reason{
	ReasonBootstrap, ReasonRuleHit, ReasonGraceN, ReasonNonManual,
	ReasonHumanOK, ReasonNoHuman, ReasonLocked, ReasonDAGAllowed,
	ReasonEventFollow, ReasonPendingHold, ReasonLateAttest,
	ReasonPendingExpired, ReasonOutageExcused,
}

// coreMetrics is the proxy's registry wiring: one pre-resolved handle per
// metric so the hot path never takes the registry lock. Counters mirror
// ProxyStats (they are fed from the same statDelta merge, so batched and
// sequential runs agree by construction); the audit-reason counters mirror
// the log; the gauges track lockout and pending-queue state; the histograms
// time ProcessBatch and size its batches. Stage counters/dwell live in the
// tracer (see internal/obs).
type coreMetrics struct {
	reg *obs.Registry
	now func() time.Time

	packets, allowed, dropped       *obs.Counter
	ruleHits                        *obs.Counter
	eventsManual, eventsNonManual   *obs.Counter
	attestationsOK, attestationsBad *obs.Counter
	attestationsStale               *obs.Counter
	attestationsReplayed            *obs.Counter
	pendingHeld, lateAdmitted       *obs.Counter
	pendingExpired, outageExcused   *obs.Counter
	ruleCompiles, ruleMatches       *obs.Counter
	classifierCompiles              *obs.Counter
	reasons                         map[Reason]*obs.Counter

	lockedDevices *obs.Gauge
	pendingDepth  *obs.Gauge
	compiledKeys  *obs.Gauge

	batchNanos *obs.Histogram
	batchSize  *obs.Histogram
	matchNanos *obs.Histogram
	inferNanos *obs.Histogram

	tracer *obs.Tracer
}

// batchNanoBounds spans 1 µs .. ~4 s; batchSizeBounds spans 1 .. 4096
// packets per ProcessBatch call; matchNanoBounds spans 50 ns .. ~800 µs,
// the plausible range of one compiled or mutex rule-match; inferNanoBounds
// spans the same range for one extract→scale→infer event classification.
var (
	batchNanoBounds = obs.ExpBounds(1000, 4, 11)
	batchSizeBounds = obs.ExpBounds(1, 4, 7)
	matchNanoBounds = obs.ExpBounds(50, 4, 8)
	inferNanoBounds = obs.ExpBounds(50, 4, 8)
)

// newCoreMetrics wires the proxy's metrics into reg (nil reg yields no-op
// handles, costing a few dead atomic adds per packet).
func newCoreMetrics(reg *obs.Registry, clock simclock.Clock) *coreMetrics {
	m := &coreMetrics{
		reg:                  reg,
		packets:              reg.Counter("fiat_core_packets_total"),
		allowed:              reg.Counter("fiat_core_allowed_total"),
		dropped:              reg.Counter("fiat_core_dropped_total"),
		ruleHits:             reg.Counter("fiat_core_rule_hits_total"),
		eventsManual:         reg.Counter("fiat_core_events_manual_total"),
		eventsNonManual:      reg.Counter("fiat_core_events_non_manual_total"),
		attestationsOK:       reg.Counter("fiat_core_attestations_ok_total"),
		attestationsBad:      reg.Counter("fiat_core_attestations_bad_total"),
		attestationsStale:    reg.Counter("fiat_core_attestations_stale_total"),
		attestationsReplayed: reg.Counter("fiat_core_attestations_replayed_total"),
		pendingHeld:          reg.Counter("fiat_core_pending_held_total"),
		lateAdmitted:         reg.Counter("fiat_core_late_admitted_total"),
		pendingExpired:       reg.Counter("fiat_core_pending_expired_total"),
		outageExcused:        reg.Counter("fiat_core_outage_excused_total"),
		ruleCompiles:         reg.Counter("fiat_core_rule_compiles_total"),
		ruleMatches:          reg.Counter("fiat_core_rule_match_total"),
		classifierCompiles:   reg.Counter("fiat_core_classifier_compiles_total"),
		reasons:              make(map[Reason]*obs.Counter, len(allReasons)),
		lockedDevices:        reg.Gauge("fiat_core_locked_devices"),
		pendingDepth:         reg.Gauge("fiat_core_pending_depth"),
		compiledKeys:         reg.Gauge("fiat_core_compiled_rule_keys"),
		batchNanos:           reg.Histogram("fiat_core_batch_ns", batchNanoBounds),
		batchSize:            reg.Histogram("fiat_core_batch_size", batchSizeBounds),
		matchNanos:           reg.Histogram("fiat_core_rule_match_ns", matchNanoBounds),
		inferNanos:           reg.Histogram("fiat_core_classify_infer_ns", inferNanoBounds),
	}
	for _, r := range allReasons {
		m.reasons[r] = reg.Counter(obs.Label("fiat_core_decisions_total", "reason", string(r)))
	}
	if clock != nil {
		m.now = clock.Now
	}
	m.tracer = obs.NewTracer(reg, "fiat_core", m.now)
	return m
}

// matchStart samples the match-latency clock (zero when no time source is
// wired, and a deterministic constant under a virtual clock, so snapshot
// oracles keep holding).
func (m *coreMetrics) matchStart() time.Time {
	if m.now == nil {
		return time.Time{}
	}
	return m.now()
}

// matchDone records one stage-1 rule-match latency observation.
func (m *coreMetrics) matchDone(start time.Time) {
	if m.now == nil {
		m.matchNanos.Observe(0)
		return
	}
	m.matchNanos.Observe(m.now().Sub(start).Nanoseconds())
}

// inferDone records one event-classification latency observation (zero when
// no time source is wired, and a deterministic constant under a virtual
// clock, so snapshot oracles keep holding).
func (m *coreMetrics) inferDone(start time.Time) {
	if m.now == nil {
		m.inferNanos.Observe(0)
		return
	}
	m.inferNanos.Observe(m.now().Sub(start).Nanoseconds())
}

// applyDelta mirrors one merged statDelta into the registry counters.
// Deltas are sums, so applying batch-merged deltas here is arithmetically
// identical to the sequential per-packet path — the invariant the
// metrics-oracle tests assert.
func (m *coreMetrics) applyDelta(d statDelta) {
	m.packets.Add(int64(d.packets))
	m.allowed.Add(int64(d.allowed))
	m.dropped.Add(int64(d.dropped))
	m.ruleHits.Add(int64(d.ruleHits))
	m.eventsManual.Add(int64(d.eventsManual))
	m.eventsNonManual.Add(int64(d.eventsNonManual))
	m.attestationsOK.Add(int64(d.attestationsOK))
	m.attestationsBad.Add(int64(d.attestationsBad))
	m.pendingHeld.Add(int64(d.pendingHeld))
	m.pendingExpired.Add(int64(d.pendingExpired))
	m.outageExcused.Add(int64(d.outageExcused))
	m.ruleCompiles.Add(int64(d.ruleCompiles))
	m.ruleMatches.Add(int64(d.ruleMatches))
	// The compiled-keys gauge grows by each freeze's interned-key count;
	// deltas are sums, so batch-merged and sequential runs agree.
	m.compiledKeys.Add(int64(d.compiledKeys))
}

// noteEntry counts one audit-log append by reason; the caller holds p.mu
// (all log appends do), which also guards the lazy map insert. Unknown
// reasons (none exist today) fall through to a lazily created counter so
// the log and the registry can never disagree.
func (m *coreMetrics) noteEntry(e *LogEntry) {
	c, ok := m.reasons[e.Reason]
	if !ok {
		c = m.reg.Counter(obs.Label("fiat_core_decisions_total", "reason", string(e.Reason)))
		m.reasons[e.Reason] = c
	}
	c.Inc()
}
