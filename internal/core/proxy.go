package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fiat/internal/artifact"
	"fiat/internal/events"
	"fiat/internal/flows"
	"fiat/internal/intercept"
	"fiat/internal/keystore"
	"fiat/internal/obs"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
	"fiat/internal/swap"
)

// Verdict aliases the interceptor's decision type.
type Verdict = intercept.Verdict

// Re-exported verdicts.
const (
	Allow = intercept.Accept
	Drop  = intercept.Drop
)

// Reason explains a proxy decision, recorded in the audit log.
type Reason string

// Decision reasons.
const (
	ReasonBootstrap   Reason = "bootstrap-learning"
	ReasonRuleHit     Reason = "predictable-rule-hit"
	ReasonGraceN      Reason = "event-head-grace"
	ReasonNonManual   Reason = "classified-non-manual"
	ReasonHumanOK     Reason = "manual-with-human"
	ReasonNoHuman     Reason = "manual-without-human"
	ReasonLocked      Reason = "device-locked"
	ReasonDAGAllowed  Reason = "device-dag-rule"
	ReasonEventFollow Reason = "follows-event-verdict"
)

// Degraded-mode reasons (see pending.go): with PendingWindow > 0 a manual
// event without a live attestation is held rather than condemned.
const (
	// ReasonPendingHold marks the initial withholding of an unattested
	// manual event; the final disposition follows in a later entry.
	ReasonPendingHold Reason = "degraded-pending-hold"
	// ReasonLateAttest marks retroactive admission: the human attestation
	// arrived within the pending window.
	ReasonLateAttest Reason = "degraded-late-attestation"
	// ReasonPendingExpired marks a window that closed with a healthy
	// channel and no attestation — a real unattested event, counted toward
	// lockout.
	ReasonPendingExpired Reason = "degraded-pending-expired"
	// ReasonOutageExcused marks a window that closed while the attestation
	// channel was down; the drop stands but is excluded from lockout
	// accounting.
	ReasonOutageExcused Reason = "degraded-outage-excused"
)

// Decision is the proxy's per-packet output.
type Decision struct {
	Verdict Verdict
	Reason  Reason
}

// LogEntry is one audit-log record. The Discussion argues these
// tamper-resistant logs (sealed in the proxy's enclave) let users notice
// silent false negatives.
type LogEntry struct {
	Time    time.Time
	Device  string
	Reason  Reason
	Verdict Verdict
	Packets int // event size when the entry closes an event decision
}

// DeviceConfig registers one protected IoT device with the proxy.
type DeviceConfig struct {
	// Name identifies the device in decisions and logs.
	Name string
	// Classifier decides manual vs non-manual for its events.
	Classifier EventClassifier
	// GraceN is the number of head packets allowed while the event is
	// being classified (§5.4: "The first N packets ... are allowed"). The
	// deployed configuration uses N = 5.
	GraceN int
}

// Config parameterizes the proxy.
type Config struct {
	// Bootstrap is the learning window (default 20 minutes, §5.4).
	Bootstrap time.Duration
	// Mode selects flow bucketing (default PortLess).
	Mode flows.KeyMode
	// EventGap is the §3.2 grouping threshold (default 5 s).
	EventGap time.Duration
	// LockoutThreshold is how many dropped manual events within
	// LockoutWindow disconnect the device pending manual review (§5.4
	// brute-force protection). Defaults: 3 within 1 minute.
	LockoutThreshold int
	LockoutWindow    time.Duration
	// Shards = 1 makes ProcessBatch decide each batch packet by packet
	// through Process, the reference arm the differential tests and the
	// gateway benchmark's replay compare the batched body against. Any
	// other value, the default included, runs the batched body. Decisions
	// are identical either way, so Shards is excluded from ConfigChecksum.
	// The field exists only because the gateway benchmark harness still
	// sets it, and ROADMAP item 1 deletes it; leave it zero.
	Shards int
	// PendingWindow, when positive, enables the degraded-mode attestation
	// path: an unattested manual event is held for this long awaiting a
	// late attestation instead of being condemned immediately (see
	// pending.go). Zero keeps the strict §5.4 behavior.
	PendingWindow time.Duration
	// PendingMax bounds the held-decision queue (default 64); overflow
	// evicts the oldest entry, which is then finalized as expired.
	PendingMax int
	// AttestWindow, when positive, enables attestation anti-replay: an
	// attestation is rejected when its claimed interaction time lies outside
	// this window around receipt (time-shifted capture, exclusive boundary —
	// see sensors.ReplayGuard), or when its authentication tag was already
	// admitted inside the window (byte-exact replay). Zero disables the
	// guard, keeping the transport's anti-replay (quicfast packet numbers)
	// as the only line of defense.
	AttestWindow time.Duration
	// Relearn configures the online-relearning lifecycle: each device's
	// drift detector, over that device's own tallies, triggers background
	// relearning of that device into a fresh table, shadow evaluation
	// against its live artifact, and a hot swap on promotion.
	// Disabled by default; the manual swap path (PromoteIdentical) works
	// regardless. The lifecycle is the same under either ProcessBatch
	// engine, but its thresholds ARE part of ConfigChecksum, because they
	// change which decisions the pipeline reaches after a promotion.
	Relearn swap.Options
	// Obs is the metrics registry the proxy publishes into. Nil creates a
	// private registry (reachable via Metrics), so instrumentation is
	// always on; pass a shared registry to merge proxy metrics with
	// transport and fault-fabric metrics in one snapshot.
	Obs *obs.Registry
	// Artifacts is the content-addressed store RestoreState installs each
	// unique compiled arena and classifier template into, so every device
	// adopts a shared view instead of decoding its own copy. Nil
	// creates a private store. The field exists only because the gateway
	// benchmark harness still sets it; leave it nil. Like Shards, it is
	// excluded from ConfigChecksum.
	Artifacts *artifact.Store
}

func (c *Config) defaults() {
	if c.Bootstrap <= 0 {
		c.Bootstrap = flows.DefaultBootstrap
	}
	if c.EventGap <= 0 {
		c.EventGap = events.DefaultGap
	}
	if c.LockoutThreshold <= 0 {
		c.LockoutThreshold = 3
	}
	if c.LockoutWindow <= 0 {
		c.LockoutWindow = time.Minute
	}
	if c.PendingMax <= 0 {
		c.PendingMax = 64
	}
	if c.Relearn.Enabled {
		c.Relearn.Defaults()
	}
}

// Proxy is FIAT's server-side component. Per-device pipeline state lives in
// one table under one device mutex, devMu, the way the paper's gateway
// decides every frame on one verdict queue; cross-cutting state is either
// internally synchronized and read-mostly (validations, DAG) or committed
// under p.mu in a deterministic merge order (audit log, stats). The lock
// order is devMu before p.mu, never the reverse.
type Proxy struct {
	clock   simclock.Clock
	cfg     Config
	ks      *keystore.Store
	human   *sensors.Validator
	started time.Time

	// devMu is the device mutex. It guards devices, every deviceState in
	// it (the live artifact pointer and the relearning lifecycle included),
	// and batcher.
	devMu   sync.Mutex
	devices map[string]*deviceState
	batcher batcher // ProcessBatch's batched body (engine.go)

	validations *validationStore
	dag         *DeviceDAG
	pending     *pendingStore
	channel     *channelHealth
	metrics     *coreMetrics
	guard       *sensors.ReplayGuard // nil when Config.AttestWindow == 0

	// The online-relearning lifecycle's private metrics registry (swap.go).
	swapM *swapMetrics

	// devs is every registered device in name order: the canonical
	// iteration order of the housekeeping sweep, the config digest and the
	// state image. AddDevice republishes it copy-on-write under devMu, so
	// readers load it without a lock and never sort (see deviceStates).
	devs atomic.Pointer[[]*deviceState]

	// Test hook (nil in production): swapHook observes every artifact the
	// match path loads.
	swapHook func(device string, art *ruleArtifact)

	mu      sync.Mutex // guards aliases, log, Stats
	aliases []string
	log     []LogEntry

	// Stats counts pipeline outcomes. Read it only when no Process /
	// ProcessBatch / HandleAttestation call is in flight, or use
	// StatsSnapshot.
	Stats ProxyStats
}

// ProxyStats are the pipeline outcome counters.
type ProxyStats struct {
	Packets, Allowed, Dropped int
	RuleHits, EventsManual    int
	EventsNonManual           int
	AttestationsOK            int
	AttestationsBad           int
	// Anti-replay rejections (Config.AttestWindow > 0); both also count
	// into AttestationsBad, so existing reconciliations keep holding.
	AttestationsStale    int
	AttestationsReplayed int
	// RuleCompiles counts devices whose rule tables hit the freeze point
	// and were compiled into the immutable enforcement form.
	RuleCompiles int
	// Degraded-mode dispositions (PendingWindow > 0).
	PendingHeld    int
	LateAdmitted   int
	PendingExpired int
	OutageExcused  int
}

// NewProxy builds a proxy. ks must hold the pairing key (see
// keystore.NewPairingOffer); human is the trained humanness validator.
func NewProxy(clock simclock.Clock, ks *keystore.Store, human *sensors.Validator, cfg Config) *Proxy {
	cfg.defaults()
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.Artifacts == nil {
		cfg.Artifacts = artifact.NewStore()
	}
	var guard *sensors.ReplayGuard
	if cfg.AttestWindow > 0 {
		guard = sensors.NewReplayGuard(cfg.AttestWindow)
	}
	return &Proxy{
		clock:       clock,
		cfg:         cfg,
		ks:          ks,
		human:       human,
		started:     clock.Now(),
		aliases:     []string{keystore.PairingAlias},
		devices:     make(map[string]*deviceState),
		validations: newValidationStore(),
		dag:         NewDeviceDAG(),
		pending:     newPendingStore(cfg.PendingMax),
		channel:     &channelHealth{},
		metrics:     newCoreMetrics(cfg.Obs, clock),
		guard:       guard,
		swapM:       newSwapMetrics(),
	}
}

// Close does nothing: a proxy holds no goroutine, file or other resource
// that outlives its last reference, so nothing needs closing. It stays
// only for a caller in the gateway benchmark harness; do not add new calls.
func (p *Proxy) Close() {}

// Metrics exposes the proxy's registry (the one passed as Config.Obs, or
// the private default). Snapshot it for a `/metrics`-style text export.
func (p *Proxy) Metrics() *obs.Registry { return p.metrics.reg }

// AddDevice registers a device. GraceN defaults to 5.
func (p *Proxy) AddDevice(cfg DeviceConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("core: device needs a name")
	}
	if cfg.GraceN <= 0 {
		cfg.GraceN = 5
	}
	p.devMu.Lock()
	defer p.devMu.Unlock()
	if _, ok := p.devices[cfg.Name]; ok {
		return fmt.Errorf("core: device %q already registered", cfg.Name)
	}
	ds := &deviceState{
		cfg:        cfg,
		rules:      flows.NewRuleTable(p.cfg.Mode),
		grouper:    events.NewGrouper(p.cfg.EventGap),
		classifier: cfg.Classifier,
	}
	// Devices wearing a trained, compilable model get their own frozen
	// inference engine (model clone + feature scratch, owned by the device);
	// every other classifier, including a model whose family does not
	// compile, classifies through its own IsManual.
	if mlc, ok := cfg.Classifier.(*MLClassifier); ok && mlc.Compiled() != nil {
		p.metrics.classifierCompiles.Inc()
		ds.classifier = mlc.CompiledEventClassifier()
	}
	p.devices[cfg.Name] = ds
	p.publishDevice(ds)
	return nil
}

// publishDevice inserts a newly registered device into the name-ordered
// device list and publishes a fresh copy, so a reader that loaded the old
// list keeps a list nobody writes. The caller holds the device mutex, which
// serializes publishers.
func (p *Proxy) publishDevice(ds *deviceState) {
	old := p.deviceStates()
	i := sort.Search(len(old), func(i int) bool { return old[i].cfg.Name > ds.cfg.Name })
	devs := make([]*deviceState, 0, len(old)+1)
	devs = append(append(append(devs, old[:i]...), ds), old[i:]...)
	p.devs.Store(&devs)
}

// deviceStates returns every registered device in name order. The slice is
// shared: callers must not modify it.
func (p *Proxy) deviceStates() []*deviceState {
	if devs := p.devs.Load(); devs != nil {
		return *devs
	}
	return nil
}

// DAG exposes the device-to-device allow graph (Discussion, "Complex
// Scenarios": e.g. allow Alexa -> smart light).
func (p *Proxy) DAG() *DeviceDAG { return p.dag }

// RegisterPairingAlias adds a proxy-side pairing-key alias to the set an
// attestation may verify under (one per enrolled phone).
func (p *Proxy) RegisterPairingAlias(alias string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.aliases {
		if a == alias {
			return
		}
	}
	p.aliases = append(p.aliases, alias)
}

// HandleAttestation ingests a client attestation payload (already
// transported, e.g. over quicfast): verify the MAC against the enrolled
// pairing keys, run the humanness model, record the verdict.
func (p *Proxy) HandleAttestation(payload []byte) (human bool, err error) {
	p.mu.Lock()
	aliases := append([]string(nil), p.aliases...)
	p.mu.Unlock()
	a, err := DecodeAttestationAliases(payload, p.ks, aliases...)
	if err != nil {
		p.mu.Lock()
		p.Stats.AttestationsBad++
		p.metrics.attestationsBad.Inc()
		p.mu.Unlock()
		return false, err
	}
	now := p.clock.Now()
	if p.guard != nil {
		// Anti-replay: the MAC trailer is unique per encoded payload, so it
		// doubles as the dedup tag. A rejection still proves possession of
		// the pairing key, but admits nothing.
		var tag [32]byte
		copy(tag[:], payload[len(payload)-32:])
		if err := p.guard.Admit(tag, a.At, now); err != nil {
			p.mu.Lock()
			p.Stats.AttestationsBad++
			p.metrics.attestationsBad.Inc()
			switch {
			case errors.Is(err, sensors.ErrStaleAttestation):
				p.Stats.AttestationsStale++
				p.metrics.attestationsStale.Inc()
			case errors.Is(err, sensors.ErrReplayedAttestation):
				p.Stats.AttestationsReplayed++
				p.metrics.attestationsReplayed.Inc()
			}
			p.mu.Unlock()
			return false, err
		}
	}
	human = p.human.Validate(a.Features)
	// A decodable attestation proves the channel works right now.
	p.channel.markUp(now)
	p.validations.add(a.Device, now, human)
	var admitted []pendingDecision
	if human {
		admitted = p.pending.admit(a.Device, now)
	}
	p.mu.Lock()
	p.Stats.AttestationsOK++
	p.metrics.attestationsOK.Inc()
	for _, pd := range admitted {
		// Retroactive admission: the event head was withheld, but the
		// interaction is now verified human — record it and keep it out of
		// the lockout counter (it never entered; see decideEvent).
		p.appendEntryLocked(LogEntry{
			Time: now, Device: pd.device, Reason: ReasonLateAttest,
			Verdict: Allow, Packets: pd.packets,
		})
		p.Stats.LateAdmitted++
		p.metrics.lateAdmitted.Inc()
	}
	p.mu.Unlock()
	p.metrics.pendingDepth.Set(int64(p.pending.depth()))
	return human, nil
}

// AttestationChannelDown records that the phone⇄proxy attestation channel is
// observed down (keepalive probes failing, transport timeouts). While an
// outage overlaps a pending window, its expiry is excused from lockout
// accounting.
func (p *Proxy) AttestationChannelDown() { p.channel.markDown(p.clock.Now()) }

// AttestationChannelUp records that the attestation channel recovered.
// Successful HandleAttestation calls imply it.
func (p *Proxy) AttestationChannelUp() { p.channel.markUp(p.clock.Now()) }

// PendingDepth reports how many manual-event decisions are currently held
// awaiting late attestation.
func (p *Proxy) PendingDepth() int { return p.pending.depth() }

// SweepPending finalizes held decisions whose window has closed (plus any
// queue-overflow evictions) and returns how many it settled. Call it
// periodically — the chaos runner and cmd/fiat-proxy tick it about once a
// second.
func (p *Proxy) SweepPending() int {
	now := p.clock.Now()
	expired := p.pending.expire(now)
	for _, pd := range expired {
		p.finalizeExpired(pd, now)
	}
	p.metrics.pendingDepth.Set(int64(p.pending.depth()))
	// The relearning lifecycle advances only here (and the durable WAL logs
	// sweeps as ops), so drift → relearn → shadow → promote replays
	// deterministically.
	p.swapTick(now)
	return len(expired)
}

// finalizeExpired settles one pending decision that ran out its window
// without an attestation. An overlap with a recorded channel outage excuses
// the silence; otherwise it is a genuine unattested manual event and feeds
// the lockout counter like ReasonNoHuman would have.
func (p *Proxy) finalizeExpired(pd pendingDecision, now time.Time) {
	if p.channel.downDuring(pd.decided, pd.expires) {
		p.commit(outcome{entry: LogEntry{
			Time: now, Device: pd.device, Reason: ReasonOutageExcused,
			Verdict: Drop, Packets: pd.packets,
		}, hasEntry: true, delta: statDelta{outageExcused: 1}})
		return
	}
	p.devMu.Lock()
	if ds, ok := p.devices[pd.device]; ok {
		p.registerDrop(ds, now)
	}
	p.commit(outcome{entry: LogEntry{
		Time: now, Device: pd.device, Reason: ReasonPendingExpired,
		Verdict: Drop, Packets: pd.packets,
	}, hasEntry: true, delta: statDelta{pendingExpired: 1}})
	p.devMu.Unlock()
}

// Bootstrapped reports whether the learning window has ended.
func (p *Proxy) Bootstrapped() bool {
	return p.clock.Now().Sub(p.started) >= p.cfg.Bootstrap
}

// Process runs one packet of the named device's traffic through the Fig 4
// pipeline and returns the verdict. peer names the LAN peer for
// device-to-device DAG checks ("" when the peer is the WAN).
func (p *Proxy) Process(device string, rec flows.Record, peer string) Decision {
	p.devMu.Lock()
	var o outcome
	p.processTraced(p.devices[device], &rec, peer, p.clock.Now(), &o, nil)
	// Commit while holding the device mutex so audit entries land in
	// decision order even under concurrent callers.
	p.commit(o)
	p.devMu.Unlock()
	if o.delta.pendingHeld > 0 {
		p.metrics.pendingDepth.Set(int64(p.pending.depth()))
	}
	return o.d
}

// FlushEvent finalizes a device's in-progress event early (e.g. at the end
// of a trace or when the gap elapses without traffic); events shorter than
// GraceN still need a verdict for accounting.
func (p *Proxy) FlushEvent(device string) *Decision {
	p.devMu.Lock()
	defer p.devMu.Unlock()
	ds, ok := p.devices[device]
	if !ok {
		return nil
	}
	o, d := p.flushLocked(ds, p.clock.Now())
	if d == nil {
		return nil
	}
	p.commit(o)
	return d
}

// commit applies one outcome's global side effects (audit entry, pending
// hold, stats). The pending push happens here — not at the decision point —
// so the batched paths can commit held decisions in exact packet order (the
// pending store's entry order is serialized state: it drives overflow
// eviction and appears in EncodeState).
func (p *Proxy) commit(o outcome) {
	if o.hasPending {
		p.pending.push(o.pending)
	}
	p.mu.Lock()
	if o.hasEntry {
		p.appendEntryLocked(o.entry)
	}
	p.applyDeltaLocked(o.delta)
	p.mu.Unlock()
}

// appendEntryLocked appends one audit entry and mirrors it into the
// per-reason decision counters; the caller holds p.mu.
func (p *Proxy) appendEntryLocked(e LogEntry) {
	p.log = append(p.log, e)
	p.metrics.noteEntry(&e)
}

func (p *Proxy) applyDeltaLocked(d statDelta) {
	p.Stats.Packets += d.packets
	p.Stats.Allowed += d.allowed
	p.Stats.Dropped += d.dropped
	p.Stats.RuleHits += d.ruleHits
	p.Stats.EventsManual += d.eventsManual
	p.Stats.EventsNonManual += d.eventsNonManual
	p.Stats.AttestationsOK += d.attestationsOK
	p.Stats.AttestationsBad += d.attestationsBad
	p.Stats.PendingHeld += d.pendingHeld
	p.Stats.PendingExpired += d.pendingExpired
	p.Stats.OutageExcused += d.outageExcused
	p.Stats.RuleCompiles += d.ruleCompiles
	p.metrics.applyDelta(d)
}

// StatsSnapshot returns a consistent copy of the outcome counters, safe to
// call while packets are in flight.
func (p *Proxy) StatsSnapshot() ProxyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Stats
}

// RuleKeys returns the bucket keys of a device's learned rules, the flows
// holding at least one recurring interval (for inspection and RFC 8520
// export): the live arena's once the device has frozen, the learning
// table's before that.
func (p *Proxy) RuleKeys(device string) ([]flows.Key, bool) {
	p.devMu.Lock()
	defer p.devMu.Unlock()
	ds, ok := p.devices[device]
	if !ok {
		return nil, false
	}
	if art := ds.art; art != nil {
		return art.compiled.Keys(), true
	}
	return ds.rules.Keys(), true
}

// CompiledRules exposes a device's immutable enforcement-phase rule engine
// (absent until the device's freeze point). After a hot swap it returns the
// currently live generation.
func (p *Proxy) CompiledRules(device string) (*flows.CompiledRules, bool) {
	p.devMu.Lock()
	defer p.devMu.Unlock()
	ds, ok := p.devices[device]
	if !ok {
		return nil, false
	}
	art := ds.art
	if art == nil {
		return nil, false
	}
	return art.compiled, true
}

// Locked reports whether the device is disconnected pending review.
func (p *Proxy) Locked(device string) bool {
	p.devMu.Lock()
	defer p.devMu.Unlock()
	ds, ok := p.devices[device]
	return ok && ds.locked
}

// Unlock clears a lockout after the user manually verifies activity.
func (p *Proxy) Unlock(device string) {
	p.devMu.Lock()
	defer p.devMu.Unlock()
	if ds, ok := p.devices[device]; ok {
		if ds.locked {
			p.metrics.lockedDevices.Add(-1)
		}
		ds.locked = false
		ds.drops = nil
	}
}

// Log returns a copy of the audit log.
func (p *Proxy) Log() []LogEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]LogEntry(nil), p.log...)
}

// SealedLog exports the audit log sealed under the proxy's enclave key, the
// tamper-resistance property the Discussion relies on.
func (p *Proxy) SealedLog() ([]byte, error) {
	p.mu.Lock()
	entries := make([]byte, 0, len(p.log)*32)
	for _, e := range p.log {
		entries = append(entries, []byte(fmt.Sprintf("%d|%s|%s|%s|%d\n",
			e.Time.UnixNano(), e.Device, e.Reason, e.Verdict, e.Packets))...)
	}
	p.mu.Unlock()
	return p.ks.Seal(entries, []byte("fiat-audit-log"))
}
