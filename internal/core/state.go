package core

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"fiat/internal/artifact"
	"fiat/internal/events"
	"fiat/internal/features"
	"fiat/internal/flows"
	"fiat/internal/ml"
	"fiat/internal/sensors"
	"fiat/internal/swap"
	"fiat/internal/wire"
)

// ProxyStateVersion versions the serialized proxy image. Bump it on any
// layout change; recovery rejects mismatched versions outright rather than
// guessing at field offsets. v2 added the online-relearning lifecycle:
// artifact identity per device, candidate tables mid-relearn/shadow, the
// drift detector's window, and the swap metrics registry. v3 moved every
// compiled arena and classifier template into a deduplicated,
// alignment-padded artifact section written once per unique checksum;
// devices reference artifacts by checksum, carry their mutable rule table
// length-prefixed (so restore can defer parsing it), and store arrival
// state as an 8-aligned raw block the zero-copy arm can alias in place.
const ProxyStateVersion uint16 = 3

var stateCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Classifier tags inside the config checksum. They identify *what kind* of
// classifier a device wears — and, where the classifier has frozen content,
// a digest of that content — so a snapshot written under one deployment
// config cannot be restored into a proxy wearing different models.
const (
	clsTagNone       = 0 // no classifier configured
	clsTagCompiledML = 1 // MLClassifier with a compiled template (+ checksum)
	clsTagRule       = 2 // RuleClassifier (+ notification size)
	clsTagLegacyML   = 3 // MLClassifier without a compiled template
	clsTagOther      = 4 // externally provided EventClassifier implementation
)

// ConfigChecksum digests the proxy configuration that decisions depend on:
// every Config field except Shards (decisions are proven shard-invariant by
// the differential oracles, and recovery may legitimately run with a
// different shard count), plus the DAG edges and the registered devices with their
// grace budgets and classifier identities. A snapshot records this digest;
// restore fails closed when it disagrees, because replaying a WAL against a
// differently-configured pipeline would silently produce different
// decisions.
func (p *Proxy) ConfigChecksum() uint32 {
	return crc32.Checksum(p.appendConfig(nil), stateCastagnoli)
}

func (p *Proxy) appendConfig(b []byte) []byte {
	c := &p.cfg
	b = wire.AppendU16(b, ProxyStateVersion)
	b = wire.AppendI64(b, int64(c.Bootstrap))
	b = wire.AppendU8(b, uint8(c.Mode))
	b = wire.AppendI64(b, int64(c.EventGap))
	b = wire.AppendI64(b, int64(c.LockoutThreshold))
	b = wire.AppendI64(b, int64(c.LockoutWindow))
	b = wire.AppendI64(b, int64(c.ExtraVerdictDelay))
	b = wire.AppendI64(b, int64(c.PendingWindow))
	b = wire.AppendI64(b, int64(c.PendingMax))
	b = wire.AppendI64(b, int64(c.AttestWindow))
	// Two retired engine switches, always off, kept as constant bytes so
	// existing snapshots and their ConfigChecksum stay valid.
	b = wire.AppendBool(b, false)
	b = wire.AppendBool(b, false)
	// Relearn thresholds shape post-promotion decisions, so they are config
	// identity (defaults are normalized in Config.defaults when Enabled).
	b = wire.AppendBool(b, c.Relearn.Enabled)
	b = wire.AppendF64(b, c.Relearn.MissRatio)
	b = wire.AppendF64(b, c.Relearn.MarginDrift)
	b = wire.AppendI64(b, c.Relearn.LockoutBurst)
	b = wire.AppendI64(b, c.Relearn.MinSample)
	b = wire.AppendI64(b, int64(c.Relearn.RelearnFor))
	b = wire.AppendI64(b, int64(c.Relearn.ShadowFor))
	b = wire.AppendI64(b, c.Relearn.ShadowMin)
	b = wire.AppendI64(b, int64(c.Relearn.Cooldown))
	edges := p.dag.Edges()
	b = wire.AppendU32(b, uint32(len(edges)))
	for _, e := range edges {
		b = wire.AppendString(b, e)
	}
	devs := p.deviceStates()
	b = wire.AppendU32(b, uint32(len(devs)))
	for _, ds := range devs {
		b = wire.AppendString(b, ds.cfg.Name)
		b = wire.AppendI64(b, int64(ds.cfg.GraceN))
		b = appendClassifierTag(b, ds.cfg.Classifier)
	}
	return b
}

func appendClassifierTag(b []byte, c EventClassifier) []byte {
	switch c := c.(type) {
	case nil:
		return wire.AppendU8(b, clsTagNone)
	case RuleClassifier:
		b = wire.AppendU8(b, clsTagRule)
		return wire.AppendI64(b, int64(c.NotificationSize))
	case *MLClassifier:
		if c != nil && c.compiled != nil {
			if sum, err := ml.CompiledChecksum(c.compiled); err == nil {
				b = wire.AppendU8(b, clsTagCompiledML)
				return wire.AppendU32(b, sum)
			}
		}
		return wire.AppendU8(b, clsTagLegacyML)
	default:
		return wire.AppendU8(b, clsTagOther)
	}
}

// deviceStates collects every registered device, sorted by name — the
// canonical iteration order for both the config digest and the state image.
func (p *Proxy) deviceStates() []*deviceState {
	var out []*deviceState
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, ds := range sh.devices {
			out = append(out, ds)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Name < out[j].cfg.Name })
	return out
}

// AppendState serializes the proxy's complete mutable state: identity
// (started instant, pairing aliases), the audit log and stats, every
// device's pipeline state (rule table, compiled arena + arrival block,
// compiled classifier, in-flight event, lockout bookkeeping), the
// validation/pending/channel/replay-guard stores, and finally the metrics
// registry. The encoding is canonical — equal state produces equal bytes —
// which is what lets crash-recovery oracles compare a restored proxy against
// an uninterrupted reference byte-for-byte.
//
// Call it only on a quiesced proxy (no Process/HandleAttestation/Sweep in
// flight); the per-store locks taken here make the reads safe but do not
// make the multi-section image atomic under concurrent mutation.
//
// Alignment padding inside the image is computed relative to the position
// at which this call starts appending, so the bytes are independent of the
// caller's prefix; the padded sections are actually memory-aligned whenever
// the final buffer places that start on an 8-byte boundary (the durable
// snapshot container guarantees this, and Go heap allocations of the image
// alone do too).
func (p *Proxy) AppendState(b []byte) []byte {
	base := len(b)
	b = wire.AppendU16(b, ProxyStateVersion)
	b = wire.AppendU32(b, p.ConfigChecksum())
	b = wire.AppendI64(b, p.started.UnixNano())

	p.mu.Lock()
	b = wire.AppendU32(b, uint32(len(p.aliases)))
	for _, a := range p.aliases {
		b = wire.AppendString(b, a)
	}
	b = wire.AppendU32(b, uint32(len(p.log)))
	for i := range p.log {
		e := &p.log[i]
		b = wire.AppendI64(b, e.Time.UnixNano())
		b = wire.AppendString(b, e.Device)
		b = wire.AppendString(b, string(e.Reason))
		b = wire.AppendU8(b, uint8(e.Verdict))
		b = wire.AppendI64(b, int64(e.Packets))
	}
	st := p.Stats
	p.mu.Unlock()
	for _, v := range [...]int{
		st.Packets, st.Allowed, st.Dropped, st.RuleHits, st.EventsManual,
		st.EventsNonManual, st.AttestationsOK, st.AttestationsBad,
		st.AttestationsStale, st.AttestationsReplayed, st.RuleCompiles,
		st.PendingHeld, st.LateAdmitted, st.PendingExpired, st.OutageExcused,
	} {
		b = wire.AppendI64(b, int64(v))
	}

	devs := p.deviceStates()
	// Pass 1: collect every artifact identity so the deduplicated artifact
	// section can be written before the device sections that reference it.
	// The proxy is quiesced, so the pointers read here are the ones pass 2
	// serializes.
	arts := make([]devArtifacts, len(devs))
	arenaBlobs := make(map[uint32][]byte)
	modelBlobs := make(map[uint32][]byte)
	for i, ds := range devs {
		sh := p.shardFor(ds.cfg.Name)
		sh.mu.Lock()
		if art := ds.art.Load(); art != nil {
			sum := art.compiled.Checksum()
			arts[i].rulesSum = sum
			arts[i].hasRules = true
			if _, ok := arenaBlobs[sum]; !ok {
				arenaBlobs[sum] = artifact.EncodeRules(art.compiled)
			}
		}
		if cec, ok := ds.classifier.(*compiledEventClassifier); ok {
			// An unencodable compiled model cannot exist (every family the
			// compiler emits has a codec); falling back to the config
			// classifier keeps encode total rather than panicking.
			if enc, err := ml.EncodeCompiled(cec.model); err == nil {
				sum := crc32.Checksum(enc, stateCastagnoli)
				arts[i].modelSum = sum
				arts[i].hasModel = true
				if _, ok := modelBlobs[sum]; !ok {
					modelBlobs[sum] = artifact.EncodeModel(enc)
				}
			}
		}
		sh.mu.Unlock()
	}
	b = appendArtifactSection(b, base, arenaBlobs, modelBlobs)

	b = wire.AppendU32(b, uint32(len(devs)))
	for i, ds := range devs {
		sh := p.shardFor(ds.cfg.Name)
		sh.mu.Lock()
		b = appendDeviceState(b, base, ds, &arts[i])
		sh.mu.Unlock()
	}

	b = p.appendValidations(b)
	b = p.appendPending(b)
	b = p.appendChannel(b)
	b = p.appendGuard(b)
	b = p.appendSwapState(b)
	// The registry goes last so RestoreState can overwrite every counter the
	// earlier sections may have touched indirectly.
	return p.metrics.reg.AppendState(b)
}

// appendSwapState serializes the relearning lifecycle's global half: the
// drift detector's window position and the swap metrics registry (framed, so
// the main registry stays the image's final section).
func (p *Proxy) appendSwapState(b []byte) []byte {
	b = p.drift.AppendState(b)
	b, at := wire.BeginBytes(b)
	return wire.EndBytes(p.swapM.reg.AppendState(b), at)
}

func (p *Proxy) restoreSwapState(rd *wire.Reader) error {
	rest, err := p.drift.RestoreState(rd.Rest())
	if err != nil {
		return fmt.Errorf("core: restore drift detector: %w", err)
	}
	rd.Reset(rest)
	enc := rd.Bytes()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore swap registry: %w", err)
	}
	trail, err := p.swapM.reg.RestoreState(enc)
	if err != nil {
		return fmt.Errorf("core: restore swap registry: %w", err)
	}
	if len(trail) != 0 {
		return fmt.Errorf("core: %d trailing bytes after swap registry", len(trail))
	}
	return nil
}

// EncodeState returns the canonical serialized proxy state.
func (p *Proxy) EncodeState() []byte { return p.AppendState(nil) }

// devArtifacts carries one device's artifact references from the collection
// pass into the serialization pass.
type devArtifacts struct {
	rulesSum uint32
	modelSum uint32
	hasRules bool
	hasModel bool
}

// padTo8 appends zero bytes until len(b)-base is a multiple of 8.
func padTo8(b []byte, base int) []byte {
	for (len(b)-base)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// skipPad8 advances the reader past the padding appendState wrote at this
// position. pos is the reader's offset relative to the image start.
func skipPad8(rd *wire.Reader, pos int) {
	if n := pos % 8; n != 0 {
		rd.Take(8 - n)
	}
}

// appendArtifactSection writes the deduplicated artifact section: every
// unique compiled rule arena and classifier template, as relocatable blobs,
// exactly once. Blobs are ordered by checksum so the section is canonical,
// and each rules blob is padded to an 8-byte boundary (relative to base) so
// the zero-copy arm can alias its arenas in place. Model blobs are decoded,
// not aliased, and need no padding.
func appendArtifactSection(b []byte, base int, arenas, models map[uint32][]byte) []byte {
	sortedSums := func(m map[uint32][]byte) []uint32 {
		out := make([]uint32, 0, len(m))
		for sum := range m {
			out = append(out, sum)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	asums := sortedSums(arenas)
	b = wire.AppendU32(b, uint32(len(asums)))
	for _, sum := range asums {
		blob := arenas[sum]
		b = wire.AppendU32(b, sum)
		b = wire.AppendU32(b, uint32(len(blob)))
		b = padTo8(b, base)
		b = append(b, blob...)
	}
	msums := sortedSums(models)
	b = wire.AppendU32(b, uint32(len(msums)))
	for _, sum := range msums {
		blob := models[sum]
		b = wire.AppendU32(b, sum)
		b = wire.AppendU32(b, uint32(len(blob)))
		b = append(b, blob...)
	}
	return b
}

// artifactSection is the parsed artifact section: blob bytes per checksum,
// plus — on the zero-copy arm — the shared view/template installed in the
// store.
type artifactSection struct {
	arenas map[uint32]sectionArena
	models map[uint32]sectionModel
}

type sectionArena struct {
	blob []byte
	view *flows.CompiledRules // zero-copy arm only
}

type sectionModel struct {
	blob  []byte
	model ml.CompiledModel // zero-copy arm only
}

// restoreArtifactSection parses the artifact section. On the zero-copy arm
// every unique blob is installed into Config.Artifacts here — view
// construction, identity verification, and model decoding happen once per
// unique checksum, never per device. On the copied arm only the blob bytes
// are recorded; each device then decodes its own copy, preserving the
// legacy per-device cost and ownership discipline as the differential
// baseline.
func (p *Proxy) restoreArtifactSection(rd *wire.Reader, data []byte) (*artifactSection, error) {
	sec := &artifactSection{
		arenas: make(map[uint32]sectionArena),
		models: make(map[uint32]sectionModel),
	}
	narenas := int(rd.U32())
	if rd.Err() != nil || narenas > rd.Len() {
		return nil, fmt.Errorf("core: restore artifact section: %w", wire.ErrTruncated)
	}
	for i := 0; i < narenas; i++ {
		sum := rd.U32()
		blobLen := int(rd.U32())
		if rd.Err() != nil || blobLen > rd.Len() {
			return nil, fmt.Errorf("core: restore artifact section: %w", wire.ErrTruncated)
		}
		skipPad8(rd, len(data)-rd.Len())
		blob := rd.Take(blobLen)
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("core: restore artifact section: %w", err)
		}
		if _, dup := sec.arenas[sum]; dup {
			return nil, fmt.Errorf("core: artifact section repeats arena %08x", sum)
		}
		entry := sectionArena{blob: blob}
		if p.cfg.Artifacts != nil {
			view, err := p.cfg.Artifacts.InstallRules(sum, blob)
			if err != nil {
				return nil, fmt.Errorf("core: install arena %08x: %w", sum, err)
			}
			entry.view = view
		}
		sec.arenas[sum] = entry
	}
	nmodels := int(rd.U32())
	if rd.Err() != nil || nmodels > rd.Len() {
		return nil, fmt.Errorf("core: restore artifact section: %w", wire.ErrTruncated)
	}
	for i := 0; i < nmodels; i++ {
		sum := rd.U32()
		blobLen := int(rd.U32())
		if rd.Err() != nil || blobLen > rd.Len() {
			return nil, fmt.Errorf("core: restore artifact section: %w", wire.ErrTruncated)
		}
		blob := rd.Take(blobLen)
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("core: restore artifact section: %w", err)
		}
		if _, dup := sec.models[sum]; dup {
			return nil, fmt.Errorf("core: artifact section repeats model %08x", sum)
		}
		entry := sectionModel{blob: blob}
		if p.cfg.Artifacts != nil {
			model, err := p.cfg.Artifacts.InstallModel(sum, blob)
			if err != nil {
				return nil, fmt.Errorf("core: install model %08x: %w", sum, err)
			}
			entry.model = model
		}
		sec.models[sum] = entry
	}
	return sec, nil
}

func appendDeviceState(b []byte, base int, ds *deviceState, arts *devArtifacts) []byte {
	b = wire.AppendString(b, ds.cfg.Name)
	// Length-prefixed since v3: the zero-copy arm keeps the raw bytes and
	// materializes the table lazily, so the decoder must know the span
	// without parsing it.
	b, at := wire.BeginBytes(b)
	b = wire.EndBytes(ds.rules.AppendState(b), at)
	if art := ds.art.Load(); art != nil {
		b = wire.AppendBool(b, true)
		b = wire.AppendU32(b, arts.rulesSum)
		// Arrival state as an alignable raw block: width, padding to an
		// 8-byte boundary, then the last-arrival array and the has bitmap.
		last, has := art.arrival.Raw()
		b = wire.AppendU32(b, uint32(len(last)))
		b = padTo8(b, base)
		for _, v := range last {
			b = wire.AppendI64(b, v)
		}
		for _, h := range has {
			if h {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		b = art.meta.Append(b)
	} else {
		b = wire.AppendBool(b, false)
	}
	if arts.hasModel {
		b = wire.AppendU8(b, 1)
		b = wire.AppendU32(b, arts.modelSum)
	} else {
		// The device classifies through the config-provided classifier
		// (rule classifier, uncompilable ML model, none); restore re-derives
		// it from the config, whose identity the config checksum pins.
		b = wire.AppendU8(b, 0)
	}
	b = wire.AppendI64(b, int64(ds.evPackets))
	if ds.evDecided {
		b = wire.AppendBool(b, true)
		b = wire.AppendU8(b, uint8(ds.evDecision.Verdict))
		b = wire.AppendString(b, string(ds.evDecision.Reason))
	} else {
		b = wire.AppendBool(b, false)
	}
	b = wire.AppendU32(b, uint32(len(ds.drops)))
	for _, t := range ds.drops {
		b = wire.AppendI64(b, t.UnixNano())
	}
	b = wire.AppendBool(b, ds.locked)
	if cur := ds.grouper.Current(); cur != nil {
		b = wire.AppendBool(b, true)
		b = wire.AppendU32(b, uint32(len(cur.Packets)))
		for i := range cur.Packets {
			b = flows.AppendRecord(b, &cur.Packets[i])
		}
	} else {
		b = wire.AppendBool(b, false)
	}
	// v2: relearning lifecycle — generation counter, rollback cooldown, and
	// the in-flight candidate (mutable table mid-relearn; frozen table +
	// identity + arrival + shadow matrices mid-shadow), so a durable restart
	// resumes mid-lifecycle exactly. The candidate's compiled form is NOT
	// serialized: restore recompiles the frozen table and fails closed when
	// the digest disagrees with the serialized identity.
	b = wire.AppendU64(b, ds.genCounter)
	if ds.cooldownUntil.IsZero() {
		b = wire.AppendBool(b, false)
	} else {
		b = wire.AppendBool(b, true)
		b = wire.AppendI64(b, ds.cooldownUntil.UnixNano())
	}
	phase := swap.PhaseIdle
	if ds.rl != nil {
		phase = ds.rl.phase
	}
	b = wire.AppendU8(b, uint8(phase))
	if rl := ds.rl; rl != nil {
		b = wire.AppendI64(b, rl.started.UnixNano())
		b = rl.table.AppendState(b)
		if rl.phase == swap.PhaseShadow {
			b = rl.meta.Append(b)
			b = flows.AppendArrival(b, rl.arrival)
			b = rl.matrix.Append(b)
			b = rl.flushed.Append(b)
		}
	}
	return b
}

func (p *Proxy) appendValidations(b []byte) []byte {
	p.validations.mu.RLock()
	defer p.validations.mu.RUnlock()
	names := make([]string, 0, len(p.validations.byDevice))
	for n, list := range p.validations.byDevice {
		if len(list) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	b = wire.AppendU32(b, uint32(len(names)))
	for _, n := range names {
		b = wire.AppendString(b, n)
		list := p.validations.byDevice[n]
		b = wire.AppendU32(b, uint32(len(list)))
		for _, v := range list {
			b = wire.AppendI64(b, v.at.UnixNano())
			b = wire.AppendBool(b, v.human)
		}
	}
	return b
}

func appendPendingList(b []byte, list []pendingDecision) []byte {
	b = wire.AppendU32(b, uint32(len(list)))
	for _, pd := range list {
		b = wire.AppendString(b, pd.device)
		b = wire.AppendI64(b, pd.decided.UnixNano())
		b = wire.AppendI64(b, pd.expires.UnixNano())
		b = wire.AppendI64(b, int64(pd.packets))
	}
	return b
}

func (p *Proxy) appendPending(b []byte) []byte {
	p.pending.mu.Lock()
	defer p.pending.mu.Unlock()
	b = appendPendingList(b, p.pending.entries)
	return appendPendingList(b, p.pending.overflow)
}

func (p *Proxy) appendChannel(b []byte) []byte {
	p.channel.mu.Lock()
	defer p.channel.mu.Unlock()
	b = wire.AppendBool(b, p.channel.down)
	if p.channel.down {
		b = wire.AppendI64(b, p.channel.since.UnixNano())
	}
	b = wire.AppendU32(b, uint32(len(p.channel.outages)))
	for _, iv := range p.channel.outages {
		b = wire.AppendI64(b, iv.from.UnixNano())
		b = wire.AppendI64(b, iv.to.UnixNano())
	}
	return b
}

func (p *Proxy) appendGuard(b []byte) []byte {
	if p.guard == nil {
		return wire.AppendBool(b, false)
	}
	b = wire.AppendBool(b, true)
	tags := p.guard.ExportSeen()
	b = wire.AppendU32(b, uint32(len(tags)))
	for _, s := range tags {
		b = append(b, s.Tag[:]...)
		b = wire.AppendI64(b, s.At.UnixNano())
	}
	return b
}

// RestoreState overwrites the proxy's mutable state from a serialized image.
// The receiving proxy must be freshly constructed with the same
// configuration that produced the image — same Config (Shards excepted),
// same DAG edges, same devices with the same classifiers; the embedded
// config checksum enforces this and the restore fails closed on any skew,
// version mismatch, truncation, or embedded-arena checksum disagreement.
//
// On error the proxy may be partially restored and must be discarded — the
// recovery path builds a throwaway proxy per attempt, so there is nothing to
// roll back.
func (p *Proxy) RestoreState(data []byte) error {
	rd := wire.NewReader(data)
	if v := rd.U16(); rd.Err() == nil && v != ProxyStateVersion {
		return fmt.Errorf("core: proxy state version %d, want %d", v, ProxyStateVersion)
	}
	sum := rd.U32()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if want := p.ConfigChecksum(); sum != want {
		return fmt.Errorf("core: snapshot config checksum %08x does not match live config %08x", sum, want)
	}
	started := rd.I64()

	naliases := int(rd.U32())
	if rd.Err() != nil || naliases > rd.Len() {
		return fmt.Errorf("core: restore aliases: %w", wire.ErrTruncated)
	}
	aliases := make([]string, 0, naliases)
	for i := 0; i < naliases; i++ {
		aliases = append(aliases, rd.String())
	}
	nlog := int(rd.U32())
	if rd.Err() != nil || nlog > rd.Len() {
		return fmt.Errorf("core: restore log: %w", wire.ErrTruncated)
	}
	log := make([]LogEntry, 0, nlog)
	for i := 0; i < nlog; i++ {
		log = append(log, LogEntry{
			Time:    time.Unix(0, rd.I64()).UTC(),
			Device:  rd.String(),
			Reason:  Reason(rd.String()),
			Verdict: Verdict(rd.U8()),
			Packets: int(rd.I64()),
		})
	}
	var stats ProxyStats
	for _, f := range [...]*int{
		&stats.Packets, &stats.Allowed, &stats.Dropped, &stats.RuleHits,
		&stats.EventsManual, &stats.EventsNonManual, &stats.AttestationsOK,
		&stats.AttestationsBad, &stats.AttestationsStale,
		&stats.AttestationsReplayed, &stats.RuleCompiles, &stats.PendingHeld,
		&stats.LateAdmitted, &stats.PendingExpired, &stats.OutageExcused,
	} {
		*f = int(rd.I64())
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore header: %w", err)
	}

	p.started = time.Unix(0, started).UTC()
	p.mu.Lock()
	p.aliases = aliases
	p.log = log
	p.Stats = stats
	p.mu.Unlock()

	sec, err := p.restoreArtifactSection(rd, data)
	if err != nil {
		return err
	}

	devs := p.deviceStates()
	ndev := int(rd.U32())
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore devices: %w", err)
	}
	if ndev != len(devs) {
		return fmt.Errorf("core: snapshot has %d devices, live proxy has %d", ndev, len(devs))
	}
	seen := make(map[string]bool, ndev)
	for i := 0; i < ndev; i++ {
		name, err := p.restoreDevice(rd, data, sec)
		if err != nil {
			return err
		}
		if seen[name] {
			return fmt.Errorf("core: snapshot repeats device %q", name)
		}
		seen[name] = true
	}

	if err := p.restoreValidations(rd); err != nil {
		return err
	}
	if err := p.restorePending(rd); err != nil {
		return err
	}
	if err := p.restoreChannel(rd); err != nil {
		return err
	}
	if err := p.restoreGuard(rd); err != nil {
		return err
	}
	if err := p.restoreSwapState(rd); err != nil {
		return err
	}
	rest, err := p.metrics.reg.RestoreState(rd.Rest())
	if err != nil {
		return fmt.Errorf("core: restore registry: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: %d trailing bytes after proxy state", len(rest))
	}
	return nil
}

// restoreDevice decodes one device section and installs it into the live
// deviceState of the same name. The reader is advanced past the section.
//
// Two arms share this decoder. The copied arm (Config.Artifacts == nil)
// reproduces the v2 discipline per device: decode an owned arena copy from
// the referenced blob, materialize the rule table, recompile it, and
// compare digests. The zero-copy arm adopts the shared store view installed
// by restoreArtifactSection (identity already verified once per unique
// arena), wraps the rule-table bytes unparsed, and aliases the arrival
// block in place — per-device work collapses to a store lookup plus slice
// binding.
func (p *Proxy) restoreDevice(rd *wire.Reader, data []byte, sec *artifactSection) (string, error) {
	name := rd.String()
	if err := rd.Err(); err != nil {
		return "", fmt.Errorf("core: restore device: %w", err)
	}
	sh := p.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ds, ok := sh.devices[name]
	if !ok {
		return "", fmt.Errorf("core: snapshot device %q not registered in live proxy", name)
	}
	zeroCopy := p.cfg.Artifacts != nil

	rtLen := int(rd.U32())
	if rd.Err() != nil || rtLen > rd.Len() {
		return "", fmt.Errorf("core: device %q rules: %w", name, wire.ErrTruncated)
	}
	rtRaw := rd.Take(rtLen)
	var rt *flows.RuleTable
	var err error
	if zeroCopy {
		// Validation dedups by content: a fleet restored from one template
		// carries byte-identical rule-table sections, and only the first
		// pays the deep structural walk.
		if p.cfg.Artifacts.RuleBytesValidated(rtRaw) {
			rt, err = flows.NewRawRuleTableTrusted(rtRaw)
		} else if rt, err = flows.NewRawRuleTable(rtRaw); err == nil {
			p.cfg.Artifacts.NoteRuleBytesValidated(rtRaw)
		}
		if err != nil {
			return "", fmt.Errorf("core: device %q rules: %w", name, err)
		}
	} else {
		var rest []byte
		rt, rest, err = flows.DecodeRuleTable(rtRaw)
		if err != nil {
			return "", fmt.Errorf("core: device %q rules: %w", name, err)
		}
		if len(rest) != 0 {
			return "", fmt.Errorf("core: device %q rules have %d trailing bytes", name, len(rest))
		}
	}

	var compiled *flows.CompiledRules
	var arrival *flows.ArrivalState
	var meta swap.Meta
	var storeSum uint32
	var fromStore bool
	if rd.Bool() {
		rulesSum := rd.U32()
		if err := rd.Err(); err != nil {
			return "", fmt.Errorf("core: device %q arena: %w", name, err)
		}
		entry, ok := sec.arenas[rulesSum]
		if !ok {
			return "", fmt.Errorf("core: device %q references arena %08x missing from artifact section", name, rulesSum)
		}
		if !rt.Frozen() {
			return "", fmt.Errorf("core: device %q has a compiled arena but an unfrozen rule table", name)
		}
		if zeroCopy {
			compiled = p.cfg.Artifacts.AcquireRules(rulesSum)
			if compiled == nil {
				return "", fmt.Errorf("core: device %q arena %08x not installed in artifact store", name, rulesSum)
			}
			storeSum, fromStore = rulesSum, true
		} else {
			// Copied arm: an owned decode per device, then the v2 identity
			// discipline — the arena must be the compilation of the restored
			// rule table, not merely self-consistent.
			compiled, err = artifact.DecodeRulesCopy(entry.blob)
			if err != nil {
				return "", fmt.Errorf("core: device %q arena: %w", name, err)
			}
			if rsum, asum := rt.Compiled().Checksum(), compiled.Checksum(); rsum != asum {
				return "", fmt.Errorf("core: device %q arena checksum %08x does not match recompiled rules %08x", name, asum, rsum)
			}
			if asum := compiled.Checksum(); asum != rulesSum {
				return "", fmt.Errorf("core: device %q arena checksum %08x filed under %08x", name, asum, rulesSum)
			}
		}
		arrival, err = readArrivalBlock(rd, data, compiled.NumKeys(), zeroCopy)
		if err != nil {
			return "", fmt.Errorf("core: device %q arrival state: %w", name, err)
		}
		var rest []byte
		meta, rest, err = swap.DecodeMeta(rd.Rest())
		if err != nil {
			return "", fmt.Errorf("core: device %q artifact meta: %w", name, err)
		}
		rd.Reset(rest)
		// The identity must name THIS arena; an artifact restored under the
		// wrong generation's digest fails closed. (On the zero-copy arm the
		// store verified view.Checksum() == rulesSum at install.)
		if meta.RulesSum != rulesSum {
			return "", fmt.Errorf("core: device %q artifact meta rules digest %08x does not match arena %08x", name, meta.RulesSum, rulesSum)
		}
	} else if rt.Frozen() {
		// Stage 1 matches only through the compiled arena, which the freeze
		// point installs; a frozen table without one cannot enforce.
		return "", fmt.Errorf("core: device %q has a frozen rule table but no compiled arena", name)
	}

	classifier := ds.classifier
	switch kind := rd.U8(); kind {
	case 0:
		// Config-provided classifier; the live deviceState already wears it.
	case 1:
		modelSum := rd.U32()
		if err := rd.Err(); err != nil {
			return "", fmt.Errorf("core: device %q classifier: %w", name, err)
		}
		entry, ok := sec.models[modelSum]
		if !ok {
			return "", fmt.Errorf("core: device %q references model %08x missing from artifact section", name, modelSum)
		}
		// Reject model skew: the snapshot's model must be the one the live
		// config would deploy for this device.
		mlc, ok := ds.cfg.Classifier.(*MLClassifier)
		if !ok || mlc.compiled == nil {
			return "", fmt.Errorf("core: device %q snapshot carries a compiled classifier but live config provides none", name)
		}
		cfgSum, err := ml.CompiledChecksum(mlc.compiled)
		if err != nil {
			return "", fmt.Errorf("core: device %q config classifier: %w", name, err)
		}
		if cfgSum != modelSum {
			return "", fmt.Errorf("core: device %q classifier model %08x does not match config model %08x", name, modelSum, cfgSum)
		}
		var model ml.CompiledModel
		if zeroCopy {
			// Shared template decoded once at install; the clone gives this
			// device private scratch over the shared frozen tables.
			shared, ok := p.cfg.Artifacts.AcquireModel(modelSum)
			if !ok {
				return "", fmt.Errorf("core: device %q model %08x not installed in artifact store", name, modelSum)
			}
			model = shared.Clone()
		} else {
			enc, err := artifact.ModelPayload(entry.blob)
			if err != nil {
				return "", fmt.Errorf("core: device %q classifier: %w", name, err)
			}
			var trail []byte
			model, trail, err = ml.DecodeCompiled(enc)
			if err != nil {
				return "", fmt.Errorf("core: device %q classifier: %w", name, err)
			}
			if len(trail) != 0 {
				return "", fmt.Errorf("core: device %q classifier has %d trailing bytes", name, len(trail))
			}
			snapSum, err := ml.CompiledChecksum(model)
			if err != nil {
				return "", fmt.Errorf("core: device %q classifier: %w", name, err)
			}
			if snapSum != modelSum {
				return "", fmt.Errorf("core: device %q classifier model %08x filed under %08x", name, snapSum, modelSum)
			}
		}
		classifier = &compiledEventClassifier{
			model:    model,
			template: mlc.compiled,
			buf:      make([]float64, features.Dim),
		}
	default:
		return "", fmt.Errorf("core: device %q unknown classifier kind %d", name, kind)
	}

	evPackets := int(rd.I64())
	var evDecision Decision
	evDecided := false
	if rd.Bool() {
		evDecision = Decision{Verdict: Verdict(rd.U8()), Reason: Reason(rd.String())}
		evDecided = true
	}
	ndrops := int(rd.U32())
	if rd.Err() != nil || ndrops > rd.Len() {
		return "", fmt.Errorf("core: device %q drops: %w", name, wire.ErrTruncated)
	}
	drops := make([]time.Time, 0, ndrops)
	for i := 0; i < ndrops; i++ {
		drops = append(drops, time.Unix(0, rd.I64()).UTC())
	}
	locked := rd.Bool()
	var cur *events.Event
	if rd.Bool() {
		nrec := int(rd.U32())
		if rd.Err() != nil || nrec == 0 || nrec > rd.Len() {
			return "", fmt.Errorf("core: device %q event: %w", name, wire.ErrTruncated)
		}
		recs := make([]flows.Record, 0, nrec)
		for i := 0; i < nrec; i++ {
			rec, err := flows.ReadRecord(rd)
			if err != nil {
				return "", fmt.Errorf("core: device %q event record: %w", name, err)
			}
			recs = append(recs, rec)
		}
		cur = &events.Event{Packets: recs, Start: recs[0].Time, End: recs[nrec-1].Time}
	}

	genCounter := rd.U64()
	var cooldownUntil time.Time
	if rd.Bool() {
		cooldownUntil = time.Unix(0, rd.I64()).UTC()
	}
	phase := swap.Phase(rd.U8())
	if err := rd.Err(); err != nil {
		return "", fmt.Errorf("core: device %q: %w", name, err)
	}
	var rl *relearnState
	switch phase {
	case swap.PhaseIdle:
	case swap.PhaseRelearn, swap.PhaseShadow:
		if compiled == nil {
			return "", fmt.Errorf("core: device %q is mid-%s with no live artifact", name, phase)
		}
		started := time.Unix(0, rd.I64()).UTC()
		ct, rest, err := flows.DecodeRuleTable(rd.Rest())
		if err != nil {
			return "", fmt.Errorf("core: device %q candidate rules: %w", name, err)
		}
		rd.Reset(rest)
		rl = &relearnState{phase: phase, started: started, table: ct}
		if phase == swap.PhaseRelearn {
			if ct.Frozen() {
				return "", fmt.Errorf("core: device %q mid-relearn candidate is already frozen", name)
			}
			break
		}
		if !ct.Frozen() {
			return "", fmt.Errorf("core: device %q mid-shadow candidate is not frozen", name)
		}
		cmeta, rest, err := swap.DecodeMeta(rd.Rest())
		if err != nil {
			return "", fmt.Errorf("core: device %q candidate meta: %w", name, err)
		}
		rd.Reset(rest)
		// The compiled candidate is rebuilt from the frozen table, then
		// checked against the serialized identity — the same fail-closed
		// recompile discipline the live arena gets.
		cc := ct.Compiled()
		if cc.Checksum() != cmeta.RulesSum {
			return "", fmt.Errorf("core: device %q candidate digest %08x does not match meta %08x", name, cc.Checksum(), cmeta.RulesSum)
		}
		carr, rest, err := cc.DecodeArrival(rd.Rest())
		if err != nil {
			return "", fmt.Errorf("core: device %q candidate arrival: %w", name, err)
		}
		rd.Reset(rest)
		matrix, rest, err := swap.DecodeShadowMatrix(rd.Rest())
		if err != nil {
			return "", fmt.Errorf("core: device %q shadow matrix: %w", name, err)
		}
		rd.Reset(rest)
		flushed, rest, err := swap.DecodeShadowMatrix(rd.Rest())
		if err != nil {
			return "", fmt.Errorf("core: device %q shadow matrix: %w", name, err)
		}
		rd.Reset(rest)
		rl.meta = cmeta
		rl.compiled = cc
		rl.arrival = carr
		rl.matrix = matrix
		rl.flushed = flushed
	default:
		return "", fmt.Errorf("core: device %q unknown lifecycle phase %d", name, phase)
	}
	if err := rd.Err(); err != nil {
		return "", fmt.Errorf("core: device %q: %w", name, err)
	}
	if compiled != nil && (genCounter < meta.Generation || (rl != nil && rl.phase == swap.PhaseShadow && genCounter < rl.meta.Generation)) {
		return "", fmt.Errorf("core: device %q generation counter %d behind artifact identity", name, genCounter)
	}

	ds.rules = rt
	var art *ruleArtifact
	if compiled != nil {
		art = &ruleArtifact{meta: meta, compiled: compiled, arrival: arrival}
		if fromStore {
			art.store, art.storeSum = p.cfg.Artifacts, storeSum
		}
	}
	ds.art.Store(art)
	ds.rl = rl
	ds.genCounter = genCounter
	ds.cooldownUntil = cooldownUntil
	ds.classifier = classifier
	ds.evPackets = evPackets
	ds.evDecision = evDecision
	ds.evDecided = evDecided
	ds.drops = drops
	ds.locked = locked
	ds.grouper.RestoreCurrent(cur)
	return name, nil
}

// readArrivalBlock decodes the aligned raw arrival block appendDeviceState
// wrote: width, padding, 8*n bytes of last-arrival values, n bytes of the
// has bitmap. The width must match the compiled arena the arrival evolves
// against. In zero-copy mode the returned state aliases data wherever
// alignment allows (the mmap'd snapshot's copy-on-write pages absorb later
// arrival updates); otherwise — and always in copied mode — the slices are
// fresh.
func readArrivalBlock(rd *wire.Reader, data []byte, nkeys int, zeroCopy bool) (*flows.ArrivalState, error) {
	n := int(rd.U32())
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if n != nkeys {
		return nil, fmt.Errorf("arrival state width %d does not match %d keys", n, nkeys)
	}
	skipPad8(rd, len(data)-rd.Len())
	lastBytes := rd.Take(8 * n)
	hasBytes := rd.Take(n)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return &flows.ArrivalState{}, nil
	}
	var last []int64
	var has []bool
	if zeroCopy {
		var ok bool
		if last, ok = artifact.AliasI64s(lastBytes, n); !ok {
			last = decodeI64Block(lastBytes, n)
		}
		var err error
		if has, err = artifact.AliasBools(hasBytes, n); err != nil {
			return nil, err
		}
	} else {
		last = decodeI64Block(lastBytes, n)
		has = make([]bool, n)
		for i, v := range hasBytes {
			if v > 1 {
				return nil, fmt.Errorf("arrival has-bitmap byte %d is %d", i, v)
			}
			has[i] = v == 1
		}
	}
	return flows.ArrivalFromRaw(last, has)
}

func decodeI64Block(buf []byte, n int) []int64 {
	out := make([]int64, n)
	sub := wire.NewReader(buf)
	for i := range out {
		out[i] = sub.I64()
	}
	return out
}

func (p *Proxy) restoreValidations(rd *wire.Reader) error {
	n := int(rd.U32())
	if rd.Err() != nil || n > rd.Len() {
		return fmt.Errorf("core: restore validations: %w", wire.ErrTruncated)
	}
	byDevice := make(map[string][]validation, n)
	for i := 0; i < n; i++ {
		name := rd.String()
		m := int(rd.U32())
		if rd.Err() != nil || m > rd.Len() {
			return fmt.Errorf("core: restore validations: %w", wire.ErrTruncated)
		}
		list := make([]validation, 0, m)
		for j := 0; j < m; j++ {
			list = append(list, validation{at: time.Unix(0, rd.I64()).UTC(), human: rd.Bool()})
		}
		byDevice[name] = list
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore validations: %w", err)
	}
	p.validations.mu.Lock()
	p.validations.byDevice = byDevice
	p.validations.mu.Unlock()
	return nil
}

func readPendingList(rd *wire.Reader) ([]pendingDecision, error) {
	n := int(rd.U32())
	if rd.Err() != nil || n > rd.Len() {
		return nil, wire.ErrTruncated
	}
	var list []pendingDecision
	for i := 0; i < n; i++ {
		list = append(list, pendingDecision{
			device:  rd.String(),
			decided: time.Unix(0, rd.I64()).UTC(),
			expires: time.Unix(0, rd.I64()).UTC(),
			packets: int(rd.I64()),
		})
	}
	return list, rd.Err()
}

func (p *Proxy) restorePending(rd *wire.Reader) error {
	entries, err := readPendingList(rd)
	if err != nil {
		return fmt.Errorf("core: restore pending: %w", err)
	}
	overflow, err := readPendingList(rd)
	if err != nil {
		return fmt.Errorf("core: restore pending overflow: %w", err)
	}
	p.pending.mu.Lock()
	p.pending.entries = entries
	p.pending.overflow = overflow
	p.pending.mu.Unlock()
	return nil
}

func (p *Proxy) restoreChannel(rd *wire.Reader) error {
	down := rd.Bool()
	var since time.Time
	if down {
		since = time.Unix(0, rd.I64()).UTC()
	}
	n := int(rd.U32())
	if rd.Err() != nil || n > rd.Len() {
		return fmt.Errorf("core: restore channel: %w", wire.ErrTruncated)
	}
	var outages []interval
	for i := 0; i < n; i++ {
		outages = append(outages, interval{
			from: time.Unix(0, rd.I64()).UTC(),
			to:   time.Unix(0, rd.I64()).UTC(),
		})
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore channel: %w", err)
	}
	p.channel.mu.Lock()
	p.channel.down = down
	p.channel.since = since
	p.channel.outages = outages
	p.channel.mu.Unlock()
	return nil
}

func (p *Proxy) restoreGuard(rd *wire.Reader) error {
	present := rd.Bool()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore guard: %w", err)
	}
	if present != (p.guard != nil) {
		return fmt.Errorf("core: snapshot replay-guard presence %v does not match live config %v", present, p.guard != nil)
	}
	if !present {
		return nil
	}
	n := int(rd.U32())
	if rd.Err() != nil || n > rd.Len()/40 {
		return fmt.Errorf("core: restore guard: %w", wire.ErrTruncated)
	}
	tags := make([]sensors.SeenTag, 0, n)
	for i := 0; i < n; i++ {
		var s sensors.SeenTag
		copy(s.Tag[:], rd.Take(32))
		s.At = time.Unix(0, rd.I64()).UTC()
		tags = append(tags, s)
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore guard: %w", err)
	}
	p.guard.RestoreSeen(tags)
	return nil
}
