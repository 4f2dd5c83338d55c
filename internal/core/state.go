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
// state as an 8-aligned raw block restore can alias in place. v4
// moved drift detection into the devices: each device section carries the
// device's drift tallies and its detector window, and the fleet-wide
// detector left the tail. v5 keeps one representation of a device's rules:
// a device section carries its learning table before the freeze point and
// only the arena reference, arrival block and identity after it, and a
// mid-shadow candidate carries its compiled arena in place of its frozen
// table.
const ProxyStateVersion uint16 = 5

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
	// A retired verdict-delay knob, always 0, kept so ConfigChecksum holds.
	b = wire.AppendI64(b, 0)
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
			b = wire.AppendU8(b, clsTagCompiledML)
			return wire.AppendU32(b, c.sum)
		}
		return wire.AppendU8(b, clsTagLegacyML)
	default:
		return wire.AppendU8(b, clsTagOther)
	}
}

// AppendState serializes the proxy's complete mutable state: identity
// (started instant, pairing aliases), the audit log and stats, every
// device's pipeline state (learning table, or compiled arena + arrival
// block once frozen; compiled classifier, in-flight event, lockout
// bookkeeping), the validation/pending/channel/replay-guard stores, and
// finally the metrics registry. The encoding is canonical — equal state produces equal bytes —
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
	b, _ = p.appendState(b, false)
	return b
}

// AppendStateDetached appends the image AppendState would, except that the
// audit-log section holds only the entry count: the entries live with the
// caller, which writes them with AppendLogEntries and hands them back to
// RestoreStateDetached. It also returns that count. The durable layer keeps
// the log in an append-only segment this way, so a checkpoint encodes only
// the entries added since the previous one rather than the whole history.
func (p *Proxy) AppendStateDetached(b []byte) ([]byte, int) {
	return p.appendState(b, true)
}

// appendState is the one image encoder; detached omits the log entries.
func (p *Proxy) appendState(b []byte, detached bool) ([]byte, int) {
	base := len(b)
	b = wire.AppendU16(b, ProxyStateVersion)
	b = wire.AppendU32(b, p.ConfigChecksum())
	b = wire.AppendI64(b, p.started.UnixNano())

	p.mu.Lock()
	b = wire.AppendU32(b, uint32(len(p.aliases)))
	for _, a := range p.aliases {
		b = wire.AppendString(b, a)
	}
	nlog := len(p.log)
	b = wire.AppendU32(b, uint32(nlog))
	if !detached {
		b = p.appendLogLocked(b, 0, nlog)
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
		if art := ds.art; art != nil {
			sum := art.compiled.Checksum()
			arts[i].rulesSum = sum
			arts[i].hasRules = true
			if _, ok := arenaBlobs[sum]; !ok {
				arenaBlobs[sum] = artifact.EncodeRules(art.compiled)
			}
		}
		if cec, ok := ds.classifier.(*compiledEventClassifier); ok {
			// The model's sum is known, so only the first device wearing a
			// model encodes it. An unencodable compiled model cannot exist
			// (every family the compiler emits has a codec); falling back to
			// the config classifier keeps encode total rather than panicking.
			if _, ok := modelBlobs[cec.sum]; !ok {
				if enc, err := ml.EncodeCompiled(cec.model); err == nil {
					modelBlobs[cec.sum] = artifact.EncodeModel(enc)
				}
			}
			if _, ok := modelBlobs[cec.sum]; ok {
				arts[i].modelSum = cec.sum
				arts[i].hasModel = true
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
	return p.metrics.reg.AppendState(b), nlog
}

// AppendLogEntries appends audit entries [from, to) in the image's entry
// encoding: back to back, with no count, exactly the bytes AppendState
// writes after the log section's count. DecodeLogEntries reads them back.
func (p *Proxy) AppendLogEntries(b []byte, from, to int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.appendLogLocked(b, from, to)
}

func (p *Proxy) appendLogLocked(b []byte, from, to int) []byte {
	for i := from; i < to; i++ {
		e := &p.log[i]
		b = wire.AppendI64(b, e.Time.UnixNano())
		b = wire.AppendString(b, e.Device)
		b = wire.AppendString(b, string(e.Reason))
		b = wire.AppendU8(b, uint8(e.Verdict))
		b = wire.AppendI64(b, int64(e.Packets))
	}
	return b
}

// DecodeLogEntries decodes the entries of chunks, each of which must hold
// whole entries in AppendLogEntries' encoding and nothing else. A first
// pass checks every entry's framing and counts them, so the log is
// allocated once at its exact length.
func DecodeLogEntries(chunks [][]byte) ([]LogEntry, error) {
	n := 0
	for i, c := range chunks {
		rd := wire.NewReader(c)
		for rd.Len() > 0 {
			rd.Take(8) // time
			rd.Take(int(rd.U32()))
			rd.Take(int(rd.U32()))
			rd.Take(1 + 8) // verdict, packets
			if err := rd.Err(); err != nil {
				return nil, fmt.Errorf("core: audit chunk %d entry %d: %w", i, n, err)
			}
			n++
		}
	}
	log := make([]LogEntry, 0, n)
	for _, c := range chunks {
		rd := wire.NewReader(c)
		for rd.Len() > 0 {
			log = append(log, readLogEntry(rd))
		}
	}
	return log, nil
}

func readLogEntry(rd *wire.Reader) LogEntry {
	return LogEntry{
		Time:    time.Unix(0, rd.I64()).UTC(),
		Device:  rd.String(),
		Reason:  Reason(rd.String()),
		Verdict: Verdict(rd.U8()),
		Packets: int(rd.I64()),
	}
}

// appendSwapState serializes the relearning lifecycle's global half: the
// swap metrics registry (framed, so the main registry stays the image's
// final section).
func (p *Proxy) appendSwapState(b []byte) []byte {
	b, at := wire.BeginBytes(b)
	return wire.EndBytes(p.swapM.reg.AppendState(b), at)
}

func (p *Proxy) restoreSwapState(rd *wire.Reader) error {
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
// restore can alias its arenas in place. Model blobs are decoded,
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

func appendDeviceState(b []byte, base int, ds *deviceState, arts *devArtifacts) []byte {
	b = wire.AppendString(b, ds.cfg.Name)
	// A frozen device is its artifact; before the freeze point it is its
	// learning table.
	if art := ds.art; art != nil {
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
		b = appendLearningTable(b, ds.rules)
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
	// the in-flight candidate (mutable table mid-relearn; compiled arena +
	// identity + arrival + shadow matrices mid-shadow), so a durable restart
	// resumes mid-lifecycle exactly. The candidate's arena is written inline,
	// not into the artifact section: it is never shared.
	b = wire.AppendU64(b, ds.genCounter)
	if ds.cooldownUntil.IsZero() {
		b = wire.AppendBool(b, false)
	} else {
		b = wire.AppendBool(b, true)
		b = wire.AppendI64(b, ds.cooldownUntil.UnixNano())
	}
	// v4: the device's drift tallies and its detector window.
	b = ds.tally.Append(b)
	b = ds.drift.AppendState(b)
	phase := swap.PhaseIdle
	if ds.rl != nil {
		phase = ds.rl.phase
	}
	b = wire.AppendU8(b, uint8(phase))
	if rl := ds.rl; rl != nil {
		b = wire.AppendI64(b, rl.started.UnixNano())
		if rl.phase == swap.PhaseRelearn {
			b = appendLearningTable(b, rl.table)
		} else {
			b = rl.compiled.AppendArena(b)
			b = rl.meta.Append(b)
			b = flows.AppendArrival(b, rl.arrival)
			b = rl.matrix.Append(b)
			b = rl.flushed.Append(b)
		}
	}
	return b
}

// appendLearningTable writes a learning table length-prefixed, so decode
// can require the table to fill its frame exactly.
func appendLearningTable(b []byte, rt *flows.RuleTable) []byte {
	b, at := wire.BeginBytes(b)
	return wire.EndBytes(rt.AppendState(b), at)
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

// stateImage is a decoded proxy image, up to the sections that restore only
// into live objects. Artifact blobs and arrival blocks alias the decoded
// buffer; everything else is owned and moves into the proxy at install.
type stateImage struct {
	configSum uint32
	started   time.Time
	aliases   []string
	log       []LogEntry
	stats     ProxyStats

	// The artifact section in image order; no checksum repeats.
	arenas []imageBlob
	models []imageBlob

	devices []deviceImage

	validations       map[string][]validation
	pending, overflow []pendingDecision
	chanDown          bool
	chanSince         time.Time
	outages           []interval
	hasGuard          bool
	guard             []sensors.SeenTag

	// tail holds the swap and main registries, which restore only into the
	// live proxy's own objects.
	tail []byte
}

// imageBlob is one artifact-section entry: a relocatable blob filed under
// its checksum.
type imageBlob struct {
	sum  uint32
	data []byte
}

// deviceImage is one decoded device section.
type deviceImage struct {
	name string

	// A device carries exactly one of its learning table (before the freeze
	// point) and its live compiled artifact's blob, which the raw arrival
	// block and the identity belong to.
	rules       *flows.RuleTable
	arena       *imageBlob
	arrivalLast []byte
	arrivalHas  []byte
	meta        swap.Meta

	model *imageBlob // compiled classifier (nil: the config-provided one)

	evPackets     int
	evDecided     bool
	evDecision    Decision
	drops         []time.Time
	locked        bool
	cur           *events.Event
	genCounter    uint64
	cooldownUntil time.Time
	tally         swap.Sample
	drift         swap.Detector
	rl            *relearnState // relearn/shadow candidate; nil when idle
}

// RestoreState overwrites the proxy's mutable state from a serialized image.
// The receiving proxy must be freshly constructed with the same
// configuration that produced the image — same Config (Shards excepted),
// same DAG edges, same devices with the same classifiers; the embedded
// config checksum enforces this and the restore fails closed on any skew,
// version mismatch, truncation, or embedded-arena checksum disagreement.
//
// An image that fails to decode (wrong version, truncation, or any fault the
// image shows on its own) leaves the proxy unchanged. An image that decodes
// but fails to install (config skew, artifact or model disagreement, a bad
// registry section) may leave the proxy partially restored, and the
// proxy must then be discarded — the recovery path builds a throwaway proxy
// per attempt, so there is nothing to roll back.
//
// The restored proxy keeps data: compiled arenas alias it, and each
// device's arrival state is bound over it and written in place as
// packets arrive, the way a recovery writes into the copy-on-write pages of
// a MAP_PRIVATE snapshot mapping. data must not be modified by the caller
// or handed to another proxy afterwards.
func (p *Proxy) RestoreState(data []byte) error {
	img, err := decodeState(data, nil, false)
	if err != nil {
		return err
	}
	return p.install(img)
}

// RestoreStateDetached is RestoreState for an image AppendStateDetached
// wrote, with its audit entries supplied separately (decoded by
// DecodeLogEntries from wherever the caller kept them). The entry count
// must equal the one the image records. The proxy takes ownership of log,
// and of body as RestoreState does of its image: arrival state is written
// into body in place.
func (p *Proxy) RestoreStateDetached(body []byte, log []LogEntry) error {
	img, err := decodeState(body, log, true)
	if err != nil {
		return err
	}
	return p.install(img)
}

// decodeState parses a serialized proxy image and runs every check that
// needs only the image. It touches no proxy and takes no lock, which is what
// lets InspectStateArtifacts run it offline and makes a rejected image leave
// RestoreState's proxy unchanged. Beyond framing it rejects a repeated
// artifact checksum or device, a reference to an arena or model the
// artifact section lacks, an unknown classifier kind or lifecycle phase, a
// learning table that is not in canonical form, is frozen or has trailing
// bytes, and identities, arenas, candidates and generation counters that
// disagree with each other.
//
// With detached set, the image is one AppendStateDetached wrote: its log
// section holds only the entry count, which must equal len(log), and log
// becomes the image's audit log.
func decodeState(data []byte, log []LogEntry, detached bool) (*stateImage, error) {
	rd := wire.NewReader(data)
	if v := rd.U16(); rd.Err() == nil && v != ProxyStateVersion {
		return nil, fmt.Errorf("core: proxy state version %d, want %d", v, ProxyStateVersion)
	}
	img := &stateImage{configSum: rd.U32()}
	started := rd.I64()

	naliases := int(rd.U32())
	if rd.Err() != nil || naliases > rd.Len() {
		return nil, fmt.Errorf("core: restore aliases: %w", wire.ErrTruncated)
	}
	img.aliases = make([]string, 0, naliases)
	for i := 0; i < naliases; i++ {
		img.aliases = append(img.aliases, rd.String())
	}
	nlog := int(rd.U32())
	switch {
	case rd.Err() != nil:
		return nil, fmt.Errorf("core: restore log: %w", wire.ErrTruncated)
	case detached:
		if nlog != len(log) {
			return nil, fmt.Errorf("core: image records %d audit entries, %d supplied", nlog, len(log))
		}
		img.log = log
	case nlog > rd.Len():
		return nil, fmt.Errorf("core: restore log: %w", wire.ErrTruncated)
	default:
		img.log = make([]LogEntry, 0, nlog)
		for i := 0; i < nlog; i++ {
			img.log = append(img.log, readLogEntry(rd))
		}
	}
	st := &img.stats
	for _, f := range [...]*int{
		&st.Packets, &st.Allowed, &st.Dropped, &st.RuleHits,
		&st.EventsManual, &st.EventsNonManual, &st.AttestationsOK,
		&st.AttestationsBad, &st.AttestationsStale,
		&st.AttestationsReplayed, &st.RuleCompiles, &st.PendingHeld,
		&st.LateAdmitted, &st.PendingExpired, &st.OutageExcused,
	} {
		*f = int(rd.I64())
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("core: restore header: %w", err)
	}
	img.started = time.Unix(0, started).UTC()

	var arenas, models map[uint32]*imageBlob
	var err error
	if img.arenas, arenas, err = decodeBlobs(rd, data, true); err != nil {
		return nil, fmt.Errorf("core: restore artifact section arenas: %w", err)
	}
	if img.models, models, err = decodeBlobs(rd, data, false); err != nil {
		return nil, fmt.Errorf("core: restore artifact section models: %w", err)
	}

	ndev := int(rd.U32())
	if rd.Err() != nil || ndev > rd.Len() {
		return nil, fmt.Errorf("core: restore devices: %w", wire.ErrTruncated)
	}
	img.devices = make([]deviceImage, ndev)
	seen := make(map[string]bool, ndev)
	for i := range img.devices {
		d := &img.devices[i]
		if err := decodeDevice(rd, data, arenas, models, d); err != nil {
			return nil, err
		}
		if seen[d.name] {
			return nil, fmt.Errorf("core: snapshot repeats device %q", d.name)
		}
		seen[d.name] = true
	}

	if err := img.decodeStores(rd); err != nil {
		return nil, err
	}
	img.tail = rd.Rest()
	return img, nil
}

// decodeBlobs parses one table of the artifact section, returning its blobs
// in image order and indexed by checksum. Rules blobs are padded to an
// 8-byte boundary relative to the image start so restore can alias their
// arenas in place.
func decodeBlobs(rd *wire.Reader, data []byte, padded bool) ([]imageBlob, map[uint32]*imageBlob, error) {
	n := int(rd.U32())
	if rd.Err() != nil || n > rd.Len()/8 {
		return nil, nil, wire.ErrTruncated
	}
	blobs := make([]imageBlob, n)
	index := make(map[uint32]*imageBlob, n)
	for i := range blobs {
		b := &blobs[i]
		b.sum = rd.U32()
		size := int(rd.U32())
		if rd.Err() != nil || size > rd.Len() {
			return nil, nil, wire.ErrTruncated
		}
		if padded {
			skipPad8(rd, len(data)-rd.Len())
		}
		if b.data = rd.Take(size); rd.Err() != nil {
			return nil, nil, rd.Err()
		}
		if index[b.sum] != nil {
			return nil, nil, fmt.Errorf("checksum %08x repeats", b.sum)
		}
		index[b.sum] = b
	}
	return blobs, index, nil
}

// decodeDevice parses one device section into d, resolving its artifact
// references against the section's indexes.
func decodeDevice(rd *wire.Reader, data []byte, arenas, models map[uint32]*imageBlob, d *deviceImage) error {
	d.name = rd.String()
	name := d.name
	var err error
	if rd.Bool() {
		sum := rd.U32()
		if err := rd.Err(); err != nil {
			return fmt.Errorf("core: device %q arena: %w", name, err)
		}
		if d.arena = arenas[sum]; d.arena == nil {
			return fmt.Errorf("core: device %q references arena %08x missing from artifact section", name, sum)
		}
		// The aligned raw arrival block: width, padding, 8*width bytes of
		// last-arrival values, width bytes of the has bitmap.
		width := int(rd.U32())
		if rd.Err() != nil || width > rd.Len()/9 {
			return fmt.Errorf("core: device %q arrival state: %w", name, wire.ErrTruncated)
		}
		skipPad8(rd, len(data)-rd.Len())
		d.arrivalLast = rd.Take(8 * width)
		d.arrivalHas = rd.Take(width)
		if err := rd.Err(); err != nil {
			return fmt.Errorf("core: device %q arrival state: %w", name, err)
		}
		var rest []byte
		if d.meta, rest, err = swap.DecodeMeta(rd.Rest()); err != nil {
			return fmt.Errorf("core: device %q artifact meta: %w", name, err)
		}
		rd.Reset(rest)
		// The identity must name THIS arena; an artifact restored under the
		// wrong generation's digest fails closed.
		if d.meta.RulesSum != sum {
			return fmt.Errorf("core: device %q artifact meta rules digest %08x does not match arena %08x", name, d.meta.RulesSum, sum)
		}
	} else if d.rules, err = readLearningTable(rd); err != nil {
		return fmt.Errorf("core: device %q rules: %w", name, err)
	}

	switch kind := rd.U8(); kind {
	case 0:
		// The config-provided classifier, which the config checksum pins.
	case 1:
		sum := rd.U32()
		if err := rd.Err(); err != nil {
			return fmt.Errorf("core: device %q classifier: %w", name, err)
		}
		if d.model = models[sum]; d.model == nil {
			return fmt.Errorf("core: device %q references model %08x missing from artifact section", name, sum)
		}
	default:
		return fmt.Errorf("core: device %q unknown classifier kind %d", name, kind)
	}

	d.evPackets = int(rd.I64())
	if d.evDecided = rd.Bool(); d.evDecided {
		d.evDecision = Decision{Verdict: Verdict(rd.U8()), Reason: Reason(rd.String())}
	}
	ndrops := int(rd.U32())
	if rd.Err() != nil || ndrops > rd.Len()/8 {
		return fmt.Errorf("core: device %q drops: %w", name, wire.ErrTruncated)
	}
	d.drops = make([]time.Time, 0, ndrops)
	for i := 0; i < ndrops; i++ {
		d.drops = append(d.drops, time.Unix(0, rd.I64()).UTC())
	}
	d.locked = rd.Bool()
	if rd.Bool() {
		nrec := int(rd.U32())
		if rd.Err() != nil || nrec == 0 || nrec > rd.Len() {
			return fmt.Errorf("core: device %q event: %w", name, wire.ErrTruncated)
		}
		recs := make([]flows.Record, 0, nrec)
		for i := 0; i < nrec; i++ {
			rec, err := flows.ReadRecord(rd)
			if err != nil {
				return fmt.Errorf("core: device %q event record: %w", name, err)
			}
			recs = append(recs, rec)
		}
		d.cur = &events.Event{Packets: recs, Start: recs[0].Time, End: recs[nrec-1].Time}
	}

	d.genCounter = rd.U64()
	if rd.Bool() {
		d.cooldownUntil = time.Unix(0, rd.I64()).UTC()
	}
	d.tally = swap.ReadSample(rd)
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: device %q drift tallies: %w", name, err)
	}
	rest, err := d.drift.RestoreState(rd.Rest())
	if err != nil {
		return fmt.Errorf("core: device %q: %w", name, err)
	}
	rd.Reset(rest)
	phase := swap.Phase(rd.U8())
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: device %q: %w", name, err)
	}
	switch phase {
	case swap.PhaseIdle:
	case swap.PhaseRelearn, swap.PhaseShadow:
		if d.arena == nil {
			return fmt.Errorf("core: device %q is mid-%s with no live artifact", name, phase)
		}
		if d.rl, err = decodeCandidate(rd, name, phase); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: device %q unknown lifecycle phase %d", name, phase)
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: device %q: %w", name, err)
	}
	// A device without an arena has a zero identity and no candidate.
	if d.genCounter < d.meta.Generation || (d.rl != nil && d.rl.phase == swap.PhaseShadow && d.genCounter < d.rl.meta.Generation) {
		return fmt.Errorf("core: device %q generation counter %d behind artifact identity", name, d.genCounter)
	}
	return nil
}

// readLearningTable reads a table appendLearningTable wrote. The table must
// fill its frame and must not be frozen: a frozen device is its artifact and
// a candidate leaving relearn is its compiled arena, so an image holding a
// frozen table was not written by this encoder.
func readLearningTable(rd *wire.Reader) (*flows.RuleTable, error) {
	n := int(rd.U32())
	if rd.Err() != nil || n > rd.Len() {
		return nil, wire.ErrTruncated
	}
	rt, rest, err := flows.DecodeRuleTable(rd.Take(n))
	switch {
	case err != nil:
		return nil, err
	case len(rest) != 0:
		return nil, fmt.Errorf("%d trailing bytes after the learning table", len(rest))
	case rt.Frozen():
		return nil, fmt.Errorf("learning table is frozen")
	}
	return rt, nil
}

// decodeCandidate parses the relearning lifecycle's in-flight candidate: the
// learning table mid-relearn; the compiled arena, identity, arrival and
// shadow matrices mid-shadow. The arena fails closed unless its digest is
// the one the identity names.
func decodeCandidate(rd *wire.Reader, name string, phase swap.Phase) (*relearnState, error) {
	rl := &relearnState{phase: phase, started: time.Unix(0, rd.I64()).UTC()}
	var err error
	if phase == swap.PhaseRelearn {
		if rl.table, err = readLearningTable(rd); err != nil {
			return nil, fmt.Errorf("core: device %q candidate rules: %w", name, err)
		}
		return rl, nil
	}
	var rest []byte
	if rl.compiled, rest, err = flows.DecodeCompiledRules(rd.Rest()); err != nil {
		return nil, fmt.Errorf("core: device %q candidate arena: %w", name, err)
	}
	rd.Reset(rest)
	if rl.meta, rest, err = swap.DecodeMeta(rd.Rest()); err != nil {
		return nil, fmt.Errorf("core: device %q candidate meta: %w", name, err)
	}
	rd.Reset(rest)
	if rl.compiled.Checksum() != rl.meta.RulesSum {
		return nil, fmt.Errorf("core: device %q candidate digest %08x does not match meta %08x", name, rl.compiled.Checksum(), rl.meta.RulesSum)
	}
	if rl.arrival, rest, err = rl.compiled.DecodeArrival(rd.Rest()); err != nil {
		return nil, fmt.Errorf("core: device %q candidate arrival: %w", name, err)
	}
	rd.Reset(rest)
	for _, m := range []*swap.ShadowMatrix{&rl.matrix, &rl.flushed} {
		if *m, rest, err = swap.DecodeShadowMatrix(rd.Rest()); err != nil {
			return nil, fmt.Errorf("core: device %q shadow matrix: %w", name, err)
		}
		rd.Reset(rest)
	}
	return rl, nil
}

// decodeStores parses the validation, pending, channel and replay-guard
// stores that follow the device sections.
func (img *stateImage) decodeStores(rd *wire.Reader) error {
	n := int(rd.U32())
	if rd.Err() != nil || n > rd.Len() {
		return fmt.Errorf("core: restore validations: %w", wire.ErrTruncated)
	}
	img.validations = make(map[string][]validation, n)
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
		img.validations[name] = list
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore validations: %w", err)
	}

	var err error
	if img.pending, err = readPendingList(rd); err != nil {
		return fmt.Errorf("core: restore pending: %w", err)
	}
	if img.overflow, err = readPendingList(rd); err != nil {
		return fmt.Errorf("core: restore pending overflow: %w", err)
	}

	if img.chanDown = rd.Bool(); img.chanDown {
		img.chanSince = time.Unix(0, rd.I64()).UTC()
	}
	n = int(rd.U32())
	if rd.Err() != nil || n > rd.Len() {
		return fmt.Errorf("core: restore channel: %w", wire.ErrTruncated)
	}
	for i := 0; i < n; i++ {
		img.outages = append(img.outages, interval{
			from: time.Unix(0, rd.I64()).UTC(),
			to:   time.Unix(0, rd.I64()).UTC(),
		})
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore channel: %w", err)
	}

	if img.hasGuard = rd.Bool(); !img.hasGuard {
		if err := rd.Err(); err != nil {
			return fmt.Errorf("core: restore guard: %w", err)
		}
		return nil
	}
	n = int(rd.U32())
	if rd.Err() != nil || n > rd.Len()/40 {
		return fmt.Errorf("core: restore guard: %w", wire.ErrTruncated)
	}
	img.guard = make([]sensors.SeenTag, n)
	for i := range img.guard {
		s := &img.guard[i]
		copy(s.Tag[:], rd.Take(32))
		s.At = time.Unix(0, rd.I64()).UTC()
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore guard: %w", err)
	}
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

// install checks a decoded image against the live proxy and moves it in.
// The checks that touch nothing come first: config checksum, device count,
// replay-guard presence. Every unique blob is then installed into
// Config.Artifacts — view construction, checksum verification and model
// decoding happen once per unique checksum, never per device. Devices
// follow under their shard locks, then the header and the stores, and last
// the tail sections that restore into live objects.
func (p *Proxy) install(img *stateImage) error {
	if want := p.ConfigChecksum(); img.configSum != want {
		return fmt.Errorf("core: snapshot config checksum %08x does not match live config %08x", img.configSum, want)
	}
	if n := len(p.deviceStates()); len(img.devices) != n {
		return fmt.Errorf("core: snapshot has %d devices, live proxy has %d", len(img.devices), n)
	}
	if img.hasGuard != (p.guard != nil) {
		return fmt.Errorf("core: snapshot replay-guard presence %v does not match live config %v", img.hasGuard, p.guard != nil)
	}
	store := p.cfg.Artifacts
	for _, b := range img.arenas {
		if _, err := store.InstallRules(b.sum, b.data); err != nil {
			return fmt.Errorf("core: install arena %08x: %w", b.sum, err)
		}
	}
	for _, b := range img.models {
		if _, err := store.InstallModel(b.sum, b.data); err != nil {
			return fmt.Errorf("core: install model %08x: %w", b.sum, err)
		}
	}
	for i := range img.devices {
		if err := p.installDevice(&img.devices[i]); err != nil {
			return err
		}
	}

	p.started = img.started
	p.mu.Lock()
	p.aliases = img.aliases
	p.log = img.log
	p.Stats = img.stats
	p.mu.Unlock()
	p.validations.mu.Lock()
	p.validations.byDevice = img.validations
	p.validations.mu.Unlock()
	p.pending.mu.Lock()
	p.pending.entries = img.pending
	p.pending.overflow = img.overflow
	p.pending.mu.Unlock()
	p.channel.mu.Lock()
	p.channel.down = img.chanDown
	p.channel.since = img.chanSince
	p.channel.outages = img.outages
	p.channel.mu.Unlock()
	if p.guard != nil {
		p.guard.RestoreSeen(img.guard)
	}

	rd := wire.NewReader(img.tail)
	if err := p.restoreSwapState(rd); err != nil {
		return err
	}
	// The registry goes last so it overwrites every counter the earlier
	// sections may have touched indirectly.
	rest, err := p.metrics.reg.RestoreState(rd.Rest())
	if err != nil {
		return fmt.Errorf("core: restore registry: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: %d trailing bytes after proxy state", len(rest))
	}
	return nil
}

// installDevice moves one decoded device section into the live deviceState
// of the same name, under its shard lock. Decode already decoded the
// learning table and checked the identity against the arena, so a frozen
// device adopts the shared store view install put in the store and aliases
// the arrival block in place: per-device work is a store lookup plus slice
// binding.
func (p *Proxy) installDevice(d *deviceImage) error {
	name := d.name
	sh := p.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ds, ok := sh.devices[name]
	if !ok {
		return fmt.Errorf("core: snapshot device %q not registered in live proxy", name)
	}

	var art *ruleArtifact
	var err error
	if d.arena != nil {
		art = &ruleArtifact{meta: d.meta}
		if art.compiled = p.cfg.Artifacts.AcquireRules(d.arena.sum); art.compiled == nil {
			return fmt.Errorf("core: device %q arena %08x not installed in artifact store", name, d.arena.sum)
		}
		if art.arrival, err = bindArrival(d, art.compiled.NumKeys()); err != nil {
			return fmt.Errorf("core: device %q arrival state: %w", name, err)
		}
	}

	classifier := ds.classifier
	if d.model != nil {
		if classifier, err = p.restoreModel(ds, d.model); err != nil {
			return fmt.Errorf("core: device %q classifier: %w", name, err)
		}
	}

	ds.rules = d.rules
	ds.art = art
	ds.rl = d.rl
	ds.genCounter = d.genCounter
	ds.cooldownUntil = d.cooldownUntil
	ds.tally = d.tally
	ds.drift = d.drift
	ds.classifier = classifier
	ds.evPackets = d.evPackets
	ds.evDecision = d.evDecision
	ds.evDecided = d.evDecided
	ds.drops = d.drops
	ds.locked = d.locked
	ds.grouper.RestoreCurrent(d.cur)
	return nil
}

// restoreModel builds a device's compiled classifier from the snapshot's
// model. It rejects model skew: the snapshot's model must be the one the
// live config would deploy for this device.
func (p *Proxy) restoreModel(ds *deviceState, blob *imageBlob) (EventClassifier, error) {
	mlc, ok := ds.cfg.Classifier.(*MLClassifier)
	if !ok || mlc.compiled == nil {
		return nil, fmt.Errorf("snapshot carries a compiled classifier but live config provides none")
	}
	if mlc.sum != blob.sum {
		return nil, fmt.Errorf("model %08x does not match config model %08x", blob.sum, mlc.sum)
	}
	// Shared template decoded once at install; the clone gives this device
	// private scratch over the shared frozen tables.
	shared, ok := p.cfg.Artifacts.AcquireModel(blob.sum)
	if !ok {
		return nil, fmt.Errorf("model %08x not installed in artifact store", blob.sum)
	}
	return &compiledEventClassifier{
		model: shared.Clone(),
		sum:   blob.sum,
		buf:   make([]float64, features.Dim),
	}, nil
}

// bindArrival builds a device's live arrival state from its raw block. The
// width must match the compiled arena the arrival evolves against. The
// slices alias the image wherever alignment allows, so later arrival
// updates write into it (a mapped snapshot's copy-on-write pages absorb
// them); a misaligned last-arrival block is copied.
func bindArrival(d *deviceImage, nkeys int) (*flows.ArrivalState, error) {
	n := len(d.arrivalHas)
	if n != nkeys {
		return nil, fmt.Errorf("arrival state width %d does not match %d keys", n, nkeys)
	}
	if n == 0 {
		return &flows.ArrivalState{}, nil
	}
	last, ok := artifact.AliasI64s(d.arrivalLast, n)
	if !ok {
		last = decodeI64Block(d.arrivalLast, n)
	}
	has, err := artifact.AliasBools(d.arrivalHas, n)
	if err != nil {
		return nil, err
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
