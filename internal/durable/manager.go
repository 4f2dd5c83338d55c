package durable

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"fiat/internal/core"
	"fiat/internal/obs"
	"fiat/internal/simclock"
)

// ErrCrashed is returned by every Manager operation after an armed kill
// point has fired: the manager models a dead process and refuses all
// further work. The harness then reopens the state directory to recover.
var ErrCrashed = errors.New("durable: crashed at kill point")

// SyncMode selects when WAL appends reach stable storage.
type SyncMode int

const (
	// SyncTick batches fsyncs on the clock tick (Manager.Tick) — the
	// default: at most one tick's worth of acknowledged input is lost to a
	// power failure, and the hot path never waits on the disk.
	SyncTick SyncMode = iota
	// SyncAlways fsyncs every append before acknowledging it.
	SyncAlways
	// SyncOff never fsyncs explicitly (the OS flushes when it pleases).
	SyncOff
)

// ParseSyncMode maps the -wal-sync flag values onto SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "tick", "":
		return SyncTick, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown sync mode %q (want always, tick, or off)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "tick"
	}
}

// KillPoint names one seeded crash site inside the durable layer.
type KillPoint int

const (
	// KillMidAppend dies with half of one WAL frame written.
	KillMidAppend KillPoint = iota + 1
	// KillAfterAppendUnsynced dies after a successful append whose bytes
	// never reached stable storage (lost page cache).
	KillAfterAppendUnsynced
	// KillMidRotate dies during segment rotation, leaving the new segment
	// with a torn header.
	KillMidRotate
	// KillMidSnapshot dies mid-checkpoint with a partial snapshot tmp file.
	KillMidSnapshot
	// KillPostSnapshot dies after the snapshot rename but before the WAL
	// trim, leaving pre-snapshot records the replay must skip.
	KillPostSnapshot
	// KillMidAudit dies mid-checkpoint with half of one audit chunk written
	// and no snapshot covering it.
	KillMidAudit
)

// KillSpec arms one deterministic crash. Seq triggers the append-side
// points when that operation sequence number is written; Checkpoint (1-based)
// triggers the snapshot-side points on that Checkpoint call.
type KillSpec struct {
	Point      KillPoint
	Seq        uint64
	Checkpoint int

	fired bool
}

func (k *KillSpec) fires(p KillPoint, seq uint64) bool {
	if k == nil || k.fired || k.Point != p {
		return false
	}
	// KillMidRotate arms on "the first rotation at or after Seq" — the
	// exact rotation boundary depends on segment sizing, which tests should
	// not have to predict byte-for-byte.
	if p == KillMidRotate {
		if seq < k.Seq {
			return false
		}
	} else if seq != k.Seq {
		return false
	}
	k.fired = true
	return true
}

func (k *KillSpec) firesCheckpoint(p KillPoint, n int) bool {
	if k == nil || k.fired || k.Point != p || n != k.Checkpoint {
		return false
	}
	k.fired = true
	return true
}

// BuildProxy constructs the proxy a Manager governs. It is called once per
// Open with the manager's replay-aware clock and must perform the exact
// same construction every time — same config, same devices, same DAG, same
// classifiers — because recovery rebuilds the proxy from scratch and then
// restores state into it (the config checksum enforces the match).
type BuildProxy func(clock simclock.Clock) (*core.Proxy, error)

// Config parameterizes a Manager.
type Config struct {
	// Dir is the state directory (created if missing).
	Dir string
	// Sync selects WAL durability batching.
	Sync SyncMode
	// SegmentBytes caps one WAL segment (default 256 KiB).
	SegmentBytes int64
	// Obs receives the durable layer's own metrics. It must NOT be the
	// proxy's registry: recovery oracles compare proxy registries
	// byte-for-byte, and recovery counters legitimately differ between an
	// interrupted run and its uninterrupted reference. Nil creates a
	// private registry (reachable via Metrics).
	Obs *obs.Registry
	// Kill arms one deterministic crash site (tests only).
	Kill *KillSpec
	// OnReplay, when set, observes every operation re-applied during
	// recovery together with the decisions it regenerated (nil for ops
	// that produce none).
	OnReplay func(op *Op, decisions []core.Decision)
}

// Manager owns a proxy plus its durable state: every input operation is
// appended to the WAL before it is applied, checkpoints capture the full
// proxy image (the audit entries added since the last checkpoint into the
// audit segment, everything else into a snapshot) and let the log be
// trimmed, and Open recovers the snapshot+suffix composition after a
// crash. All operations are serialized under one mutex — the durability
// contract is a total order of inputs, and the engine underneath already
// parallelizes within a batch.
type Manager struct {
	mu          sync.Mutex
	cfg         Config
	live        simclock.Clock
	clock       *switchClock
	proxy       *core.Proxy
	wal         *wal
	audit       *os.File // the audit segment, written at auditLen
	auditLen    int64    // audit segment bytes the newest snapshot covers
	auditN      int      // audit entries in those bytes
	lastSeq     uint64
	snapSeq     uint64 // seq covered by the newest on-disk snapshot
	lastCkpt    time.Time
	checkpoints int
	crashed     bool
	closed      bool
	attestOK    bool  // proxy verdict of the most recent OpAttestation apply
	attestErr   error // proxy error of the most recent OpAttestation apply

	// Encode buffers owned by the manager and reused under mu, so steady
	// appends and checkpoints do not allocate. Each keeps the capacity of
	// the largest frame, image or chunk run written so far.
	frame []byte // one WAL frame: header, then the encoded op
	img   []byte // one snapshot image: header, then the detached proxy state
	chunk []byte // one checkpoint's framed audit chunks

	reg         *obs.Registry
	appends     *obs.Counter
	truncated   *obs.Counter
	recoveries  *obs.Counter
	checkpointC *obs.Counter
	snapAge     *obs.Gauge
}

// switchClock is the clock the managed proxy lives on: transparent to the
// live clock normally, pinned to an operation's recorded instant while that
// operation is applied — both live (so the WAL time and the applied time
// cannot diverge even on a wall clock) and during replay (so recovery
// re-applies at the original instants).
type switchClock struct {
	mu     sync.Mutex
	live   simclock.Clock
	pinned bool
	at     time.Time
}

func (c *switchClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pinned {
		return c.at
	}
	return c.live.Now()
}

func (c *switchClock) pin(t time.Time) {
	c.mu.Lock()
	c.pinned, c.at = true, t
	c.mu.Unlock()
}

func (c *switchClock) unpin() {
	c.mu.Lock()
	c.pinned = false
	c.mu.Unlock()
}

// Open builds (or recovers) a managed proxy from the state directory:
// load the newest snapshot if one exists, restore it together with the
// audit segment prefix it covers into a freshly built proxy, replay the WAL
// suffix beyond it with the clock pinned to each record's instant, truncate
// any torn WAL tail and any audit bytes past the covered prefix, and
// position both for new appends. Corruption anywhere but the final
// segment's tail fails closed, and so does a short or corrupt covered
// audit prefix.
func Open(cfg Config, live simclock.Clock, build BuildProxy) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("durable: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 256 << 10
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Manager{
		cfg:         cfg,
		live:        live,
		clock:       &switchClock{live: live},
		reg:         reg,
		appends:     reg.Counter("fiat_durable_wal_appends_total"),
		truncated:   reg.Counter("fiat_durable_wal_truncated_records_total"),
		recoveries:  reg.Counter("fiat_durable_wal_recoveries_total"),
		checkpointC: reg.Counter("fiat_durable_checkpoints_total"),
		snapAge:     reg.Gauge("fiat_durable_snapshot_age_seconds"),
	}

	if err := removeTempFiles(cfg.Dir); err != nil {
		return nil, err
	}
	snapHdr, snapBody, err := loadLatestSnapshot(cfg.Dir)
	if err != nil {
		return nil, err
	}
	covered := int64(snapHdr.AuditLen)
	audit, err := loadAudit(cfg.Dir, covered)
	if err != nil {
		return nil, err
	}
	scan, err := scanWAL(cfg.Dir, true)
	if err != nil {
		return nil, err
	}
	m.truncated.Add(int64(scan.truncated))

	proxy, err := build(m.clock)
	if err != nil {
		return nil, err
	}
	m.proxy = proxy

	hadState := snapBody != nil || len(scan.payloads) > 0
	if snapBody != nil {
		if err := proxy.RestoreStateDetached(snapBody, audit.entries); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		m.auditLen, m.auditN = covered, len(audit.entries)
		m.snapSeq = snapHdr.Seq
		m.lastSeq = snapHdr.Seq
		m.lastCkpt = snapHdr.Time
	}
	for _, payload := range scan.payloads {
		op, err := DecodeOp(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if op.Seq <= m.snapSeq {
			// Pre-snapshot record surviving a skipped trim; its effect is
			// already inside the snapshot.
			continue
		}
		if op.Seq != m.lastSeq+1 {
			return nil, fmt.Errorf("%w: replay gap: op seq %d after %d", ErrCorrupt, op.Seq, m.lastSeq)
		}
		decisions, err := m.apply(&op)
		if err != nil {
			return nil, fmt.Errorf("durable: replay op %d: %w", op.Seq, err)
		}
		m.lastSeq = op.Seq
		if cfg.OnReplay != nil {
			cfg.OnReplay(&op, decisions)
		}
	}
	m.wal = &wal{dir: cfg.Dir, segBytes: cfg.SegmentBytes, mode: cfg.Sync, kill: cfg.Kill}
	if err := m.wal.openAppend(scan.appendSeg, m.lastSeq+1); err != nil {
		return nil, err
	}
	if m.audit, err = openAudit(cfg.Dir, covered); err != nil {
		m.wal.close()
		return nil, err
	}
	if hadState {
		m.recoveries.Inc()
	} else {
		// First boot: checkpoint the initial image immediately (checkpoint
		// ordinal 1). Without it, a crash before the first periodic
		// checkpoint would rebuild the proxy with a fresh start instant and
		// lose bootstrap progress — the WAL can only replay inputs onto a
		// durably pinned starting state.
		if err := m.checkpointLocked(); err != nil {
			m.releaseFiles()
			return nil, err
		}
	}
	return m, nil
}

// apply re-executes one operation against the proxy with the clock pinned
// to the operation's recorded instant. Attestation application surfaces no
// error: a malformed or replayed attestation mutates state (bad counters,
// audit entries) exactly like it did live, which is the effect being
// reproduced.
func (m *Manager) apply(op *Op) ([]core.Decision, error) {
	m.clock.pin(op.Time)
	defer m.clock.unpin()
	switch op.Kind {
	case OpBatch:
		return m.proxy.ProcessBatch(op.Batch), nil
	case OpAttestation:
		m.attestOK, m.attestErr = m.proxy.HandleAttestation(op.Payload)
		return nil, nil
	case OpSweep:
		m.proxy.SweepPending()
		return nil, nil
	case OpChannelDown:
		m.proxy.AttestationChannelDown()
		return nil, nil
	case OpChannelUp:
		m.proxy.AttestationChannelUp()
		return nil, nil
	case OpFlush:
		if d := m.proxy.FlushEvent(op.Device); d != nil {
			return []core.Decision{*d}, nil
		}
		return nil, nil
	}
	return nil, fmt.Errorf("unknown op kind %d", op.Kind)
}

// logAndApply appends one operation to the WAL (write-ahead: the log entry
// is durable-ordered before the proxy mutates) and then applies it. op
// carries the kind and its payload field; Seq and Time are stamped here.
func (m *Manager) logAndApply(op Op) ([]core.Decision, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logAndApplyLocked(op)
}

func (m *Manager) logAndApplyLocked(op Op) ([]core.Decision, error) {
	if m.crashed {
		return nil, ErrCrashed
	}
	if m.closed {
		return nil, fmt.Errorf("durable: manager closed")
	}
	op.Seq, op.Time = m.lastSeq+1, m.live.Now()
	m.frame = appendOpFrame(m.frame[:0], &op)
	if err := m.wal.append(op.Seq, m.frame); err != nil {
		if errors.Is(err, ErrCrashed) {
			m.die()
		}
		return nil, err
	}
	m.appends.Inc()
	m.lastSeq = op.Seq
	return m.apply(&op)
}

// ProcessBatch durably logs and applies one packet batch.
func (m *Manager) ProcessBatch(batch []core.PacketIn) ([]core.Decision, error) {
	return m.logAndApply(Op{Kind: OpBatch, Batch: batch})
}

// HandleAttestation durably logs and applies one attestation payload. The
// proxy's verdict is folded into the decision-free return: the attestation's
// observable effects (validations, counters, audit entries) are what the
// durability layer guarantees, and they are re-derived on replay.
func (m *Manager) HandleAttestation(payload []byte) error {
	_, err := m.logAndApply(Op{Kind: OpAttestation, Payload: payload})
	return err
}

// HandleAttestationVerdict is HandleAttestation for live drivers that react
// to the proxy's verdict — the chaos courier fabric acks a delivery only when
// the payload decoded, so the swallowed-verdict form cannot drive it. The
// operation is logged to the WAL either way: a rejected payload's side
// effects (bad counters, audit entries) are part of what replay reproduces.
// A durability failure surfaces through the same error return, which is safe
// for such callers: any error means "do not ack".
func (m *Manager) HandleAttestationVerdict(payload []byte) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.logAndApplyLocked(Op{Kind: OpAttestation, Payload: payload}); err != nil {
		return false, err
	}
	return m.attestOK, m.attestErr
}

// SweepPending durably logs and applies one pending-queue sweep.
func (m *Manager) SweepPending() error {
	_, err := m.logAndApply(Op{Kind: OpSweep})
	return err
}

// AttestationChannelDown durably logs the phone channel going down.
func (m *Manager) AttestationChannelDown() error {
	_, err := m.logAndApply(Op{Kind: OpChannelDown})
	return err
}

// AttestationChannelUp durably logs the phone channel recovering.
func (m *Manager) AttestationChannelUp() error {
	_, err := m.logAndApply(Op{Kind: OpChannelUp})
	return err
}

// FlushEvent durably logs and applies one event flush for a device.
func (m *Manager) FlushEvent(device string) (*core.Decision, error) {
	ds, err := m.logAndApply(Op{Kind: OpFlush, Device: device})
	if err != nil || len(ds) == 0 {
		return nil, err
	}
	return &ds[0], nil
}

// Tick is the simclock-aligned maintenance hook: under SyncTick it batches
// the WAL fsync, and it refreshes the snapshot-age gauge. Wire it to the
// proxy's sweep cadence or a dedicated ticker.
func (m *Manager) Tick() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if m.closed {
		return nil
	}
	if m.cfg.Sync == SyncTick {
		if err := m.wal.sync(); err != nil {
			return err
		}
	}
	if !m.lastCkpt.IsZero() {
		m.snapAge.Set(int64(m.live.Now().Sub(m.lastCkpt) / time.Second))
	}
	return nil
}

// Checkpoint captures the proxy's full state at the current WAL position:
// the audit entries added since the last checkpoint are appended to the
// audit segment and synced, then a snapshot of the rest of the image,
// recording the segment length it covers, replaces the previous one, and
// fully covered WAL segments are trimmed. The WAL is synced first so the
// snapshot never leads the log it summarizes.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpointLocked()
}

func (m *Manager) checkpointLocked() error {
	if m.crashed {
		return ErrCrashed
	}
	if m.closed {
		return fmt.Errorf("durable: manager closed")
	}
	if err := m.wal.sync(); err != nil {
		return err
	}
	m.checkpoints++
	now := m.live.Now()
	// AppendStateDetached pads relative to where it starts, so encoding
	// after the reserved header yields the same body bytes as encoding
	// alone.
	var n int
	m.img, n = m.proxy.AppendStateDetached(append(m.img[:0], make([]byte, snapHdrLen)...))
	auditLen, err := m.appendAudit(n)
	if err == nil {
		putSnapshotHeader(m.img, m.lastSeq, now, m.proxy.ConfigChecksum(), auditLen)
		err = writeSnapshot(m.cfg.Dir, m.lastSeq, m.img, m.cfg.Kill, m.checkpoints)
	}
	if err != nil {
		if errors.Is(err, ErrCrashed) {
			m.die()
		}
		return err
	}
	m.auditLen, m.auditN = auditLen, n
	m.snapSeq = m.lastSeq
	m.lastCkpt = now
	m.checkpointC.Inc()
	m.snapAge.Set(0)
	if m.cfg.Kill.firesCheckpoint(KillPostSnapshot, m.checkpoints) {
		// Crash between the snapshot rename and the WAL trim: recovery
		// must skip the pre-snapshot records still on disk.
		m.die()
		return ErrCrashed
	}
	if err := m.wal.trimBefore(m.lastSeq + 1); err != nil {
		return err
	}
	return pruneSnapshots(m.cfg.Dir, m.lastSeq)
}

// Close gracefully shuts the manager down: sync the WAL, take a final
// checkpoint and release the log (the proxy stays readable). The next Open
// recovers from the checkpoint alone.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if m.closed {
		return nil
	}
	if err := m.checkpointLocked(); err != nil {
		return err
	}
	m.closed = true
	err := m.audit.Close()
	m.audit = nil
	if werr := m.wal.close(); err == nil {
		err = werr
	}
	return err
}

// die marks the manager crashed at a kill point and drops its file handles
// without syncing anything further.
func (m *Manager) die() {
	m.crashed = true
	m.releaseFiles()
}

// releaseFiles closes the WAL and audit segment handles without syncing.
func (m *Manager) releaseFiles() {
	if m.wal != nil && m.wal.f != nil {
		m.wal.f.Close()
		m.wal.f = nil
	}
	if m.audit != nil {
		m.audit.Close()
		m.audit = nil
	}
}

// Abort releases file handles without syncing or checkpointing — the
// "pulled the plug" shutdown, used by benches and the crash harness. The
// proxy stays readable.
func (m *Manager) Abort() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseFiles()
	m.closed = true
}

// Proxy exposes the managed proxy for reads (stats, logs, metrics).
// Mutating it directly bypasses the WAL and voids the recovery guarantee.
func (m *Manager) Proxy() *core.Proxy { return m.proxy }

// LastSeq reports the sequence number of the last applied operation. After
// a crash-and-reopen it tells the harness where the surviving prefix ends.
func (m *Manager) LastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeq
}

// SnapshotSeq reports the WAL position covered by the newest snapshot.
func (m *Manager) SnapshotSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapSeq
}

// Metrics exposes the durable layer's own registry.
func (m *Manager) Metrics() *obs.Registry { return m.reg }
