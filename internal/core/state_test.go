package core

import (
	"bytes"
	"testing"
	"time"

	"fiat/internal/artifact"
	"fiat/internal/flows"
)

// stateRigConfig is the shared configuration for the snapshot round-trip
// rigs: degraded mode and anti-replay on, so every store the image covers
// carries state.
func stateRigConfig(shards int) Config {
	return Config{
		Shards:        shards,
		PendingWindow: 30 * time.Second,
		AttestWindow:  30 * time.Second,
	}
}

// buildStateRig wires a rig with a rule-classified plug, an ML-classified
// camera, and a DAG edge — one of every classifier kind and every config
// surface the checksum covers.
func buildStateRig(t *testing.T, shards int, clf *MLClassifier) *testRig {
	t.Helper()
	return buildStateRigCfg(t, stateRigConfig(shards), clf)
}

// buildStateRigCfg is buildStateRig with full control over the proxy
// configuration (engine selection, artifact store).
func buildStateRigCfg(t *testing.T, cfg Config, clf *MLClassifier) *testRig {
	t.Helper()
	r := newRig(t, cfg)
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.proxy.AddDevice(DeviceConfig{Name: "cam", Classifier: clf, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.proxy.DAG().Allow("hub", "plug"); err != nil {
		t.Fatal(err)
	}
	return r
}

// populateState drives r through bootstrap, freeze, an attestation, a held
// pending decision, a lockout drop, an outage, and a half-open event, so the
// encoded image exercises every section.
func (r *testRig) populateState(t *testing.T) {
	t.Helper()
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	for i := 0; i < 25; i++ {
		r.proxy.Process("cam", mkRec(r.clock.Now(), 128, flows.CategoryControl), "")
		r.clock.Advance(time.Second)
	}
	// Freeze both devices and leave a rule hit on the books.
	if d := r.proxy.Process("plug", mkRec(r.clock.Now(), 128, flows.CategoryControl), ""); d.Verdict != Allow {
		t.Fatalf("post-bootstrap heartbeat: %+v", d)
	}
	// A verified attestation: validations plus replay-guard state.
	payload, err := r.app.Attest("com.plug.app", r.gen.Human())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.proxy.HandleAttestation(payload); err != nil {
		t.Fatal(err)
	}
	// An unattested manual event ages into a held pending decision.
	r.clock.Advance(15 * time.Second)
	r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), "")
	// A channel outage interval, one still-open event on the camera, and an
	// in-flight grouper on the plug.
	r.proxy.AttestationChannelDown()
	r.clock.Advance(2 * time.Second)
	r.proxy.AttestationChannelUp()
	r.proxy.Process("cam", mkRec(r.clock.Now(), 512, flows.CategoryManual), "")
	r.proxy.SweepPending()
}

// driveAfter applies a deterministic post-snapshot trace and returns the
// decisions — the behavioral oracle for restored state.
func (r *testRig) driveAfter(t *testing.T) []Decision {
	t.Helper()
	var out []Decision
	r.clock.Advance(10 * time.Second)
	out = append(out, r.proxy.Process("plug", mkRec(r.clock.Now(), 128, flows.CategoryControl), ""))
	out = append(out, r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), ""))
	r.clock.Advance(40 * time.Second)
	r.proxy.SweepPending()
	out = append(out, r.proxy.Process("cam", mkRec(r.clock.Now(), 512, flows.CategoryManual), ""))
	if d := r.proxy.FlushEvent("cam"); d != nil {
		out = append(out, *d)
	}
	return out
}

// TestProxyStateRoundTrip: encode a populated proxy, restore it into a
// freshly built twin (on a different shard count — decisions are
// shard-invariant and the checksum deliberately excludes Shards), and
// require (1) the restored image re-encodes byte-identically, and (2) an
// identical post-snapshot trace produces identical decisions, logs, stats,
// and obs registries — the whole-state oracle crash recovery relies on.
func TestProxyStateRoundTrip(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 2, clf)
	src.populateState(t)
	enc := src.proxy.EncodeState()

	dst := buildStateRig(t, 3, clf)
	if err := dst.proxy.RestoreState(enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.proxy.EncodeState(), enc) {
		t.Fatal("restored proxy re-encodes differently")
	}

	// Same wall-clock, same packets, same everything after the restore.
	dst.clock.AdvanceTo(src.clock.Now())
	d1 := src.driveAfter(t)
	d2 := dst.driveAfter(t)
	if len(d1) != len(d2) {
		t.Fatalf("decision counts differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
	if a, b := src.proxy.StatsSnapshot(), dst.proxy.StatsSnapshot(); a != b {
		t.Fatalf("stats differ:\n src %+v\n dst %+v", a, b)
	}
	if a, b := src.proxy.Metrics().Snapshot(), dst.proxy.Metrics().Snapshot(); a != b {
		t.Fatalf("obs snapshots differ:\n src %s\n dst %s", a, b)
	}
	if !bytes.Equal(src.proxy.EncodeState(), dst.proxy.EncodeState()) {
		t.Fatal("post-trace state images differ")
	}
}

// TestProxyStateRoundTripZeroCopy: restoring the same image through the
// zero-copy artifact arm — on the sequential and sharded engines —
// must be indistinguishable from the copied arm on every oracle: the image
// re-encodes byte-identically, and an identical post-snapshot trace yields
// identical decisions, stats, and obs registries. This is the core-level
// differential behind the crash-matrix one in internal/chaos.
func TestProxyStateRoundTripZeroCopy(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 2, clf)
	src.populateState(t)
	enc := src.proxy.EncodeState()

	// The copied-arm reference: restore and drive once.
	ref := buildStateRig(t, 2, clf)
	if err := ref.proxy.RestoreState(enc); err != nil {
		t.Fatal(err)
	}
	ref.clock.AdvanceTo(src.clock.Now())
	refDecisions := ref.driveAfter(t)
	refState := ref.proxy.EncodeState()

	for _, tc := range []struct {
		name   string
		shards int
	}{{"seq", 1}, {"sharded", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stateRigConfig(tc.shards)
			cfg.Artifacts = artifact.NewStore()
			dst := buildStateRigCfg(t, cfg, clf)
			if err := dst.proxy.RestoreState(enc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst.proxy.EncodeState(), enc) {
				t.Fatal("zero-copy restored proxy re-encodes differently")
			}
			if st := cfg.Artifacts.Stats(); st.UniqueRules == 0 || st.RuleRefs == 0 {
				t.Fatalf("restore did not go through the store: %+v", st)
			}
			dst.clock.AdvanceTo(src.clock.Now())
			got := dst.driveAfter(t)
			if len(got) != len(refDecisions) {
				t.Fatalf("decision counts differ: %d vs %d", len(got), len(refDecisions))
			}
			for i := range got {
				if got[i] != refDecisions[i] {
					t.Fatalf("decision %d differs: %+v vs %+v", i, got[i], refDecisions[i])
				}
			}
			if a, b := ref.proxy.StatsSnapshot(), dst.proxy.StatsSnapshot(); a != b {
				t.Fatalf("stats differ:\n ref %+v\n dst %+v", a, b)
			}
			if a, b := ref.proxy.Metrics().Snapshot(), dst.proxy.Metrics().Snapshot(); a != b {
				t.Fatalf("obs snapshots differ:\n ref %s\n dst %s", a, b)
			}
			if !bytes.Equal(dst.proxy.EncodeState(), refState) {
				t.Fatal("post-trace state images differ between arms")
			}
		})
	}
}

// TestProxyStateDetachedRoundTrip: the durable layer's form of the image —
// the body without log entries, the entries encoded in two ranges as two
// checkpoints would append them — restores on both arms into a proxy that
// re-encodes to exactly EncodeState. A body given the wrong number of
// entries is rejected without touching the proxy.
func TestProxyStateDetachedRoundTrip(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 2, clf)
	src.populateState(t)
	enc := src.proxy.EncodeState()
	body, n := src.proxy.AppendStateDetached(nil)
	if n != len(src.proxy.Log()) || n < 2 {
		t.Fatalf("detached image covers %d entries; the log holds %d", n, len(src.proxy.Log()))
	}
	chunks := [][]byte{src.proxy.AppendLogEntries(nil, 0, n/2), src.proxy.AppendLogEntries(nil, n/2, n)}
	log, err := DecodeLogEntries(chunks)
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []*artifact.Store{nil, artifact.NewStore()} {
		cfg := stateRigConfig(1)
		cfg.Artifacts = store
		dst := buildStateRigCfg(t, cfg, clf)
		before := dst.proxy.EncodeState()
		if err := dst.proxy.RestoreStateDetached(body, log[:n-1]); err == nil {
			t.Fatal("restore accepted one entry too few")
		}
		if !bytes.Equal(dst.proxy.EncodeState(), before) {
			t.Fatal("a rejected entry count changed the proxy")
		}
		if err := dst.proxy.RestoreStateDetached(body, append([]LogEntry(nil), log...)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst.proxy.EncodeState(), enc) {
			t.Fatalf("detached restore (zero-copy %v) re-encodes differently", store != nil)
		}
	}
	if _, err := DecodeLogEntries([][]byte{chunks[0], chunks[1][:len(chunks[1])-1]}); err == nil {
		t.Fatal("a torn entry decoded")
	}
}

// TestProxyRestoreRejectsFrozenRulesWithoutArena: stage 1 matches only
// through the compiled arena the freeze point installs, so an image whose
// device has a frozen rule table but no arena must fail closed instead of
// restoring a device that cannot enforce.
func TestProxyRestoreRejectsFrozenRulesWithoutArena(t *testing.T) {
	mk := func() *testRig {
		r := newRig(t, stateRigConfig(1))
		if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	src := mk()
	src.feedHeartbeats(t, "plug", 25, time.Minute)
	src.proxy.Process("plug", mkRec(src.clock.Now(), 128, flows.CategoryControl), "")
	ds := src.proxy.shardFor("plug").devices["plug"]
	if !ds.rules.Frozen() || ds.art.Load() == nil {
		t.Fatal("plug did not reach the freeze point")
	}
	if err := mk().proxy.RestoreState(src.proxy.EncodeState()); err != nil {
		t.Fatalf("intact image rejected: %v", err)
	}
	ds.art.Store(nil)
	if err := mk().proxy.RestoreState(src.proxy.EncodeState()); err == nil {
		t.Fatal("frozen rule table without a compiled arena restored")
	}
}

// TestProxyRestoreRejectsConfigSkew: an image written under one deployment
// configuration must not restore into a differently-configured proxy.
func TestProxyRestoreRejectsConfigSkew(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 2, clf)
	src.populateState(t)
	enc := src.proxy.EncodeState()

	// Different grace budget.
	skew := newRig(t, stateRigConfig(2))
	if err := skew.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 2}); err != nil {
		t.Fatal(err)
	}
	if err := skew.proxy.AddDevice(DeviceConfig{Name: "cam", Classifier: clf, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := skew.proxy.DAG().Allow("hub", "plug"); err != nil {
		t.Fatal(err)
	}
	if err := skew.proxy.RestoreState(enc); err == nil {
		t.Fatal("grace-budget skew accepted")
	}

	// Different trained model on the camera.
	skew2 := buildStateRig(t, 2, trainDiffClassifier(t, 99))
	if err := skew2.proxy.RestoreState(enc); err == nil {
		t.Fatal("classifier-model skew accepted")
	}

	// Missing DAG edge.
	skew3 := newRig(t, stateRigConfig(2))
	if err := skew3.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := skew3.proxy.AddDevice(DeviceConfig{Name: "cam", Classifier: clf, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := skew3.proxy.RestoreState(enc); err == nil {
		t.Fatal("DAG skew accepted")
	}

	// Anti-replay disabled.
	cfg := stateRigConfig(2)
	cfg.AttestWindow = 0
	skew4 := newRig(t, cfg)
	if err := skew4.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := skew4.proxy.AddDevice(DeviceConfig{Name: "cam", Classifier: clf, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := skew4.proxy.DAG().Allow("hub", "plug"); err != nil {
		t.Fatal(err)
	}
	if err := skew4.proxy.RestoreState(enc); err == nil {
		t.Fatal("replay-guard skew accepted")
	}
}

// TestProxyRestoreRejectsCorruption: version flips, truncations, and a
// corrupted embedded arena all fail closed.
func TestProxyRestoreRejectsCorruption(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 1, clf)
	src.populateState(t)
	enc := src.proxy.EncodeState()

	fresh := func() *Proxy { return buildStateRig(t, 1, clf).proxy }
	if err := fresh().RestoreState(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated image accepted")
	}
	if err := fresh().RestoreState(enc[:40]); err == nil {
		t.Fatal("header-only image accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if err := fresh().RestoreState(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[2] ^= 0xff // config checksum
	if err := fresh().RestoreState(bad); err == nil {
		t.Fatal("config-checksum flip accepted")
	}
	if err := fresh().RestoreState(nil); err == nil {
		t.Fatal("empty image accepted")
	}
}
