package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"fiat/internal/artifact"
	"fiat/internal/flows"
	"fiat/internal/simclock"
	"fiat/internal/swap"
	"fiat/internal/wire"
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

// buildStateRigCfg is buildStateRig on a caller-chosen configuration.
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

// TestProxyStateRoundTrip: encode a populated proxy, restore it into
// freshly built twins on the sequential and sharded engines (decisions are
// shard-invariant and the checksum deliberately excludes Shards), and
// require (1) the restore went through the proxy's artifact store, (2) the
// restored image re-encodes byte-identically, and (3) an identical
// post-snapshot trace produces identical decisions, stats, obs registries
// and state images — the whole-state oracle crash recovery relies on. Each
// twin restores from its own copy of the image: restored arrival state
// aliases the image and writes into it.
func TestProxyStateRoundTrip(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 2, clf)
	src.populateState(t)
	enc := src.proxy.EncodeState()
	at := src.clock.Now()

	// Same wall-clock, same packets, same everything after the restore.
	want := src.driveAfter(t)
	wantStats := src.proxy.StatsSnapshot()
	wantMetrics := src.proxy.Metrics().Snapshot()
	wantState := src.proxy.EncodeState()

	for _, tc := range []struct {
		name   string
		shards int
	}{{"seq", 1}, {"sharded", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			dst := buildStateRig(t, tc.shards, clf)
			if err := dst.proxy.RestoreState(append([]byte(nil), enc...)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst.proxy.EncodeState(), enc) {
				t.Fatal("restored proxy re-encodes differently")
			}
			if st := dst.proxy.cfg.Artifacts.Stats(); st.UniqueRules == 0 || st.UniqueModels == 0 {
				t.Fatalf("restore did not go through the store: %+v", st)
			}
			dst.clock.AdvanceTo(at)
			got := dst.driveAfter(t)
			if len(got) != len(want) {
				t.Fatalf("decision counts differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("decision %d differs: %+v vs %+v", i, want[i], got[i])
				}
			}
			if st := dst.proxy.StatsSnapshot(); st != wantStats {
				t.Fatalf("stats differ:\n src %+v\n dst %+v", wantStats, st)
			}
			if m := dst.proxy.Metrics().Snapshot(); m != wantMetrics {
				t.Fatalf("obs snapshots differ:\n src %s\n dst %s", wantMetrics, m)
			}
			if !bytes.Equal(dst.proxy.EncodeState(), wantState) {
				t.Fatal("post-trace state images differ")
			}
		})
	}
}

// TestProxyStateRoundTripZeroCopy: twins on the sequential and sharded
// engines restore the same image into one caller-supplied artifact store, as
// the gateway benchmark harness configures it. The second restore must reuse
// the entries the first one installed rather than install its own, so each
// device's compiled rules are the same view in both twins, and each twin
// must still re-encode the image and match the source on an identical
// post-snapshot trace: decisions, stats, obs registries and state images.
// Each twin restores from its own copy of the image.
func TestProxyStateRoundTripZeroCopy(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 2, clf)
	src.populateState(t)
	enc := src.proxy.EncodeState()
	at := src.clock.Now()

	want := src.driveAfter(t)
	wantStats := src.proxy.StatsSnapshot()
	wantMetrics := src.proxy.Metrics().Snapshot()
	wantState := src.proxy.EncodeState()

	cases := []struct {
		name   string
		shards int
	}{{"seq", 1}, {"sharded", 3}}
	store := artifact.NewStore()
	twins := make([]*testRig, len(cases))
	var first artifact.StoreStats
	for i, tc := range cases {
		cfg := stateRigConfig(tc.shards)
		cfg.Artifacts = store
		twins[i] = buildStateRigCfg(t, cfg, clf)
		if err := twins[i].proxy.RestoreState(append([]byte(nil), enc...)); err != nil {
			t.Fatal(err)
		}
		st := store.Stats()
		if i == 0 {
			if st.UniqueRules == 0 || st.UniqueModels == 0 {
				t.Fatalf("restore did not go through the shared store: %+v", st)
			}
			first = st
			continue
		}
		if st != first {
			t.Fatalf("restore %d did not share the store's entries:\n after first %+v\n now %+v", i+1, first, st)
		}
	}
	shared := 0
	for _, dev := range []string{"plug", "cam"} {
		view, ok := twins[0].proxy.CompiledRules(dev)
		if !ok {
			continue
		}
		shared++
		if other, _ := twins[1].proxy.CompiledRules(dev); other != view {
			t.Fatalf("%s: twins restored different rule views", dev)
		}
		if view != store.AcquireRules(view.Checksum()) {
			t.Fatalf("%s: restored rules are not the store's view", dev)
		}
	}
	if shared == 0 {
		t.Fatal("no restored device carries compiled rules")
	}

	for i, tc := range cases {
		dst := twins[i]
		t.Run(tc.name, func(t *testing.T) {
			if !bytes.Equal(dst.proxy.EncodeState(), enc) {
				t.Fatal("restored proxy re-encodes differently")
			}
			dst.clock.AdvanceTo(at)
			got := dst.driveAfter(t)
			if len(got) != len(want) {
				t.Fatalf("decision counts differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("decision %d differs: %+v vs %+v", i, want[i], got[i])
				}
			}
			if st := dst.proxy.StatsSnapshot(); st != wantStats {
				t.Fatalf("stats differ:\n src %+v\n dst %+v", wantStats, st)
			}
			if m := dst.proxy.Metrics().Snapshot(); m != wantMetrics {
				t.Fatalf("obs snapshots differ:\n src %s\n dst %s", wantMetrics, m)
			}
			if !bytes.Equal(dst.proxy.EncodeState(), wantState) {
				t.Fatal("post-trace state images differ")
			}
		})
	}
}

// TestRestoreRejectsForeignArena: a frozen device is its artifact, so the
// arena, the identity naming it and the arrival state evolving against it
// must belong together. An image whose camera identity names the plug's
// arena digest is rejected in decode: RestoreState leaves the proxy
// untouched and the offline inspector (-verify-state) refuses the detached
// body. An image pairing the camera's arena with the plug's arrival state
// decodes, but its width disagrees with the arena, so RestoreState fails.
func TestRestoreRejectsForeignArena(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 1, clf)
	src.populateState(t)
	plugArt := src.proxy.shardFor("plug").devices["plug"].art
	cam := src.proxy.shardFor("cam").devices["cam"]
	camArt := cam.art
	if plugArt == nil || camArt == nil {
		t.Fatal("rig did not freeze both devices")
	}
	if plugArt.compiled.NumKeys() == camArt.compiled.NumKeys() {
		t.Fatal("rig devices share an arena width; the arrival forgery would go unseen")
	}

	foreign := *camArt
	foreign.meta.RulesSum = plugArt.meta.RulesSum
	cam.art = &foreign
	enc := src.proxy.EncodeState()
	if _, err := decodeState(enc, nil, false); err == nil || !strings.Contains(err.Error(), "does not match arena") {
		t.Fatalf("decode err = %v, want the identity/arena rejection", err)
	}
	dst := buildStateRig(t, 1, clf)
	before := dst.proxy.EncodeState()
	if err := dst.proxy.RestoreState(enc); err == nil {
		t.Fatal("image naming the plug's arena in the camera's identity restored")
	}
	if !bytes.Equal(dst.proxy.EncodeState(), before) {
		t.Fatal("rejected image changed the proxy")
	}
	body, n := src.proxy.AppendStateDetached(nil)
	log, err := DecodeLogEntries([][]byte{src.proxy.AppendLogEntries(nil, 0, n)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InspectStateArtifacts(body, log); err == nil {
		t.Fatal("inspector accepted the forged image")
	}

	widths := *camArt
	widths.arrival = plugArt.arrival
	cam.art = &widths
	enc = src.proxy.EncodeState()
	err = buildStateRig(t, 1, clf).proxy.RestoreState(enc)
	if err == nil || !strings.Contains(err.Error(), "arrival state width") {
		t.Fatalf("restore err = %v, want the arrival-width rejection", err)
	}
}

// TestRestoreRejectsForeignCandidate: a mid-shadow candidate is written as
// its compiled arena, identity and arrival state. Decode must reject an
// identity naming another arena and an arrival block of another width.
func TestRestoreRejectsForeignCandidate(t *testing.T) {
	clock := simclock.NewVirtual()
	p, _, at := swapGuardProxy(t, clock, 41)
	injectShadow(t, p, "plug", swap.PhaseShadow, at.Add(-4*time.Minute))
	if _, err := decodeState(p.EncodeState(), nil, false); err != nil {
		t.Fatalf("intact mid-shadow image rejected: %v", err)
	}
	rl := p.shardFor("plug").devices["plug"].rl
	intact := *rl

	rl.meta.RulesSum ^= 1
	if _, err := decodeState(p.EncodeState(), nil, false); err == nil || !strings.Contains(err.Error(), "candidate digest") {
		t.Fatalf("decode err = %v, want the candidate identity rejection", err)
	}

	*rl = intact
	n := rl.compiled.NumKeys() + 1
	wide, err := flows.ArrivalFromRaw(make([]int64, n), make([]bool, n))
	if err != nil {
		t.Fatal(err)
	}
	rl.arrival = wide
	if _, err := decodeState(p.EncodeState(), nil, false); err == nil || !strings.Contains(err.Error(), "candidate arrival") {
		t.Fatalf("decode err = %v, want the candidate arrival-width rejection", err)
	}
}

// TestProxyStateDetachedRoundTrip: the durable layer's form of the image —
// the body without log entries, the entries encoded in two ranges as two
// checkpoints would append them — restores into a proxy that re-encodes to
// exactly EncodeState. A body given the wrong number of entries is rejected
// without touching the proxy.
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
	dst := buildStateRig(t, 1, clf)
	before := dst.proxy.EncodeState()
	if err := dst.proxy.RestoreStateDetached(body, log[:n-1]); err == nil {
		t.Fatal("restore accepted one entry too few")
	}
	if !bytes.Equal(dst.proxy.EncodeState(), before) {
		t.Fatal("a rejected entry count changed the proxy")
	}
	if err := dst.proxy.RestoreStateDetached(body, log); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.proxy.EncodeState(), enc) {
		t.Fatal("detached restore re-encodes differently")
	}
	if _, err := DecodeLogEntries([][]byte{chunks[0], chunks[1][:len(chunks[1])-1]}); err == nil {
		t.Fatal("a torn entry decoded")
	}
}

// TestProxyRestoreRejectsFrozenRulesWithoutArena: the image holds a rule
// table only where learning goes on, before a device's freeze point and in a
// relearn candidate. A frozen table forged into either slot would be a
// device that cannot enforce, or a candidate that cannot learn, so decode
// must reject it.
func TestProxyRestoreRejectsFrozenRulesWithoutArena(t *testing.T) {
	mk := func() *testRig {
		r := newRig(t, stateRigConfig(1))
		if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	src := mk()
	src.feedHeartbeats(t, "plug", 10, time.Minute)
	ds := src.proxy.shardFor("plug").devices["plug"]
	if ds.rules == nil || ds.art != nil {
		t.Fatal("plug left its bootstrap window")
	}
	if err := mk().proxy.RestoreState(src.proxy.EncodeState()); err != nil {
		t.Fatalf("intact pre-freeze image rejected: %v", err)
	}
	ds.rules.Freeze()
	if _, err := decodeState(src.proxy.EncodeState(), nil, false); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("decode err = %v, want a frozen pre-freeze table rejected", err)
	}

	src = mk()
	src.feedHeartbeats(t, "plug", 25, time.Minute)
	src.proxy.Process("plug", mkRec(src.clock.Now(), 128, flows.CategoryControl), "")
	injectShadow(t, src.proxy, "plug", swap.PhaseRelearn, src.clock.Now())
	if err := mk().proxy.RestoreState(src.proxy.EncodeState()); err != nil {
		t.Fatalf("intact mid-relearn image rejected: %v", err)
	}
	src.proxy.shardFor("plug").devices["plug"].rl.table.Freeze()
	if _, err := decodeState(src.proxy.EncodeState(), nil, false); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("decode err = %v, want a frozen relearn candidate rejected", err)
	}
}

// TestFrozenDeviceIsItsArtifact: once a device freezes, its compiled
// artifact is its only rule state. After populateState neither device keeps
// a learning table; PromoteIdentical clones the live arena, keeping its
// RulesSum and the decisions that follow; and no golden image carries a
// learning table for a frozen device.
func TestFrozenDeviceIsItsArtifact(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 1, clf)
	src.populateState(t)
	twin := buildStateRig(t, 1, clf)
	twin.populateState(t)
	for _, name := range []string{"plug", "cam"} {
		ds := twin.proxy.shardFor(name).devices[name]
		if ds.rules != nil || ds.art == nil {
			t.Fatalf("%s: frozen device keeps a learning table (%v) or lacks an artifact", name, ds.rules != nil)
		}
		old, _ := twin.proxy.ArtifactMeta(name)
		meta, err := twin.proxy.PromoteIdentical(name)
		if err != nil {
			t.Fatal(err)
		}
		if meta.RulesSum != old.RulesSum || meta.Generation != old.Generation+1 || meta.Parent != old.Generation {
			t.Fatalf("%s: identical promotion %+v from %+v", name, meta, old)
		}
		if ds.rules != nil {
			t.Fatalf("%s: promotion brought back a learning table", name)
		}
	}
	twin.clock.AdvanceTo(src.clock.Now())
	want, got := src.driveAfter(t), twin.driveAfter(t)
	if len(got) != len(want) {
		t.Fatalf("decision counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("decision %d differs after identical promotion: %+v vs %+v", i, want[i], got[i])
		}
	}

	for _, g := range goldenTraces {
		_, p := replayGolden(t, g, 1)
		img, err := decodeState(p.EncodeState(), nil, false)
		if err != nil {
			t.Fatal(err)
		}
		frozen := 0
		for _, d := range img.devices {
			if d.arena != nil {
				frozen++
				if d.rules != nil {
					t.Fatalf("%s: frozen device %s carries a learning table", g.name(), d.name)
				}
			}
		}
		if frozen == 0 {
			t.Fatalf("%s: no frozen device in the image", g.name())
		}
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

// TestRuleKeysAcrossFreeze: RuleKeys reads the learning table before the
// freeze point and the live arena after it, and both name the same learned
// flows, so a MUD export does not change when a device freezes.
func TestRuleKeysAcrossFreeze(t *testing.T) {
	r := newRig(t, stateRigConfig(1))
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "plug", 10, time.Minute)
	learning, ok := r.proxy.RuleKeys("plug")
	if !ok || len(learning) != 1 {
		t.Fatalf("pre-freeze keys %v ok=%v, want the heartbeat flow", learning, ok)
	}
	r.clock.Advance(20 * time.Minute)
	r.proxy.Process("plug", mkRec(r.clock.Now(), 128, flows.CategoryControl), "")
	if _, frozen := r.proxy.ArtifactMeta("plug"); !frozen {
		t.Fatal("plug did not freeze")
	}
	compiled, ok := r.proxy.RuleKeys("plug")
	if !ok || !reflect.DeepEqual(compiled, learning) {
		t.Fatalf("post-freeze keys %v, pre-freeze %v", compiled, learning)
	}
}

// TestReadLearningTableFillsItsFrame: a learning table must fill its
// length-prefixed frame; a frame with a byte past the table is rejected.
func TestReadLearningTableFillsItsFrame(t *testing.T) {
	rt := flows.NewRuleTable(flows.ModePortLess)
	rt.Learn(mkRec(simclock.Epoch, 128, flows.CategoryControl))
	if _, err := readLearningTable(wire.NewReader(appendLearningTable(nil, rt))); err != nil {
		t.Fatalf("intact frame rejected: %v", err)
	}
	padded := wire.AppendBytes(nil, append(rt.EncodeState(), 0))
	if _, err := readLearningTable(wire.NewReader(padded)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want a trailing-bytes rejection", err)
	}
}
