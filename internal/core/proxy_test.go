package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
)

// testRig wires a proxy with a paired phone keystore and a trained
// humanness validator on a virtual clock.
type testRig struct {
	clock   *simclock.VirtualClock
	proxy   *Proxy
	phoneKS *keystore.Store
	app     *ClientApp
	gen     *sensors.Generator
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	clock := simclock.NewVirtual()
	proxyKS, err := keystore.New(rand.New(rand.NewSource(100)))
	if err != nil {
		t.Fatal(err)
	}
	phoneKS, err := keystore.New(rand.New(rand.NewSource(101)))
	if err != nil {
		t.Fatal(err)
	}
	offer, err := keystore.NewPairingOffer(proxyKS, rand.New(rand.NewSource(102)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keystore.AcceptPairing(phoneKS, offer); err != nil {
		t.Fatal(err)
	}
	validator, gen, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewProxy(clock, proxyKS, validator, cfg)
	app := NewClientApp(clock, phoneKS)
	app.BindApp("com.plug.app", "plug")
	return &testRig{clock: clock, proxy: proxy, phoneKS: phoneKS, app: app, gen: gen}
}

// feedHeartbeats learns a periodic flow through the bootstrap window.
func (r *testRig) feedHeartbeats(t *testing.T, device string, n int, period time.Duration) time.Time {
	t.Helper()
	at := r.clock.Now()
	for i := 0; i < n; i++ {
		d := r.proxy.Process(device, mkRec(at, 128, flows.CategoryControl), "")
		if d.Verdict != Allow {
			t.Fatalf("heartbeat %d dropped (%s)", i, d.Reason)
		}
		at = at.Add(period)
		r.clock.AdvanceTo(at)
	}
	return at
}

func plugManualEvent(at time.Time) []flows.Record {
	return []flows.Record{
		mkRec(at, 235, flows.CategoryManual),
		mkRec(at.Add(200*time.Millisecond), 134, flows.CategoryManual),
	}
}

func TestBootstrapAllowsEverything(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	d := r.proxy.Process("plug", mkRec(r.clock.Now(), 999, flows.CategoryManual), "")
	if d.Verdict != Allow || d.Reason != ReasonBootstrap {
		t.Fatalf("decision = %+v", d)
	}
	if r.proxy.Bootstrapped() {
		t.Fatal("bootstrapped immediately")
	}
	r.clock.Advance(21 * time.Minute)
	if !r.proxy.Bootstrapped() {
		t.Fatal("not bootstrapped after the window")
	}
}

func TestPredictableTrafficAllowedAfterBootstrap(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	// 25 heartbeats a minute apart cover the 20-minute bootstrap.
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	d := r.proxy.Process("plug", mkRec(r.clock.Now(), 128, flows.CategoryControl), "")
	if d.Verdict != Allow || d.Reason != ReasonRuleHit {
		t.Fatalf("post-bootstrap heartbeat: %+v", d)
	}
}

func TestManualWithoutHumanDropped(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	// Attacker injects the on/off notification with no human present.
	d := r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), "")
	if d.Verdict != Drop || d.Reason != ReasonNoHuman {
		t.Fatalf("attack packet: %+v", d)
	}
}

func TestManualWithHumanAllowed(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	// The user touches the plug app; the attestation reaches the proxy
	// before the command traffic (the Table 7 ordering).
	payload, err := r.app.Attest("com.plug.app", r.gen.Human())
	if err != nil {
		t.Fatal(err)
	}
	human, err := r.proxy.HandleAttestation(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !human {
		t.Skip("humanness validator rejected this sampled window (rare calibrated miss)")
	}
	r.clock.Advance(500 * time.Millisecond)
	d := r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), "")
	if d.Verdict != Allow || d.Reason != ReasonHumanOK {
		t.Fatalf("legit manual packet: %+v", d)
	}
}

func TestMachineDrivenAttestationRejected(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	// Spyware triggers the app without touching the phone: the attestation
	// authenticates but the window is non-human.
	g := sensors.NewGenerator(simclock.NewRNG(55))
	g.BumpProb = 0
	payload, err := r.app.Attest("com.plug.app", g.NonHuman())
	if err != nil {
		t.Fatal(err)
	}
	human, err := r.proxy.HandleAttestation(payload)
	if err != nil {
		t.Fatal(err)
	}
	if human {
		t.Fatal("non-human window validated")
	}
	d := r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), "")
	if d.Verdict != Drop {
		t.Fatalf("attack allowed: %+v", d)
	}
}

func TestAttestationExpires(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	payload, _ := r.app.Attest("com.plug.app", r.gen.Human())
	human, _ := r.proxy.HandleAttestation(payload)
	if !human {
		t.Skip("validator miss on sampled window")
	}
	r.clock.Advance(ValidationTTL + time.Second)
	d := r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), "")
	if d.Verdict != Drop {
		t.Fatalf("stale attestation still authorized traffic: %+v", d)
	}
}

func TestGraceNAllowsHeadThenDecides(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "cam", Classifier: RuleClassifier{NotificationSize: 777}, GraceN: 5}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "cam", 25, time.Minute)
	at := r.clock.Now()
	// A 6-packet unpredictable non-manual event: first 4 pass on grace,
	// the 5th triggers classification (non-manual -> allow), the 6th
	// follows the event verdict.
	var reasons []Reason
	for i := 0; i < 6; i++ {
		d := r.proxy.Process("cam", mkRec(at.Add(time.Duration(i)*300*time.Millisecond), 600+i, flows.CategoryControl), "")
		if d.Verdict != Allow {
			t.Fatalf("packet %d dropped (%s)", i, d.Reason)
		}
		reasons = append(reasons, d.Reason)
	}
	want := []Reason{ReasonGraceN, ReasonGraceN, ReasonGraceN, ReasonGraceN, ReasonNonManual, ReasonEventFollow}
	for i := range want {
		if reasons[i] != want[i] {
			t.Fatalf("reasons = %v, want %v", reasons, want)
		}
	}
}

func TestBruteForceLockout(t *testing.T) {
	r := newRig(t, Config{LockoutThreshold: 3, LockoutWindow: time.Minute})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	// Three attack events inside the window -> lockout.
	for i := 0; i < 3; i++ {
		at := r.clock.Now()
		for _, rec := range plugManualEvent(at) {
			r.proxy.Process("plug", rec, "")
		}
		r.clock.Advance(10 * time.Second)
	}
	if !r.proxy.Locked("plug") {
		t.Fatal("device not locked after repeated drops")
	}
	// Even a legit human interaction is now refused until manual review.
	payload, _ := r.app.Attest("com.plug.app", r.gen.Human())
	_, _ = r.proxy.HandleAttestation(payload)
	d := r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), "")
	if d.Verdict != Drop || d.Reason != ReasonLocked {
		t.Fatalf("locked device processed traffic: %+v", d)
	}
	r.proxy.Unlock("plug")
	if r.proxy.Locked("plug") {
		t.Fatal("Unlock did not clear the lockout")
	}
}

func TestDAGAllowsDeviceToDevice(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "light", Classifier: RuleClassifier{NotificationSize: 99}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "light", 25, time.Minute)
	if err := r.proxy.DAG().Allow("Alexa", "light"); err != nil {
		t.Fatal(err)
	}
	// An Alexa-originated command to the light would otherwise be an
	// unpredictable manual-like event with no phone attestation.
	d := r.proxy.Process("light", mkRec(r.clock.Now(), 99, flows.CategoryManual), "Alexa")
	if d.Verdict != Allow || d.Reason != ReasonDAGAllowed {
		t.Fatalf("DAG-permitted traffic: %+v", d)
	}
	// Traffic from an unrelated peer still runs the pipeline.
	d = r.proxy.Process("light", mkRec(r.clock.Now().Add(10*time.Second), 99, flows.CategoryManual), "TV")
	if d.Verdict != Drop {
		t.Fatalf("non-DAG peer bypassed the pipeline: %+v", d)
	}
}

func TestUnknownDeviceFailsOpen(t *testing.T) {
	r := newRig(t, Config{})
	d := r.proxy.Process("mystery", mkRec(r.clock.Now(), 1, flows.CategoryUnknown), "")
	if d.Verdict != Allow {
		t.Fatalf("unknown device blocked: %+v", d)
	}
}

func TestDuplicateDeviceRejected(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "x", GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.proxy.AddDevice(DeviceConfig{Name: "x", GraceN: 1}); err == nil {
		t.Fatal("duplicate device accepted")
	}
	if err := r.proxy.AddDevice(DeviceConfig{}); err == nil {
		t.Fatal("unnamed device accepted")
	}
}

func TestAuditLogRecordsDecisions(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), "")
	log := r.proxy.Log()
	if len(log) != 1 {
		t.Fatalf("log entries = %d, want 1", len(log))
	}
	if log[0].Device != "plug" || log[0].Verdict != Drop || log[0].Reason != ReasonNoHuman {
		t.Fatalf("entry = %+v", log[0])
	}
	sealed, err := r.proxy.SealedLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) == 0 {
		t.Fatal("sealed log empty")
	}
	// A different enclave cannot read it.
	other, _ := keystore.New(rand.New(rand.NewSource(999)))
	if _, err := other.Unseal(sealed, []byte("fiat-audit-log")); err == nil {
		t.Fatal("foreign enclave opened the audit log")
	}
}

func TestFlushEventDecidesShortEvents(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 5}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	// A 2-packet event never reaches GraceN=5; FlushEvent must decide it.
	at := r.clock.Now()
	for _, rec := range plugManualEvent(at) {
		d := r.proxy.Process("plug", rec, "")
		if d.Verdict != Allow || d.Reason != ReasonGraceN {
			t.Fatalf("head packet: %+v", d)
		}
	}
	d := r.proxy.FlushEvent("plug")
	if d == nil || d.Verdict != Drop || d.Reason != ReasonNoHuman {
		t.Fatalf("flush decision = %+v", d)
	}
	if r.proxy.FlushEvent("plug") != nil {
		t.Fatal("second flush returned a decision")
	}
}

func TestClientAppLocalCost(t *testing.T) {
	c := NewClientApp(simclock.NewVirtual(), nil)
	warm := c.LocalCost(true)
	cold := c.LocalCost(false)
	if cold-warm != c.SensorSampling {
		t.Fatalf("cold-warm = %v, want sampling cost %v", cold-warm, c.SensorSampling)
	}
}

func TestClientAppUnboundApp(t *testing.T) {
	r := newRig(t, Config{})
	if _, err := r.app.Attest("com.unknown.app", r.gen.Human()); err == nil {
		t.Fatal("unbound app attested")
	}
}

func TestHandleAttestationRejectsGarbage(t *testing.T) {
	r := newRig(t, Config{})
	if _, err := r.proxy.HandleAttestation([]byte("junk")); err == nil {
		t.Fatal("garbage attestation accepted")
	}
	if r.proxy.Stats.AttestationsBad != 1 {
		t.Fatalf("bad-attestation counter = %d", r.proxy.Stats.AttestationsBad)
	}
}

// sharedValidator trains the humanness validator once for the whole test
// package; training dominates rig setup otherwise.
var (
	valOnce sync.Once
	valV    *sensors.Validator
	valGen  *sensors.Generator
	valErr  error
)

func sharedValidator() (*sensors.Validator, *sensors.Generator, error) {
	valOnce.Do(func() { valV, valGen, valErr = sensors.DefaultValidator(7) })
	return valV, valGen, valErr
}
