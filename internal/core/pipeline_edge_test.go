package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fiat/internal/events"
	"fiat/internal/flows"
	"fiat/internal/ml"
	"fiat/internal/simclock"
)

// TestAsyncPendingHoldMergesThroughArena: a degraded-mode hold produced
// on the batched path must be committed through the outcome arena's
// merge (the sequential path commits holds on its own), and a later
// attestation must admit only the attested device's holds, keeping the
// other device's in the queue.
func TestAsyncPendingHoldMergesThroughArena(t *testing.T) {
	r := newRig(t, Config{PendingWindow: 20 * time.Second, Shards: 2})
	for _, dev := range []string{"plug", "plug2"} {
		if err := r.proxy.AddDevice(DeviceConfig{Name: dev, Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
			t.Fatal(err)
		}
		r.feedHeartbeats(t, dev, 25, time.Minute)
	}

	if out := r.proxy.ProcessBatchInto(nil, nil); len(out) != 0 {
		t.Fatalf("empty batch produced %d decisions", len(out))
	}

	batch := []PacketIn{
		{Device: "plug", Rec: mkRec(r.clock.Now(), 235, flows.CategoryManual)},
		{Device: "plug2", Rec: mkRec(r.clock.Now(), 235, flows.CategoryManual)},
	}
	ds := r.proxy.ProcessBatchInto(batch, nil)
	for i, d := range ds {
		if d.Verdict != Drop || d.Reason != ReasonPendingHold {
			t.Fatalf("unattested manual batch packet %d = %+v, want held drop", i, d)
		}
	}
	if n := r.proxy.PendingDepth(); n != 2 {
		t.Fatalf("PendingDepth = %d, want 2", n)
	}

	// An attestation for plug admits plug's hold and must keep plug2's.
	r.clock.Advance(5 * time.Second)
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
	if n := r.proxy.PendingDepth(); n != 1 {
		t.Fatalf("PendingDepth after admission = %d, want plug2's hold kept (1)", n)
	}
}

// TestAsyncWorkerEventsMatchSequential decides events on the batched body:
// camA's three time-gapped events, plus camE and camC on two different
// trained models, all in one batch. Decisions, the audit log, stats and the
// obs snapshot must equal those of a Shards = 1 proxy fed the same batch.
func TestAsyncWorkerEventsMatchSequential(t *testing.T) {
	t1 := trainDiffClassifier(t, 5)
	t2 := trainDiffClassifier(t, 6)
	devices := []struct {
		name string
		clf  *MLClassifier
	}{{"camA", t1}, {"camE", t2}, {"camC", t1}}
	arm := func(shards int) *testRig {
		r := newRig(t, Config{Shards: shards})
		for _, d := range devices {
			if err := r.proxy.AddDevice(DeviceConfig{Name: d.name, Classifier: d.clf, GraceN: 1}); err != nil {
				t.Fatal(err)
			}
			if _, ok := r.proxy.devices[d.name].classifier.(*compiledEventClassifier); !ok {
				t.Fatalf("%s does not wear a compiled classifier", d.name)
			}
		}
		// Step past bootstrap so decision points fire.
		r.feedHeartbeats(t, "camA", 25, time.Minute)
		return r
	}
	seq, batched := arm(1), arm(2)

	now := seq.clock.Now()
	telemetry := func(dev string, at time.Time) PacketIn {
		return PacketIn{Device: dev, Rec: flows.Record{
			Time: at, Size: 230, Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudIP, RemoteDomain: "cloud.example",
			LocalPort: 41000, RemotePort: 8883, TCPFlags: 0x10, TLSVersion: 0x0303,
		}}
	}
	batch := []PacketIn{
		telemetry("camA", now),
		telemetry("camE", now),
		telemetry("camC", now),
		telemetry("camA", now.Add(time.Hour)),
		telemetry("camA", now.Add(2*time.Hour)),
	}
	want := seq.proxy.ProcessBatchInto(batch, nil)
	got := batched.proxy.ProcessBatchInto(batch, nil)
	if batched.proxy.batcher.out == nil {
		t.Fatal("batched arm never ran the batched body")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions: batched %+v, seq %+v", got, want)
	}
	for i, d := range got {
		if d.Verdict != Allow {
			t.Fatalf("telemetry packet %d = %+v, want allow", i, d)
		}
	}
	st := batched.proxy.StatsSnapshot()
	if st.EventsNonManual != 5 {
		t.Fatalf("EventsNonManual = %d, want 5 (one per event)", st.EventsNonManual)
	}
	if wantSt := seq.proxy.StatsSnapshot(); st != wantSt {
		t.Fatalf("stats: batched %+v, seq %+v", st, wantSt)
	}
	if gotLog, wantLog := batched.proxy.Log(), seq.proxy.Log(); !reflect.DeepEqual(gotLog, wantLog) {
		t.Fatalf("audit log: batched %+v, seq %+v", gotLog, wantLog)
	}
	if gotSnap, wantSnap := batched.proxy.Metrics().Snapshot(), seq.proxy.Metrics().Snapshot(); gotSnap != wantSnap {
		t.Fatalf("obs snapshot diverges:\n%s", firstDiffLine(gotSnap, wantSnap))
	}
}

// failingClassifier is a stub estimator whose training always fails.
type failingClassifier struct{}

func (failingClassifier) Fit([][]float64, []int) error { return fmt.Errorf("stub: fit failed") }
func (failingClassifier) Predict(X [][]float64) []int  { return make([]int, len(X)) }

// TestProxySmallSurfaces sweeps the small accessor and error paths that no
// scenario exercises: the engine Config.Shards selects, duplicate alias
// registration, unknown devices, empty device names, the lazily-created
// audit-reason counter, DAG reachability edges, the outage-history bound,
// and classifier training failure.
func TestProxySmallSurfaces(t *testing.T) {
	// The default config decides batches on the batched body; Shards = 1
	// decides them through Process and never touches the arena.
	ghost := []PacketIn{{Device: "ghost"}}
	if seq := newRig(t, Config{Shards: 1}); seq.proxy.ProcessBatch(ghost)[0].Verdict != Allow || seq.proxy.batcher.out != nil {
		t.Fatal("Shards = 1 did not decide the batch through Process")
	}
	r := newRig(t, Config{})
	if r.proxy.ProcessBatch(ghost)[0].Verdict != Allow || r.proxy.batcher.out == nil {
		t.Fatal("the default config did not decide the batch on the batched body")
	}
	if err := r.proxy.AddDevice(DeviceConfig{}); err == nil {
		t.Fatal("nameless device accepted")
	}
	r.proxy.RegisterPairingAlias("phone-2")
	r.proxy.RegisterPairingAlias("phone-2") // duplicate: must not double-register
	if _, ok := r.proxy.RuleKeys("ghost"); ok {
		t.Fatal("rules reported for unknown device")
	}
	if d := r.proxy.FlushEvent("ghost"); d != nil {
		t.Fatalf("FlushEvent on unknown device = %+v, want nil", d)
	}

	// An audit entry with a reason outside the pre-registered set creates
	// its counter lazily — and only once.
	r.proxy.metrics.noteEntry(&LogEntry{Reason: "test-odd-reason"})
	r.proxy.metrics.noteEntry(&LogEntry{Reason: "test-odd-reason"})
	if snap := r.proxy.Metrics().Snapshot(); !strings.Contains(snap, `reason="test-odd-reason"`) {
		t.Fatal("lazy reason counter missing from snapshot")
	}

	// DAG: a cycle is detected through a multi-hop walk; the self-reachable
	// short-circuit is the defensive base case of the same walk.
	dag := r.proxy.DAG()
	if err := dag.Allow("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := dag.Allow("b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := dag.Allow("c", "a"); err == nil {
		t.Fatal("cycle accepted")
	}
	dag.mu.Lock()
	if !dag.reachableLocked("a", "a") {
		t.Fatal("self not reachable")
	}
	dag.mu.Unlock()

	// Outage history is bounded: churn the channel past the cap.
	for i := 0; i < 80; i++ {
		r.proxy.AttestationChannelDown()
		r.clock.Advance(time.Second)
		r.proxy.AttestationChannelUp()
		r.clock.Advance(time.Second)
	}

	// Training with a broken estimator surfaces the fit error.
	var training []*events.Event
	for i := 0; i < 4; i++ {
		at := r.clock.Now().Add(time.Duration(i) * time.Minute)
		training = append(training, events.Group([]flows.Record{
			mkRec(at, 200+i*10, flows.CategoryAutomated),
		}, 0)[0])
	}
	if _, err := TrainMLClassifier(training, func() ml.Classifier { return failingClassifier{} }); err == nil {
		t.Fatal("failing estimator trained successfully")
	}
}

// TestProxyRestoreTruncationSweep feeds every strict prefix of a populated
// state image to RestoreState: each must fail closed (no prefix may decode
// as a complete image), and none may panic. This sweeps the truncation
// branch of every section decoder. Each prefix restores into a fresh proxy
// configured like the source, built over the source's keystore and
// validator so no prefix pays for a pairing.
func TestProxyRestoreTruncationSweep(t *testing.T) {
	clf := trainDiffClassifier(t, 3)
	src := buildStateRig(t, 1, clf)
	src.populateState(t)
	enc := src.proxy.EncodeState()
	if len(enc) < 100 {
		t.Fatalf("state image implausibly small: %d bytes", len(enc))
	}
	target := func() *Proxy {
		p := NewProxy(simclock.NewVirtual(), src.proxy.ks, src.proxy.human, stateRigConfig(1))
		if err := p.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
			t.Fatal(err)
		}
		if err := p.AddDevice(DeviceConfig{Name: "cam", Classifier: clf, GraceN: 1}); err != nil {
			t.Fatal(err)
		}
		if err := p.DAG().Allow("hub", "plug"); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := target().RestoreState(append([]byte(nil), enc...)); err != nil {
		t.Fatalf("the whole image does not restore into a target: %v", err)
	}
	for l := 0; l < len(enc); l++ {
		if err := target().RestoreState(enc[:l]); err == nil {
			t.Fatalf("truncated image of %d/%d bytes accepted", l, len(enc))
		}
	}
}
