package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"fiat/internal/events"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/ml"
	"fiat/internal/obs"
	"fiat/internal/simclock"
)

// trainDiffClassifier fits the deployment model (BernoulliNB behind
// TrainMLClassifier) on a seeded manual/automated/control corpus shaped like
// the rest of the core tests: manual = inbound TLS command, control =
// outbound UDP heartbeat, automated = inbound TLS telemetry on another port.
func trainDiffClassifier(t *testing.T, seed int64) *MLClassifier {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var training []*events.Event
	base := simclock.Epoch
	for i := 0; i < 60; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		m := []flows.Record{{
			Time: at, Size: 400 + rng.Intn(300), Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudIP, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303,
			Category: flows.CategoryManual,
		}}
		c := []flows.Record{{
			Time: at.Add(20 * time.Second), Size: 80 + rng.Intn(100), Proto: "udp", Dir: flows.DirOutbound,
			RemoteIP: cloudIP, RemotePort: 8801, Category: flows.CategoryControl,
		}}
		a := []flows.Record{{
			Time: at.Add(40 * time.Second), Size: 200 + rng.Intn(80), Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudIP, RemotePort: 8883, TCPFlags: 0x10, TLSVersion: 0x0303,
			Category: flows.CategoryAutomated,
		}}
		training = append(training,
			events.Group(m, 0)[0], events.Group(c, 0)[0], events.Group(a, 0)[0])
	}
	clf, err := TrainMLClassifier(training, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clf.Compiled() == nil {
		t.Fatal("deployment model (BernoulliNB) did not compile")
	}
	return clf
}

// serialModel hides a trained model from AddDevice's compile step: the
// device classifies through MLClassifier.IsManual, the serialized path that
// uncompilable model families deploy on.
type serialModel struct{ *MLClassifier }

// TestCompiledClassifierMatchesLegacyDifferential replays seeded
// multi-device traces through a reference proxy whose devices classify
// through the serialized extract→Transform→Predict path (the trained model
// behind serialModel) and a proxy on the per-shard compiled inference
// engines. Verdicts, flush decisions, stats, audit logs and lockout states
// must be identical, and the obs snapshots may differ only in the
// classifier-compile counter — the compiled engine is only admissible as a
// faithful drop-in.
func TestCompiledClassifierMatchesLegacyDifferential(t *testing.T) {
	for _, seed := range []int64{7, 31, 59} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clock := simclock.NewVirtual()
			ks, app := pairedTraceApp(t, clock, 600+seed, 700+seed, 800+seed)
			validator, gen, err := sharedValidator()
			if err != nil {
				t.Fatal(err)
			}
			trained := trainDiffClassifier(t, seed)

			build := func(clf EventClassifier) *Proxy {
				p := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute, Shards: 4})
				for _, d := range diffDevices {
					if err := p.AddDevice(DeviceConfig{Name: d.name, Classifier: clf, GraceN: d.graceN}); err != nil {
						t.Fatal(err)
					}
				}
				return p
			}
			legacy, compiled := build(serialModel{trained}), build(trained)

			// The arms must actually differ in engine: the compiled arm's
			// devices carry per-shard compiled classifiers, the reference
			// arm's run the serialized model.
			for _, d := range diffDevices {
				ld := legacy.shardFor(d.name).devices[d.name]
				cd := compiled.shardFor(d.name).devices[d.name]
				if _, ok := cd.classifier.(*compiledEventClassifier); !ok {
					t.Fatalf("%s: compiled arm classifier is %T, want *compiledEventClassifier", d.name, cd.classifier)
				}
				if _, ok := ld.classifier.(serialModel); !ok {
					t.Fatalf("%s: reference arm classifier is %T, want serialModel", d.name, ld.classifier)
				}
			}

			var legacyDecisions, compiledDecisions []Decision
			for si, s := range buildSeededTrace(clock.Now(), rand.New(rand.NewSource(seed))) {
				clock.Advance(s.Advance)
				for _, dev := range s.Attest {
					payload, err := app.Attest("app."+dev, gen.Human())
					if err != nil {
						t.Fatal(err)
					}
					if _, err := legacy.HandleAttestation(payload); err != nil {
						t.Fatalf("step %d: legacy attestation: %v", si, err)
					}
					if _, err := compiled.HandleAttestation(payload); err != nil {
						t.Fatalf("step %d: compiled attestation: %v", si, err)
					}
				}
				legacyDecisions = append(legacyDecisions, legacy.ProcessBatch(s.Batch)...)
				compiledDecisions = append(compiledDecisions, compiled.ProcessBatch(s.Batch)...)
				for _, dev := range s.Flush {
					lw, cw := legacy.FlushEvent(dev), compiled.FlushEvent(dev)
					if !reflect.DeepEqual(lw, cw) {
						t.Fatalf("step %d: FlushEvent(%s): legacy %+v, compiled %+v", si, dev, lw, cw)
					}
				}
			}

			if len(legacyDecisions) != len(compiledDecisions) {
				t.Fatalf("decision counts differ: legacy %d, compiled %d", len(legacyDecisions), len(compiledDecisions))
			}
			for i := range legacyDecisions {
				if legacyDecisions[i] != compiledDecisions[i] {
					t.Fatalf("decision %d: legacy %+v, compiled %+v", i, legacyDecisions[i], compiledDecisions[i])
				}
			}
			wantStats := legacy.StatsSnapshot()
			if wantStats.EventsManual+wantStats.EventsNonManual == 0 || wantStats.Packets < 50 {
				t.Fatalf("trace misses the classification path: %+v", wantStats)
			}
			if got := compiled.StatsSnapshot(); got != wantStats {
				t.Fatalf("stats diverge:\ncompiled %+v\nlegacy   %+v", got, wantStats)
			}
			if got, want := compiled.Log(), legacy.Log(); !reflect.DeepEqual(got, want) {
				t.Fatalf("audit logs diverge (compiled %d entries, legacy %d)", len(got), len(want))
			}
			for _, d := range diffDevices {
				if got, want := compiled.Locked(d.name), legacy.Locked(d.name); got != want {
					t.Fatalf("Locked(%s): compiled %v, legacy %v", d.name, got, want)
				}
			}
			// Only the compiled arm compiles a classifier, once per device.
			gotLines := strings.Split(compiled.Metrics().Snapshot(), "\n")
			wantLines := strings.Split(legacy.Metrics().Snapshot(), "\n")
			if len(gotLines) != len(wantLines) {
				t.Fatalf("obs snapshots differ in length: compiled %d lines, legacy %d", len(gotLines), len(wantLines))
			}
			var diffs []string
			for i := range gotLines {
				if gotLines[i] != wantLines[i] {
					diffs = append(diffs, fmt.Sprintf("compiled %q, legacy %q", gotLines[i], wantLines[i]))
				}
			}
			wantDiff := fmt.Sprintf("compiled %q, legacy %q",
				fmt.Sprintf("fiat_core_classifier_compiles_total %d", len(diffDevices)),
				"fiat_core_classifier_compiles_total 0")
			if len(diffs) != 1 || diffs[0] != wantDiff {
				t.Fatalf("obs snapshots differ beyond the classifier-compile counter:\n%s", strings.Join(diffs, "\n"))
			}
		})
	}
}

// TestCompiledClassifyZeroAllocs pins the acceptance guarantee: the frozen
// extract→scale→infer path of the deployment model (BernoulliNB) performs
// zero heap allocations per event classification.
func TestCompiledClassifyZeroAllocs(t *testing.T) {
	trained := trainDiffClassifier(t, 5)
	clf := trained.CompiledEventClassifier()
	if clf == nil {
		t.Fatal("no compiled classifier")
	}
	ev := events.Group([]flows.Record{{
		Time: simclock.Epoch, Size: 500, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: cloudIP, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303,
	}, {
		Time: simclock.Epoch.Add(50 * time.Millisecond), Size: 520, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: cloudIP, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303,
	}}, 0)[0]
	var sink bool
	clf.IsManual(ev) // warm-up
	if allocs := testing.AllocsPerRun(300, func() { sink = clf.IsManual(ev) }); allocs != 0 {
		t.Fatalf("compiled IsManual allocates %v/op, want 0", allocs)
	}
	_ = sink
	// And it agrees with the legacy serialized path.
	if clf.IsManual(ev) != trained.IsManual(ev) {
		t.Fatal("compiled and legacy classification disagree")
	}
}

// TestTrainMLClassifierDeterministic: training plus compilation is bit-stable
// across repeated runs with the same seed — same scaler, same predictions on
// both the legacy and compiled paths.
func TestTrainMLClassifierDeterministic(t *testing.T) {
	a := trainDiffClassifier(t, 13)
	b := trainDiffClassifier(t, 13)
	if !reflect.DeepEqual(a.scaler, b.scaler) {
		t.Fatal("scalers differ across identical training runs")
	}
	ca, cb := a.CompiledEventClassifier(), b.CompiledEventClassifier()
	rng := rand.New(rand.NewSource(99))
	base := simclock.Epoch
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(6)
		recs := make([]flows.Record, n)
		at := base
		for j := range recs {
			proto, dir, port := "tcp", flows.DirInbound, uint16(443)
			if rng.Intn(2) == 0 {
				proto, dir, port = "udp", flows.DirOutbound, uint16(8801)
			}
			at = at.Add(time.Duration(rng.Intn(900)) * time.Millisecond)
			recs[j] = flows.Record{
				Time: at, Size: 60 + rng.Intn(700), Proto: proto, Dir: dir,
				RemoteIP: cloudIP, RemotePort: port,
				TCPFlags: uint8(rng.Intn(64)), TLSVersion: 0x0303,
			}
		}
		ev := events.Group(recs, 0)[0]
		la, lb := a.IsManual(ev), b.IsManual(ev)
		if la != lb {
			t.Fatalf("event %d: legacy predictions differ across runs", i)
		}
		if got := ca.IsManual(ev); got != la {
			t.Fatalf("event %d: compiled run A %v, legacy %v", i, got, la)
		}
		if got := cb.IsManual(ev); got != la {
			t.Fatalf("event %d: compiled run B %v, legacy %v", i, got, la)
		}
	}
}

// TestUncompilableFamilyFallsBackToLegacy: a trained model whose family the
// compiler rejects (GaussianNB, like every Table 2 family but BernoulliNB
// and NearestCentroid) deploys with compiled == nil, and AddDevice leaves
// the device's classifier on the MLClassifier itself.
func TestUncompilableFamilyFallsBackToLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var training []*events.Event
	for i := 0; i < 30; i++ {
		at := simclock.Epoch.Add(time.Duration(i) * time.Minute)
		training = append(training, events.Group([]flows.Record{{
			Time: at, Size: 400 + rng.Intn(300), Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudIP, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303,
			Category: flows.CategoryManual,
		}}, 0)[0], events.Group([]flows.Record{{
			Time: at.Add(20 * time.Second), Size: 80, Proto: "udp", Dir: flows.DirOutbound,
			RemoteIP: cloudIP, RemotePort: 8801, Category: flows.CategoryControl,
		}}, 0)[0])
	}
	trained, err := TrainMLClassifier(training, func() ml.Classifier { return &ml.GaussianNB{} })
	if err != nil {
		t.Fatal(err)
	}
	if trained.Compiled() != nil {
		t.Fatal("GaussianNB unexpectedly compiled")
	}
	if trained.CompiledEventClassifier() != nil {
		t.Fatal("CompiledEventClassifier for an uncompiled model must be nil")
	}
	var nilClf *MLClassifier
	if nilClf.CompiledEventClassifier() != nil {
		t.Fatal("nil MLClassifier must yield a nil compiled classifier")
	}

	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, Config{Bootstrap: time.Minute, Shards: 2})
	if err := p.AddDevice(DeviceConfig{Name: "cam", Classifier: trained, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	ds := p.shardFor("cam").devices["cam"]
	if _, ok := ds.classifier.(*compiledEventClassifier); ok {
		t.Fatal("uncompilable model wrongly got a compiled engine")
	}
	if ds.classifier != EventClassifier(trained) {
		t.Fatalf("fallback classifier is %T, want the MLClassifier itself", ds.classifier)
	}
	// The fallback really classifies: manual and control training events
	// land on their own sides.
	if !ds.classifier.IsManual(training[0]) || ds.classifier.IsManual(training[1]) {
		t.Fatal("fallback classifier mislabels its training events")
	}
}

// TestMetricsWithoutClockObserveZero: a metrics registry wired without a time
// source records deterministic zero latency observations on both the match
// and infer histograms instead of panicking or skipping them.
func TestMetricsWithoutClockObserveZero(t *testing.T) {
	m := newCoreMetrics(obs.NewRegistry(), nil)
	start := m.matchStart()
	if !start.IsZero() {
		t.Fatal("matchStart without a clock must return the zero time")
	}
	m.matchDone(start)
	m.inferDone(start)
	snap := m.reg.Snapshot()
	for _, h := range []string{"fiat_core_rule_match_ns", "fiat_core_classify_infer_ns"} {
		if !strings.Contains(snap, h) {
			t.Fatalf("snapshot missing %s:\n%s", h, snap)
		}
	}
}
