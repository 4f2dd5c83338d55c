package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

// diffDevices is the multi-device zoo the differential trace runs over:
// varied notification sizes and grace windows so every pipeline branch is
// exercised on several shard assignments.
var diffDevices = []struct {
	name   string
	size   int // manual-notification packet size
	graceN int
}{
	{"plug", 235, 1},
	{"cam", 600, 3},
	{"tv", 300, 2},
	{"light", 99, 1},
	{"thermo", 150, 5},
	{"speaker", 235, 4},
}

func diffRec(at time.Time, size int, cat flows.Category) flows.Record {
	return flows.Record{
		Time: at, Size: size, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: cloudIP, RemoteDomain: "cloud.example",
		LocalPort: 40000, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303,
		Category: cat,
	}
}

// buildDiffTrace composes the synthetic multi-device trace: bootstrap
// learning, predictable heartbeats, multi-packet unpredictable events
// (grace + non-manual), authorized and unauthorized manual commands,
// lockout, DAG-bypassed device-to-device traffic, and unknown devices.
func buildDiffTrace(start time.Time) []diffStep {
	var steps []diffStep
	at := start
	hb := func(i int) flows.Record { return diffRec(at, 128+i, flows.CategoryControl) }
	heartbeats := func() []PacketIn {
		var b []PacketIn
		for i, d := range diffDevices {
			b = append(b, PacketIn{Device: d.name, Rec: hb(i)})
		}
		return b
	}

	// Bootstrap: 6 one-minute beats learn each device's periodic flow.
	for i := 0; i < 6; i++ {
		steps = append(steps, diffStep{Advance: time.Minute, Batch: heartbeats()})
		at = at.Add(time.Minute)
	}

	step := func(adv time.Duration, s diffStep) {
		at = at.Add(adv)
		s.Advance = adv
		steps = append(steps, s)
	}

	// Post-bootstrap heartbeats: rule hits across all shards.
	step(time.Minute, diffStep{Batch: heartbeats()})

	// A burst of unknown-size packets per device at one instant: event
	// heads run through grace, the GraceN-th packet decides non-manual,
	// the tail follows the event verdict.
	rng := rand.New(rand.NewSource(42))
	var burst []PacketIn
	for i, d := range diffDevices {
		n := 2 + rng.Intn(6)
		for j := 0; j < n; j++ {
			burst = append(burst, PacketIn{Device: d.name, Rec: diffRec(at.Add(20*time.Second), 700+10*i+j, flows.CategoryAutomated)})
		}
	}
	// Interleave an unknown device: fails open.
	burst = append(burst, PacketIn{Device: "ghost", Rec: diffRec(at.Add(20*time.Second), 50, flows.CategoryUnknown)})
	step(20*time.Second, diffStep{Batch: burst, Flush: []string{"plug", "cam", "tv", "light", "thermo", "speaker"}})

	// Manual commands: plug and speaker attested (allowed), cam not
	// (dropped, first lockout strike).
	cmd := func(dev string, size int) PacketIn {
		return PacketIn{Device: dev, Rec: diffRec(at, size, flows.CategoryManual)}
	}
	step(20*time.Second, diffStep{
		Attest: []string{"plug", "speaker"},
		Batch: []PacketIn{
			cmd("plug", 235), cmd("speaker", 235), cmd("speaker", 235),
			cmd("speaker", 235), cmd("speaker", 235), cmd("cam", 600),
			cmd("cam", 600), cmd("cam", 600),
		},
		Flush: []string{"plug", "speaker", "cam"},
	})

	// Two more unauthorized cam commands 20 s apart: strikes 2 and 3 lock
	// the device; a fourth command observes ReasonLocked.
	step(20*time.Second, diffStep{Batch: []PacketIn{cmd("cam", 600), cmd("cam", 600), cmd("cam", 600)}, Flush: []string{"cam"}})
	step(20*time.Second, diffStep{Batch: []PacketIn{cmd("cam", 600), cmd("cam", 600), cmd("cam", 600)}, Flush: []string{"cam"}})
	step(20*time.Second, diffStep{Batch: []PacketIn{cmd("cam", 600)}, Flush: []string{"cam"}})

	// DAG traffic: Alexa -> light is allowed by rule, TV -> light falls
	// through to the pipeline.
	step(20*time.Second, diffStep{Batch: []PacketIn{
		{Device: "light", Rec: diffRec(at, 99, flows.CategoryManual), Peer: "Alexa"},
		{Device: "light", Rec: diffRec(at, 99, flows.CategoryManual), Peer: "TV"},
	}, Flush: []string{"light"}})

	// Mixed closing batch: heartbeats plus stragglers.
	step(time.Minute, diffStep{Batch: append(heartbeats(),
		PacketIn{Device: "ghost", Rec: diffRec(at, 51, flows.CategoryUnknown)},
		cmd("thermo", 777)), Flush: []string{"thermo"}})

	return steps
}

// diffProxy builds a proxy with the given shard count on the shared clock
// and keystore, with every differential device registered and the
// Alexa -> light DAG edge installed.
func diffProxy(t *testing.T, clock *simclock.VirtualClock, ks *keystore.Store, shards int) *Proxy {
	t.Helper()
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute, Shards: shards})
	for _, d := range diffDevices {
		if err := p.AddDevice(DeviceConfig{
			Name: d.name, Classifier: RuleClassifier{NotificationSize: d.size}, GraceN: d.graceN,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DAG().Allow("Alexa", "light"); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProcessBatchMatchesSequential replays one multi-device trace through
// the sequential Process path and through ProcessBatch at 1, 2, and 8
// shards, and requires identical per-packet decision sequences, audit logs,
// stats, and lockout states — the engine's determinism guarantee.
func TestProcessBatchMatchesSequential(t *testing.T) {
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(200)))
	if err != nil {
		t.Fatal(err)
	}
	phoneKS, err := keystore.New(rand.New(rand.NewSource(201)))
	if err != nil {
		t.Fatal(err)
	}
	offer, err := keystore.NewPairingOffer(ks, rand.New(rand.NewSource(202)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keystore.AcceptPairing(phoneKS, offer); err != nil {
		t.Fatal(err)
	}
	_, gen, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	app := NewClientApp(clock, phoneKS)
	for _, d := range diffDevices {
		app.BindApp("app."+d.name, d.name)
	}

	seq := diffProxy(t, clock, ks, 1)
	batched := map[int]*Proxy{
		1: diffProxy(t, clock, ks, 1),
		2: diffProxy(t, clock, ks, 2),
		8: diffProxy(t, clock, ks, 8),
	}

	steps := buildDiffTrace(clock.Now())
	var wantDecisions []Decision
	gotDecisions := map[int][]Decision{}
	for si, s := range steps {
		clock.Advance(s.Advance)
		for _, dev := range s.Attest {
			// One payload per device per step, replayed into every
			// proxy so the freshness windows coincide.
			payload, err := app.Attest("app."+dev, gen.Human())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := seq.HandleAttestation(payload); err != nil {
				t.Fatalf("step %d: seq attestation: %v", si, err)
			}
			for n, p := range batched {
				if _, err := p.HandleAttestation(payload); err != nil {
					t.Fatalf("step %d: %d-shard attestation: %v", si, n, err)
				}
			}
		}
		for _, pk := range s.Batch {
			wantDecisions = append(wantDecisions, seq.Process(pk.Device, pk.Rec, pk.Peer))
		}
		for n, p := range batched {
			gotDecisions[n] = append(gotDecisions[n], p.ProcessBatch(s.Batch)...)
		}
		for _, dev := range s.Flush {
			want := seq.FlushEvent(dev)
			for n, p := range batched {
				got := p.FlushEvent(dev)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: FlushEvent(%s) mismatch at %d shards: got %+v want %+v", si, dev, n, got, want)
				}
			}
		}
	}

	for n, got := range gotDecisions {
		if len(got) != len(wantDecisions) {
			t.Fatalf("%d shards: %d decisions, want %d", n, len(got), len(wantDecisions))
		}
		for i := range got {
			if got[i] != wantDecisions[i] {
				t.Fatalf("%d shards: decision %d = %+v, want %+v", n, i, got[i], wantDecisions[i])
			}
		}
	}
	wantLog := seq.Log()
	if len(wantLog) == 0 {
		t.Fatal("trace produced no audit entries; differential test is vacuous")
	}
	wantStats := seq.StatsSnapshot()
	if wantStats.Dropped == 0 || wantStats.RuleHits == 0 || wantStats.EventsManual == 0 {
		t.Fatalf("trace misses pipeline branches: %+v", wantStats)
	}
	for n, p := range batched {
		if got := p.Log(); !reflect.DeepEqual(got, wantLog) {
			t.Fatalf("%d shards: audit log diverges (got %d entries, want %d)", n, len(got), len(wantLog))
		}
		if got := p.StatsSnapshot(); got != wantStats {
			t.Fatalf("%d shards: stats %+v, want %+v", n, got, wantStats)
		}
		for _, d := range diffDevices {
			if got, want := p.Locked(d.name), seq.Locked(d.name); got != want {
				t.Fatalf("%d shards: Locked(%s)=%v, want %v", n, d.name, got, want)
			}
		}
	}
	if !seq.Locked("cam") {
		t.Fatal("trace did not exercise the lockout path")
	}
}
