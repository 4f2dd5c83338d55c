package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"fiat/internal/core"
	"fiat/internal/events"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/obs"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
)

// The soak differential drives a full-proxy world — learned heartbeat rules,
// compiled event classifiers, audit log, metrics — through the sequential
// engine and the batched engine in lockstep on virtual clocks, with
// randomized mixed traffic, and requires byte-identical decisions, encoded
// state, and metrics snapshots.

var soakCloudIP = netip.AddrFrom4([4]byte{52, 10, 0, 9})

// The humanness validator and the deployment event classifier each train
// once per process; every soak world shares them (the proxy clones compiled
// engines per device, so sharing the trained model is safe).
var (
	soakOnce sync.Once
	soakVal  *sensors.Validator
	soakClf  *core.MLClassifier
	soakErr  error
)

// soakModels trains the validator and the deployment model (BernoulliNB
// behind core.TrainMLClassifier) on the manual/control/automated corpus
// shape the rest of the benches use, so the telemetry probe classifies
// non-manual and the model compiles into the zero-allocation engine.
func soakModels(t *testing.T) (*sensors.Validator, *core.MLClassifier) {
	t.Helper()
	soakOnce.Do(func() {
		if soakVal, _, soakErr = sensors.DefaultValidator(1); soakErr != nil {
			return
		}
		rng := rand.New(rand.NewSource(5))
		var training []*events.Event
		for i := 0; i < 60; i++ {
			at := simclock.Epoch.Add(time.Duration(i) * time.Minute)
			m := []flows.Record{{
				Time: at, Size: 400 + rng.Intn(300), Proto: "tcp", Dir: flows.DirInbound,
				RemoteIP: soakCloudIP, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303,
				Category: flows.CategoryManual,
			}}
			c := []flows.Record{{
				Time: at.Add(20 * time.Second), Size: 80 + rng.Intn(100), Proto: "udp", Dir: flows.DirOutbound,
				RemoteIP: soakCloudIP, RemotePort: 8801, Category: flows.CategoryControl,
			}}
			a := []flows.Record{{
				Time: at.Add(40 * time.Second), Size: 200 + rng.Intn(80), Proto: "tcp", Dir: flows.DirInbound,
				RemoteIP: soakCloudIP, RemotePort: 8883, TCPFlags: 0x10, TLSVersion: 0x0303,
				Category: flows.CategoryAutomated,
			}}
			training = append(training,
				events.Group(m, 0)[0], events.Group(c, 0)[0], events.Group(a, 0)[0])
		}
		soakClf, soakErr = core.TrainMLClassifier(training, nil)
		if soakErr == nil && soakClf.Compiled() == nil {
			soakErr = fmt.Errorf("deployment model did not compile")
		}
	})
	if soakErr != nil {
		t.Fatal(soakErr)
	}
	return soakVal, soakClf
}

// soakWorld is one prepared proxy arm: rule devices with a learned one-minute
// heartbeat and ML devices wearing the compiled classifier.
type soakWorld struct {
	clock   *simclock.VirtualClock
	reg     *obs.Registry
	proxy   *core.Proxy
	devices []string // rule devices first, then ML devices
	nRule   int
	dst     []core.Decision
}

func soakHeartbeat(dev string, at time.Time) core.PacketIn {
	return core.PacketIn{Device: dev, Rec: flows.Record{
		Time: at, Size: 180, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: soakCloudIP, RemoteDomain: "cloud.example",
		LocalPort: 40000, RemotePort: 443,
	}}
}

func soakTelemetry(dev string, at time.Time) core.PacketIn {
	return core.PacketIn{Device: dev, Rec: flows.Record{
		Time: at, Size: 230, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: soakCloudIP, RemoteDomain: "cloud.example",
		LocalPort: 41000, RemotePort: 8883, TCPFlags: 0x10, TLSVersion: 0x0303,
	}}
}

// decide runs one batch built by mk over devs; unless want is empty, every
// decision must carry that reason.
func (w *soakWorld) decide(t *testing.T, devs []string, mk func(string, time.Time) core.PacketIn, at time.Time, want core.Reason) {
	t.Helper()
	batch := make([]core.PacketIn, len(devs))
	for i, dev := range devs {
		batch[i] = mk(dev, at)
	}
	w.dst = w.proxy.ProcessBatchInto(batch, w.dst)
	for i, d := range w.dst {
		if want != "" && d.Reason != want {
			t.Fatalf("warm-up packet %d (%s): %+v, want %s", i, devs[i], d, want)
		}
	}
}

// newSoakWorld builds one arm and walks it to the rule-hit steady state:
// learn a one-minute heartbeat through bootstrap, freeze and compile on the
// first post-bootstrap batch, and warm the event path.
func newSoakWorld(t *testing.T, seed int64, shards, ruleDevices, mlDevices int) *soakWorld {
	t.Helper()
	validator, clf := soakModels(t)
	ks, err := keystore.New(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	w := &soakWorld{clock: simclock.NewVirtual(), reg: obs.NewRegistry(), nRule: ruleDevices}
	w.proxy = core.NewProxy(w.clock, ks, validator, core.Config{
		Bootstrap: 5 * time.Minute, Shards: shards, Obs: w.reg,
	})
	for i := 0; i < ruleDevices+mlDevices; i++ {
		dc := core.DeviceConfig{Name: fmt.Sprintf("plug%03d", i), Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 2}
		if i >= ruleDevices {
			dc = core.DeviceConfig{Name: fmt.Sprintf("cam%02d", i-ruleDevices), Classifier: clf, GraceN: 1}
		}
		if err := w.proxy.AddDevice(dc); err != nil {
			t.Fatal(err)
		}
		w.devices = append(w.devices, dc.Name)
	}

	hbAt := w.clock.Now()
	for i := 0; i < 4; i++ {
		w.decide(t, w.devices, soakHeartbeat, hbAt, "")
		w.clock.Advance(time.Minute)
		hbAt = hbAt.Add(time.Minute)
	}
	// Past bootstrap: the first batch freezes + compiles every device and
	// must already rule-hit (it lands exactly one period after the last
	// learned beat).
	w.clock.Advance(time.Minute)
	w.decide(t, w.devices, soakHeartbeat, hbAt, core.ReasonRuleHit)
	evAt := hbAt.Add(time.Hour)
	for i := 0; i < 8; i++ {
		w.decide(t, w.devices[ruleDevices:], soakTelemetry, evAt, core.ReasonNonManual)
		evAt = evAt.Add(time.Minute)
	}
	return w
}

// TestSoakDifferential drives randomized mixed traffic — on-period
// heartbeats, missed beats, telemetry events, manual-shaped packets, bursts —
// through a sequential arm and a batched arm in lockstep on virtual
// clocks, and requires byte-identical decisions, encoded state, and metrics
// snapshots across three seeds.
func TestSoakDifferential(t *testing.T) {
	const steps = 40
	for _, seed := range []int64{7, 8, 9} {
		seq := newSoakWorld(t, seed, 1, 8, 4)
		ring := newSoakWorld(t, seed, 4, 8, 4)

		// One rng drives the trace; both arms replay the identical batches
		// at identical virtual instants.
		rng := rand.New(rand.NewSource(seed * 1013))
		var batch []core.PacketIn
		for step := 0; step < steps; step++ {
			at := seq.clock.Now().Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
			batch = batch[:0]
			for i, dev := range seq.devices {
				switch rng.Intn(8) {
				case 0: // quiet device this step
				case 1, 2:
					batch = append(batch, soakHeartbeat(dev, at))
				case 3, 4, 5:
					batch = append(batch, soakTelemetry(dev, at))
				case 6: // manual-shaped: rule devices by notification size,
					// ML devices by command-push features — drops without an
					// attestation, exercising lockout counters.
					pk := soakTelemetry(dev, at)
					if i >= seq.nRule {
						pk.Rec.Size = 520
						pk.Rec.RemotePort = 443
						pk.Rec.TCPFlags = 0x18
					} else {
						pk.Rec.Size = 235
					}
					batch = append(batch, pk)
				default: // burst: two packets of one flow in the same batch
					batch = append(batch, soakTelemetry(dev, at),
						soakTelemetry(dev, at.Add(40*time.Millisecond)))
				}
			}
			want := append([]core.Decision(nil), seq.proxy.ProcessBatch(batch)...)
			got := ring.proxy.ProcessBatch(batch)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d packet %d: ring decided %+v, sequential %+v", seed, step, i, got[i], want[i])
				}
			}
			d := time.Duration(5+rng.Intn(10)) * time.Second
			seq.clock.Advance(d)
			ring.clock.Advance(d)
		}
		if !bytes.Equal(ring.proxy.EncodeState(), seq.proxy.EncodeState()) {
			t.Fatalf("seed %d: encoded state diverges from sequential", seed)
		}
		if ring.reg.Snapshot() != seq.reg.Snapshot() {
			t.Fatalf("seed %d: metrics snapshot diverges from sequential", seed)
		}
		if s := seq.proxy.StatsSnapshot(); s.RuleHits == 0 || s.EventsManual == 0 || s.EventsNonManual == 0 {
			t.Fatalf("seed %d: trace misses pipeline branches: %+v", seed, s)
		}
	}
}
