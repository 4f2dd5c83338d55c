package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

// TestShardedProxyConcurrencyStress hammers every externally synchronized
// entry point of the batched engine from many goroutines at once — the
// packet paths (Process, ProcessBatch, FlushEvent), the attestation path
// mutating the shared freshness window, and the control-plane readers and
// writers (Locked/Unlock around the lockout counters, Log, StatsSnapshot,
// Rules, DAG edits). Concurrent ProcessBatch callers serialize on the
// device mutex, and single-packet Process and FlushEvent interleave between
// their batches. Run under -race it checks that arena reuse across callers
// publishes correctly; without -race it still checks the merged counters
// balance.
func TestShardedProxyConcurrencyStress(t *testing.T) {
	runProxyConcurrencyStress(t, 8)
}

// TestAsyncProxyConcurrencyStress is the same hammer on a Shards = 1 proxy,
// where concurrent ProcessBatch callers run the Process loop against each
// other and against the single-packet and control-plane callers, taking
// the device mutex once per packet.
func TestAsyncProxyConcurrencyStress(t *testing.T) {
	runProxyConcurrencyStress(t, 1)
}

func runProxyConcurrencyStress(t *testing.T, shards int) {
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(300)))
	if err != nil {
		t.Fatal(err)
	}
	phoneKS, err := keystore.New(rand.New(rand.NewSource(301)))
	if err != nil {
		t.Fatal(err)
	}
	offer, err := keystore.NewPairingOffer(ks, rand.New(rand.NewSource(302)))
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
	proxy := NewProxy(clock, ks, validator, Config{
		Bootstrap: time.Minute,
		// Tight lockout so the drop/lock/unlock shared state churns.
		LockoutThreshold: 2, LockoutWindow: time.Hour,
		Shards: shards,
	})
	const devices = 16
	trained := trainDiffClassifier(t, 11)
	names := make([]string, devices)
	for i := range names {
		names[i] = fmt.Sprintf("dev%02d", i)
		dc := DeviceConfig{Name: names[i], Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1 + i%4}
		if i%3 == 0 {
			// A third of the zoo wears the compiled model, so compiled
			// event classification runs under the race detector too.
			dc.Classifier = trained
		}
		if err := proxy.AddDevice(dc); err != nil {
			t.Fatal(err)
		}
	}
	app := NewClientApp(clock, phoneKS)
	for _, n := range names {
		app.BindApp("app."+n, n)
	}
	// One pre-built attestation per device: the stress loop replays them,
	// exercising the validation store without re-sampling the sensor RNG
	// concurrently.
	payloads := make([][]byte, devices)
	for i, n := range names {
		payloads[i], err = app.Attest("app."+n, gen.Human())
		if err != nil {
			t.Fatal(err)
		}
	}
	// End bootstrap so packets take the full pipeline.
	clock.Advance(2 * time.Minute)

	rec := func(rng *rand.Rand, now time.Time) flows.Record {
		size := 235
		switch rng.Intn(3) {
		case 1:
			size = 128
		case 2:
			size = 600 + rng.Intn(50)
		}
		cat := flows.CategoryManual
		if size != 235 {
			cat = flows.CategoryAutomated
		}
		return diffRec(now, size, cat)
	}

	const (
		workers = 8
		iters   = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			now := clock.Now()
			for i := 0; i < iters; i++ {
				dev := names[rng.Intn(devices)]
				switch w % 4 {
				case 0: // single-packet path
					proxy.Process(dev, rec(rng, now), "")
					if i%17 == 0 {
						proxy.FlushEvent(dev)
					}
				case 1: // batched path, mixed devices incl. unknown
					batch := make([]PacketIn, 0, 8)
					for j := 0; j < 4+rng.Intn(5); j++ {
						d := names[rng.Intn(devices)]
						if j == 0 && i%13 == 0 {
							d = "ghost"
						}
						batch = append(batch, PacketIn{Device: d, Rec: rec(rng, now)})
					}
					proxy.ProcessBatch(batch)
				case 2: // attestation freshness and lockout shared state
					if _, err := proxy.HandleAttestation(payloads[rng.Intn(devices)]); err != nil {
						t.Errorf("attestation: %v", err)
						return
					}
					if rng.Intn(3) == 0 {
						proxy.Unlock(dev)
					}
					proxy.Locked(dev)
				default: // control-plane readers + DAG churn
					proxy.StatsSnapshot()
					if i%29 == 0 {
						proxy.Log()
					}
					proxy.RuleKeys(dev)
					proxy.Bootstrapped()
					from, to := names[rng.Intn(devices)], names[rng.Intn(devices)]
					if from != to && proxy.DAG().Allow(from, to) == nil {
						proxy.DAG().Revoke(from, to)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	s := proxy.StatsSnapshot()
	if s.Packets == 0 || s.AttestationsOK == 0 {
		t.Fatalf("stress made no progress: %+v", s)
	}
	// Every packet contributes exactly one allowed/dropped count; event
	// flushes that decide short events add counts without packets.
	if s.Allowed+s.Dropped < s.Packets {
		t.Fatalf("counter imbalance: allowed %d + dropped %d < packets %d", s.Allowed, s.Dropped, s.Packets)
	}
	if got := len(proxy.Log()); got == 0 {
		t.Fatal("no audit entries recorded under stress")
	}
}
