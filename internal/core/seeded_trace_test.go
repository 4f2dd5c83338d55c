package core

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

// diffStep is one instant of the differential trace: optional attestations,
// then a batch of packets, then optional event flushes. The virtual clock
// advances by Advance before the step runs.
type diffStep struct {
	Advance time.Duration
	Attest  []string // devices to attest as human just before the batch
	Batch   []PacketIn
	Flush   []string // devices to FlushEvent after the batch
}

// pairedTraceApp pairs a fresh proxy keystore with a phone keystore, all
// three key draws seeded, and returns the proxy side plus a client app bound
// to every device in diffDevices.
func pairedTraceApp(t *testing.T, clock simclock.Clock, ksSeed, phoneSeed, offerSeed int64) (*keystore.Store, *ClientApp) {
	t.Helper()
	ks, err := keystore.New(rand.New(rand.NewSource(ksSeed)))
	if err != nil {
		t.Fatal(err)
	}
	phoneKS, err := keystore.New(rand.New(rand.NewSource(phoneSeed)))
	if err != nil {
		t.Fatal(err)
	}
	offer, err := keystore.NewPairingOffer(ks, rand.New(rand.NewSource(offerSeed)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keystore.AcceptPairing(phoneKS, offer); err != nil {
		t.Fatal(err)
	}
	app := NewClientApp(clock, phoneKS)
	for _, d := range diffDevices {
		app.BindApp("app."+d.name, d.name)
	}
	return ks, app
}

// buildSeededTrace generates one randomized multi-device differential trace:
// bootstrap learning (including unresolved-domain flows that exercise the
// compiled address fallback), post-freeze on-period heartbeats, off-period
// probes, unpredictable bursts, attested and unattested manual commands, and
// an unknown device. Everything derives from rng, so a seed pins the trace.
func buildSeededTrace(start time.Time, rng *rand.Rand) []diffStep {
	var steps []diffStep
	at := start
	rawIP := func(i int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, 0, byte(i), 7})
	}
	hb := func(i int) flows.Record {
		r := diffRec(at, 128+i, flows.CategoryControl)
		if i%2 == 1 {
			// Unresolved domain: buckets under the IP literal, matched
			// through the compiled address fallback after the freeze.
			r.RemoteDomain = ""
			r.RemoteIP = rawIP(i)
		}
		return r
	}
	heartbeats := func() []PacketIn {
		var b []PacketIn
		for i, d := range diffDevices {
			b = append(b, PacketIn{Device: d.name, Rec: hb(i)})
		}
		return b
	}
	step := func(adv time.Duration, s diffStep) {
		at = at.Add(adv)
		s.Advance = adv
		steps = append(steps, s)
	}

	// Bootstrap: one-minute beats with a random count (>= 6 so every bucket
	// recurs enough to form rules before the 5-minute bootstrap ends).
	beats := 6 + rng.Intn(4)
	for i := 0; i < beats; i++ {
		step(time.Minute, diffStep{Batch: heartbeats()})
	}

	cmd := func(dev string, size int) PacketIn {
		return PacketIn{Device: dev, Rec: diffRec(at, size, flows.CategoryManual)}
	}
	names := func() []string {
		var out []string
		for _, d := range diffDevices {
			out = append(out, d.name)
		}
		return out
	}

	// Randomized post-freeze phases.
	phases := 6 + rng.Intn(6)
	for ph := 0; ph < phases; ph++ {
		switch rng.Intn(4) {
		case 0: // on-period heartbeats: rule hits on both engines
			step(time.Minute, diffStep{Batch: heartbeats()})
		case 1: // off-period probes: same buckets, broken interval
			adv := time.Duration(7+rng.Intn(40)) * time.Second
			step(adv, diffStep{Batch: heartbeats(), Flush: names()})
		case 2: // unpredictable burst on a random subset of devices
			var burst []PacketIn
			var flush []string
			for i, d := range diffDevices {
				if rng.Intn(2) == 0 {
					continue
				}
				n := 1 + rng.Intn(6)
				for j := 0; j < n; j++ {
					burst = append(burst, PacketIn{Device: d.name, Rec: diffRec(at, 700+13*i+j, flows.CategoryAutomated)})
				}
				flush = append(flush, d.name)
			}
			burst = append(burst, PacketIn{Device: "ghost", Rec: diffRec(at, 50, flows.CategoryUnknown)})
			step(15*time.Second, diffStep{Batch: burst, Flush: flush})
		default: // manual commands, some attested
			var attest []string
			var batch []PacketIn
			var flush []string
			for _, d := range diffDevices {
				if rng.Intn(3) == 0 {
					continue
				}
				if rng.Intn(2) == 0 {
					attest = append(attest, d.name)
				}
				n := 1 + rng.Intn(3)
				for j := 0; j < n; j++ {
					batch = append(batch, cmd(d.name, d.size))
				}
				flush = append(flush, d.name)
			}
			step(25*time.Second, diffStep{Attest: attest, Batch: batch, Flush: flush})
		}
	}
	return steps
}
