package core

import (
	"math/rand"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

// TestProcessRuleHitZeroAllocs is the allocation guard on the proxy's
// per-packet hot path: once a device's rules are frozen and compiled, a
// rule-hit packet must traverse intercept → compiled match → verdict →
// commit without a single heap allocation. The guard fails with the measured
// number so a regression is immediately quantified.
func TestProcessRuleHitZeroAllocs(t *testing.T) {
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute})
	const dev = "plug"
	if err := p.AddDevice(DeviceConfig{Name: dev, Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 2}); err != nil {
		t.Fatal(err)
	}

	rec := flows.Record{
		Time: clock.Now(), Size: 180, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: cloudIP, RemoteDomain: "cloud.example",
		LocalPort: 40000, RemotePort: 443,
	}
	// Learn a 1-minute heartbeat during bootstrap.
	for i := 0; i < 4; i++ {
		if d := p.Process(dev, rec, ""); d.Reason != ReasonBootstrap {
			t.Fatalf("bootstrap packet %d: %+v", i, d)
		}
		clock.Advance(time.Minute)
		rec.Time = rec.Time.Add(time.Minute)
	}
	// Step past the bootstrap window; the first post-bootstrap packet
	// freezes, compiles, and rule-hits. It is the warm-up, outside the
	// measured window.
	clock.Advance(time.Minute)
	if d := p.Process(dev, rec, ""); d.Reason != ReasonRuleHit {
		t.Fatalf("warm-up packet: %+v (rules did not freeze into a hit)", d)
	}
	if _, ok := p.CompiledRules(dev); !ok {
		t.Fatal("compiled rules not installed after freeze")
	}

	misses := 0
	allocs := testing.AllocsPerRun(500, func() {
		rec.Time = rec.Time.Add(time.Minute)
		if d := p.Process(dev, rec, ""); d.Reason != ReasonRuleHit {
			misses++
		}
	})
	if misses > 0 {
		t.Fatalf("%d measured packets were not rule hits; the guard measured the wrong path", misses)
	}
	if allocs != 0 {
		t.Fatalf("rule-hit Process allocates: measured %v allocs/op, want 0", allocs)
	}
}

// TestPipelineSteadyStateZeroAllocs is the batched body's allocation
// guard: a full intercept→verdict batch — decisions under the device mutex,
// compiled rule match, outcome arena, batch-ordered merge — performs zero
// heap allocations per batch in steady state, and the
// event-decision path (grouping, compiled classification, audit append)
// stays under a tight amortized ceiling (the audit log's doubling append is
// the only allocator left).
func TestPipelineSteadyStateZeroAllocs(t *testing.T) {
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(78)))
	if err != nil {
		t.Fatal(err)
	}
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute})
	trained := trainDiffClassifier(t, 5)
	ruleDevs := []string{"rplug0", "rplug1", "rplug2", "rplug3"}
	mlDevs := []string{"mcam0", "mcam1", "mcam2", "mcam3"}
	for _, dev := range ruleDevs {
		if err := p.AddDevice(DeviceConfig{Name: dev, Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, dev := range mlDevs {
		if err := p.AddDevice(DeviceConfig{Name: dev, Classifier: trained, GraceN: 1}); err != nil {
			t.Fatal(err)
		}
	}

	hb := func(at time.Time) flows.Record {
		return flows.Record{
			Time: at, Size: 180, Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudIP, RemoteDomain: "cloud.example",
			LocalPort: 40000, RemotePort: 443,
		}
	}
	// An automated-telemetry-shaped record: misses the learned heartbeat
	// bucket, so it runs the full event path, and the trained model (fitted
	// on this shape as non-manual) classifies it Allow/non-manual — the
	// measured loop stays off the lockout branch.
	telemetry := func(at time.Time) flows.Record {
		return flows.Record{
			Time: at, Size: 230, Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudIP, RemoteDomain: "cloud.example",
			LocalPort: 41000, RemotePort: 8883, TCPFlags: 0x10, TLSVersion: 0x0303,
		}
	}
	all := append(append([]string{}, ruleDevs...), mlDevs...)
	hbAt := clock.Now()
	batch := make([]PacketIn, 0, len(all))
	hbBatch := func() []PacketIn {
		batch = batch[:0]
		for _, dev := range all {
			batch = append(batch, PacketIn{Device: dev, Rec: hb(hbAt)})
		}
		return batch
	}
	var dst []Decision
	// Learn the 1-minute heartbeat during bootstrap.
	for i := 0; i < 4; i++ {
		dst = p.ProcessBatchInto(hbBatch(), dst)
		clock.Advance(time.Minute)
		hbAt = hbAt.Add(time.Minute)
	}
	// Past bootstrap: the first batch freezes + compiles every device
	// (warm-up, outside the measured window) and must already rule-hit — it
	// arrives exactly one period after the last learned beat.
	clock.Advance(time.Minute)
	for i, d := range p.ProcessBatchInto(hbBatch(), dst) {
		if d.Reason != ReasonRuleHit {
			t.Fatalf("warm-up packet %d: %+v (rules did not freeze into a hit)", i, d)
		}
	}

	// Phase 1: the rule-hit steady state must be allocation-free end to end.
	misses := 0
	allocs := testing.AllocsPerRun(500, func() {
		hbAt = hbAt.Add(time.Minute)
		dst = p.ProcessBatchInto(hbBatch(), dst)
		for _, d := range dst {
			if d.Reason != ReasonRuleHit {
				misses++
			}
		}
	})
	if misses > 0 {
		t.Fatalf("%d measured packets were not rule hits; the guard measured the wrong path", misses)
	}
	if allocs != 0 {
		t.Fatalf("batched rule-hit batch allocates: measured %v allocs/op, want 0", allocs)
	}

	// Phase 2: one fresh event per ML device per batch — grouping, compiled
	// inference, verdict, audit append. Warm up first, then hold the
	// amortized ceiling (audit-log doubling only).
	evAt := hbAt.Add(time.Hour)
	evBatch := func() []PacketIn {
		batch = batch[:0]
		for _, dev := range mlDevs {
			batch = append(batch, PacketIn{Device: dev, Rec: telemetry(evAt)})
		}
		return batch
	}
	for i := 0; i < 8; i++ {
		for _, d := range p.ProcessBatchInto(evBatch(), dst) {
			if d.Reason != ReasonNonManual {
				t.Fatalf("warm-up event decision: %+v, want non-manual allow", d)
			}
		}
		evAt = evAt.Add(time.Minute)
	}
	wrong := 0
	allocs = testing.AllocsPerRun(500, func() {
		dst = p.ProcessBatchInto(evBatch(), dst)
		for _, d := range dst {
			if d.Reason != ReasonNonManual {
				wrong++
			}
		}
		evAt = evAt.Add(time.Minute)
	})
	if wrong > 0 {
		t.Fatalf("%d measured decisions were not non-manual allows; the guard measured the wrong path", wrong)
	}
	// 4 audit entries per run; the log's append doubling amortizes to well
	// under one allocation per batch.
	if allocs > 0.5 {
		t.Fatalf("event-decision batch allocates %v/op, want amortized <= 0.5", allocs)
	}
}
