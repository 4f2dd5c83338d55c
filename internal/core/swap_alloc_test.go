package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
	"fiat/internal/swap"
)

// swapGuardProxy builds the single-device fixture the swap guards share: a
// plug learning a 1-minute heartbeat through bootstrap, frozen + compiled by
// one post-bootstrap packet. Returns the proxy and the record generator; the
// returned time is the instant of the last processed (freeze) packet.
func swapGuardProxy(t *testing.T, clock *simclock.VirtualClock, seed int64) (*Proxy, func(at time.Time) flows.Record, time.Time) {
	t.Helper()
	ks, err := keystore.New(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute, Shards: 4})
	if err := p.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 2}); err != nil {
		t.Fatal(err)
	}
	hb := func(at time.Time) flows.Record {
		return flows.Record{
			Time: at, Size: 180, Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudIP, RemoteDomain: "cloud.example",
			LocalPort: 40000, RemotePort: 443,
		}
	}
	at := clock.Now()
	for i := 0; i < 4; i++ {
		if d := p.Process("plug", hb(at), ""); d.Reason != ReasonBootstrap {
			t.Fatalf("bootstrap packet %d: %+v", i, d)
		}
		clock.Advance(time.Minute)
		at = at.Add(time.Minute)
	}
	clock.Advance(time.Minute)
	if d := p.Process("plug", hb(at), ""); d.Reason != ReasonRuleHit {
		t.Fatalf("freeze packet: %+v", d)
	}
	return p, hb, at
}

// injectShadow hand-builds an in-flight relearn lifecycle for the device in
// the given phase, learning the candidate from the same heartbeat the live
// table knows. White-box on purpose: the guards need the lifecycle pinned in
// one phase while they measure, not advancing on a timer.
func injectShadow(t *testing.T, p *Proxy, dev string, phase swap.Phase, hbStart time.Time) {
	t.Helper()
	sh := p.shardFor(dev)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ds := sh.devices[dev]
	live := ds.art
	if live == nil {
		t.Fatalf("%s has no live artifact to shadow", dev)
	}
	tbl := flows.NewRuleTable(p.cfg.Mode)
	rl := &relearnState{phase: phase, started: p.clock.Now(), table: tbl}
	if phase == swap.PhaseShadow {
		at := hbStart
		for i := 0; i < 5; i++ {
			tbl.Learn(flows.Record{
				Time: at, Size: 180, Proto: "tcp", Dir: flows.DirInbound,
				RemoteIP: cloudIP, RemoteDomain: "cloud.example",
				LocalPort: 40000, RemotePort: 443,
			})
			at = at.Add(time.Minute)
		}
		cc := tbl.Compile()
		rl.table = nil
		ar := cc.NewArrivalState()
		flows.TransferArrival(cc, ar, live.compiled, live.arrival)
		ds.genCounter++
		rl.meta = swap.Meta{
			Generation: ds.genCounter,
			Parent:     live.meta.Generation,
			RulesSum:   cc.Checksum(),
			ModelSum:   live.meta.ModelSum,
		}
		rl.compiled = cc
		rl.arrival = ar
	}
	ds.rl = rl
}

// TestShadowEvaluationZeroAllocs pins the tentpole's headline cost claim:
// scoring every packet against a shadow candidate — live compiled match,
// candidate compiled match against its own arrival state, agreement noted in
// the shadow matrix — adds zero heap allocations to the rule-hit path. The
// shadow matrix afterwards shows full agreement, proving the measured loop
// actually ran both engines.
func TestShadowEvaluationZeroAllocs(t *testing.T) {
	clock := simclock.NewVirtual()
	p, hb, at := swapGuardProxy(t, clock, 81)
	injectShadow(t, p, "plug", swap.PhaseShadow, at.Add(-4*time.Minute))

	misses := 0
	allocs := testing.AllocsPerRun(500, func() {
		at = at.Add(time.Minute)
		if d := p.Process("plug", hb(at), ""); d.Reason != ReasonRuleHit {
			misses++
		}
	})
	if misses > 0 {
		t.Fatalf("%d measured packets were not rule hits; the guard measured the wrong path", misses)
	}
	if allocs != 0 {
		t.Fatalf("shadow-evaluated Process allocates: measured %v allocs/op, want 0", allocs)
	}

	sh := p.shardFor("plug")
	sh.mu.Lock()
	m := sh.devices["plug"].rl.matrix
	sh.mu.Unlock()
	if m.Packets < 500 {
		t.Fatalf("shadow matrix saw %d packets, want >= 500: the candidate never scored", m.Packets)
	}
	if m.Mismatches() != 0 || m.CandHits != m.Packets {
		t.Fatalf("identically-learned candidate disagreed with live: %+v", m)
	}
}

// TestRelearnDoesNotPerturbLiveArtifact is the isolation guard on background
// relearning: a device mid-relearn (candidate table absorbing live traffic)
// and mid-shadow must leave the live artifact untouched — same compiled arena
// bytes, same arrival-state bytes, same decisions — as a twin proxy that
// never entered the lifecycle. Only ds.rl-owned state may differ.
func TestRelearnDoesNotPerturbLiveArtifact(t *testing.T) {
	clockA, clockB := simclock.NewVirtual(), simclock.NewVirtual()
	pa, hbA, atA := swapGuardProxy(t, clockA, 83)
	pb, _, atB := swapGuardProxy(t, clockB, 83)
	if atA != atB {
		t.Fatalf("fixture clocks diverge: %v vs %v", atA, atB)
	}
	injectShadow(t, pa, "plug", swap.PhaseRelearn, atA)

	drive := func(p *Proxy, clock *simclock.VirtualClock, at time.Time) ([]Decision, time.Time) {
		var ds []Decision
		for i := 0; i < 40; i++ {
			at = at.Add(time.Minute)
			clock.Advance(time.Minute)
			ds = append(ds, p.Process("plug", hbA(at), ""))
			if i%7 == 3 {
				// An off-profile packet exercises the event path too.
				ds = append(ds, p.Process("plug", flows.Record{
					Time: at, Size: 900 + i, Proto: "tcp", Dir: flows.DirInbound,
					RemoteIP: cloudIP, RemoteDomain: "cloud.example",
					LocalPort: 41000, RemotePort: 443,
				}, ""))
				p.FlushEvent("plug")
			}
		}
		return ds, at
	}
	decA, endA := drive(pa, clockA, atA)
	decB, _ := drive(pb, clockB, atB)
	for i := range decA {
		if decA[i] != decB[i] {
			t.Fatalf("decision %d diverged under relearn: %+v vs %+v", i, decA[i], decB[i])
		}
	}

	liveBytes := func(p *Proxy) (arena, arrival []byte, rl *relearnState) {
		sh := p.shardFor("plug")
		sh.mu.Lock()
		defer sh.mu.Unlock()
		ds := sh.devices["plug"]
		art := ds.art
		return art.compiled.EncodeArena(), flows.AppendArrival(nil, art.arrival), ds.rl
	}
	arenaA, arrA, rlA := liveBytes(pa)
	arenaB, arrB, _ := liveBytes(pb)
	if !bytes.Equal(arenaA, arenaB) {
		t.Fatal("relearn mutated the live compiled arena")
	}
	if !bytes.Equal(arrA, arrB) {
		t.Fatal("relearn perturbed the live artifact's arrival state")
	}
	// The candidate genuinely learned from the traffic (it is not an empty
	// table), so the isolation above was tested against a live lifecycle.
	if rlA == nil || rlA.phase != swap.PhaseRelearn {
		t.Fatalf("relearn lifecycle not in flight: %+v", rlA)
	}
	empty := flows.NewRuleTable(pa.cfg.Mode)
	if bytes.Equal(rlA.table.AppendState(nil), empty.AppendState(nil)) {
		t.Fatal("candidate table learned nothing; the guard exercised an idle lifecycle")
	}

	// Same isolation through the shadow phase: candidate scoring must not
	// move the live arrival state either. Compare one more identical stretch.
	injectShadow(t, pa, "plug", swap.PhaseShadow, endA.Add(-4*time.Minute))
	decA2, _ := drive(pa, clockA, endA)
	decB2, _ := drive(pb, clockB, endA)
	for i := range decA2 {
		if decA2[i] != decB2[i] {
			t.Fatalf("decision %d diverged under shadow: %+v vs %+v", i, decA2[i], decB2[i])
		}
	}
	arenaA2, arrA2, _ := liveBytes(pa)
	arenaB2, arrB2, _ := liveBytes(pb)
	if !bytes.Equal(arenaA2, arenaB2) || !bytes.Equal(arrA2, arrB2) {
		t.Fatal("shadow scoring perturbed the live artifact")
	}
}
