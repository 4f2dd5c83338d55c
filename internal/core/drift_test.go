package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
	"fiat/internal/swap"
)

// driftFleet is the fleet the per-device drift tests run: six
// rule-classified devices, each beating once a minute at its own size.
var driftFleet = []string{"plug", "cam", "tv", "light", "thermo", "speaker"}

// driftRelearn parks the margin and lockout triggers, so only the drifted
// device's rule-miss ratio can start a relearn. The miss threshold sits
// below one device's share of the fleet's matches: judged fleet-wide, the
// one drifted device would trip it for everyone.
var driftRelearn = swap.Options{
	Enabled:      true,
	MissRatio:    0.1,
	MarginDrift:  0.9,
	LockoutBurst: 99,
	MinSample:    4,
	RelearnFor:   6 * time.Minute,
	ShadowFor:    6 * time.Minute,
	ShadowMin:    3,
	Cooldown:     30 * time.Minute,
}

func driftFleetProxy(t *testing.T, clock *simclock.VirtualClock, shards int) *Proxy {
	t.Helper()
	ks, err := keystore.New(rand.New(rand.NewSource(91)))
	if err != nil {
		t.Fatal(err)
	}
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute, Shards: shards, Relearn: driftRelearn})
	for _, name := range driftFleet {
		if err := p.AddDevice(DeviceConfig{Name: name, Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 2}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// shadowMatrix reads the device's shadow matrix while a candidate is in
// shadow evaluation.
func shadowMatrix(p *Proxy, device string) (swap.ShadowMatrix, bool) {
	p.devMu.Lock()
	defer p.devMu.Unlock()
	if rl := p.devices[device].rl; rl != nil && rl.phase == swap.PhaseShadow {
		return rl.matrix, true
	}
	return swap.ShadowMatrix{}, false
}

// TestOneDeviceDriftsOneDeviceRelearns: of six devices, only "tv" changes
// its heartbeat (a firmware update: new size), so only tv's own detector
// fires, and only tv relearns, shadows and is promoted. The other five stay
// idle on generation 1 throughout. A fleet-wide detector would send every
// frozen device into a relearn window. The run is repeated on the
// sequential engine (Shards 1), on a Shards 4 proxy fed one packet at a
// time through Process, and on that proxy's batched body; decisions and
// the swap registry must be identical across the three.
func TestOneDeviceDriftsOneDeviceRelearns(t *testing.T) {
	const drifted = "tv"
	type arm struct {
		name   string
		shards int
		batch  bool
	}
	var refDecisions []Decision
	var refSwap string
	for _, a := range []arm{{"shards=1", 1, true}, {"shards=4", 4, false}, {"async", 4, true}} {
		t.Run(a.name, func(t *testing.T) {
			clock := simclock.NewVirtual()
			p := driftFleetProxy(t, clock, a.shards)
			var decisions []Decision
			var lastShadow swap.ShadowMatrix
			shadowed := false
			for minute := 0; minute < 45; minute++ {
				clock.Advance(time.Minute)
				batch := make([]PacketIn, 0, len(driftFleet))
				for i, name := range driftFleet {
					size := 128 + i
					if name == drifted && minute >= 15 {
						size += 200
					}
					batch = append(batch, PacketIn{Device: name, Rec: diffRec(clock.Now(), size, flows.CategoryControl)})
				}
				if a.batch {
					decisions = append(decisions, p.ProcessBatch(batch)...)
				} else {
					for _, pk := range batch {
						decisions = append(decisions, p.Process(pk.Device, pk.Rec, pk.Peer))
					}
				}
				// Read the matrix before the sweep that may promote.
				if m, ok := shadowMatrix(p, drifted); ok {
					lastShadow, shadowed = m, true
				}
				p.SweepPending()
				for _, name := range driftFleet {
					if name != drifted && p.SwapPhase(name) != swap.PhaseIdle {
						t.Fatalf("minute %d: undrifted %s entered %v", minute, name, p.SwapPhase(name))
					}
				}
			}

			if !shadowed {
				t.Fatalf("%s never entered shadow evaluation", drifted)
			}
			// The live artifact misses the new heartbeat; the candidate
			// learned it. Every disagreement is a candidate-only hit.
			if lastShadow.CandOnly == 0 || lastShadow.LiveOnly != 0 {
				t.Fatalf("%s shadow matrix %+v, want CandOnly > 0 and LiveOnly == 0", drifted, lastShadow)
			}
			for _, name := range driftFleet {
				meta, ok := p.ArtifactMeta(name)
				want := uint64(1)
				if name == drifted {
					want = 2
				}
				if !ok || meta.Generation != want {
					t.Fatalf("%s artifact generation %d (ok=%v), want %d", name, meta.Generation, ok, want)
				}
				if ph := p.SwapPhase(name); ph != swap.PhaseIdle {
					t.Fatalf("%s ended in phase %v", name, ph)
				}
			}
			snap := p.SwapMetrics().Snapshot()
			for _, want := range []string{
				"fiat_swap_relearns_total 1\n",
				"fiat_swap_generations_total 1\n",
				"fiat_swap_promotions_total 1\n",
				"fiat_swap_rollbacks_total 0\n",
				fmt.Sprintf("fiat_swap_shadow_mismatches_total %d\n", lastShadow.CandOnly),
			} {
				if !strings.Contains(snap, want) {
					t.Fatalf("swap metrics missing %q:\n%s", want, snap)
				}
			}
			// The promoted generation matches the new heartbeat.
			if d := decisions[len(decisions)-len(driftFleet)+2]; d.Reason != ReasonRuleHit {
				t.Fatalf("%s's last heartbeat: %+v, want a rule hit", drifted, d)
			}
			if refDecisions == nil {
				refDecisions, refSwap = decisions, snap
				return
			}
			if !reflect.DeepEqual(decisions, refDecisions) {
				t.Fatal("decisions differ from the sequential engine")
			}
			if snap != refSwap {
				t.Fatalf("swap metrics differ from the sequential engine:\n%s\nvs\n%s", snap, refSwap)
			}
		})
	}
}

// TestSweepPendingZeroAllocs pins the housekeeping sweep's cost on a warm,
// idle fleet with relearning enabled: walking the name-ordered device list
// and ticking every device's drift detector allocates nothing.
func TestSweepPendingZeroAllocs(t *testing.T) {
	clock := simclock.NewVirtual()
	p := driftFleetProxy(t, clock, 4)
	for minute := 0; minute < 12; minute++ {
		clock.Advance(time.Minute)
		for i, name := range driftFleet {
			p.Process(name, diffRec(clock.Now(), 128+i, flows.CategoryControl), "")
		}
		p.SweepPending()
	}
	for _, name := range driftFleet {
		if _, ok := p.ArtifactMeta(name); !ok || p.SwapPhase(name) != swap.PhaseIdle {
			t.Fatalf("%s is not a warm, idle device", name)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		clock.Advance(time.Second)
		p.SweepPending()
	})
	if allocs != 0 {
		t.Fatalf("SweepPending allocates %.1f times per sweep, want 0", allocs)
	}
}

// TestAddDeviceDuringSweeps registers devices from several goroutines while
// another sweeps and digests the config. Each worker registers its names
// out of order, so inserts land anywhere in the published list. Every list
// a reader loads is in name order, and the final list holds every device.
func TestAddDeviceDuringSweeps(t *testing.T) {
	ks, err := keystore.New(rand.New(rand.NewSource(92)))
	if err != nil {
		t.Fatal(err)
	}
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(simclock.NewVirtual(), ks, validator, Config{Shards: 4, Relearn: driftRelearn})
	sorted := func(devs []*deviceState) bool {
		return sort.SliceIsSorted(devs, func(i, j int) bool { return devs[i].cfg.Name < devs[j].cfg.Name })
	}
	const workers, per = 4, 32
	stop, swept := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.SweepPending()
			p.ConfigChecksum()
			if !sorted(p.deviceStates()) {
				t.Error("a sweep loaded a device list out of name order")
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("dev%03d-%d", (i*7+w)%per, w)
				if err := p.AddDevice(DeviceConfig{Name: name}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-swept
	if devs := p.deviceStates(); len(devs) != workers*per || !sorted(devs) {
		t.Fatalf("final list has %d devices (want %d), sorted=%v", len(devs), workers*per, sorted(devs))
	}
}
