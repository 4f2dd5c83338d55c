package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

// TestIdenticalSwapIsNoOp is the engine differential the hot-swap must pass
// to be admissible: a Process-loop arm ("seq") and an arm on the subtest's
// engine ("sharded": shards=1 the Process loop, shards=4 the batched body)
// gain a third arm that hot-swaps every device to an identically-compiled
// artifact after every trace step. A swap that changes
// nothing semantic must change nothing observable — per-packet decisions,
// flush decisions, audit logs, stats, lockout states, and main-registry obs
// snapshots stay byte-identical to the never-swapped arms across seeds and
// both engines. Only the artifact generation counters (serialized state, swap
// registry) may differ, and the test pins that they do, so a future change
// that silently stops versioning swaps cannot pass by accident.
func TestIdenticalSwapIsNoOp(t *testing.T) {
	for _, seed := range []int64{11, 23, 47} {
		for _, shards := range []int{1, 4} {
			seed, shards := seed, shards
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				clock := simclock.NewVirtual()
				ks, err := keystore.New(rand.New(rand.NewSource(1200 + seed)))
				if err != nil {
					t.Fatal(err)
				}
				phoneKS, err := keystore.New(rand.New(rand.NewSource(1210 + seed)))
				if err != nil {
					t.Fatal(err)
				}
				offer, err := keystore.NewPairingOffer(ks, rand.New(rand.NewSource(1220+seed)))
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
				trained := trainDiffClassifier(t, seed)

				base := Config{Bootstrap: 5 * time.Minute, Shards: shards}
				arms := map[string]*Proxy{
					"seq":     asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 1}),
					"sharded": asyncDiffProxy(t, clock, ks, trained, base),
					"swapped": asyncDiffProxy(t, clock, ks, trained, base),
				}
				others := []string{"sharded", "swapped"}

				// After every step the swapped arm clones the live arena of
				// every device that has a compiled artifact and hot-swaps
				// the clone in (pre-freeze devices report an error and are
				// skipped until frozen).
				promotions := 0
				promoteAll := func() {
					for _, d := range diffDevices {
						meta, err := arms["swapped"].PromoteIdentical(d.name)
						if err != nil {
							if !strings.Contains(err.Error(), "no compiled artifact") {
								t.Fatalf("PromoteIdentical(%s): %v", d.name, err)
							}
							continue
						}
						if meta.Generation <= meta.Parent {
							t.Fatalf("PromoteIdentical(%s): generation %d not past parent %d", d.name, meta.Generation, meta.Parent)
						}
						promotions++
					}
				}

				decisions := map[string][]Decision{}
				for si, s := range buildSeededTrace(clock.Now(), rand.New(rand.NewSource(seed))) {
					clock.Advance(s.Advance)
					for _, dev := range s.Attest {
						payload, err := app.Attest("app."+dev, gen.Human())
						if err != nil {
							t.Fatal(err)
						}
						for name, p := range arms {
							if _, err := p.HandleAttestation(payload); err != nil {
								t.Fatalf("step %d: %s attestation: %v", si, name, err)
							}
						}
					}
					for name, p := range arms {
						decisions[name] = append(decisions[name], p.ProcessBatch(s.Batch)...)
					}
					for _, dev := range s.Flush {
						want := arms["seq"].FlushEvent(dev)
						for _, name := range others {
							if got := arms[name].FlushEvent(dev); !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d: FlushEvent(%s): %s %+v, seq %+v", si, dev, name, got, want)
							}
						}
					}
					promoteAll()
					// Every arm sweeps at the same point so pending-queue
					// expiry stays identical.
					for _, p := range arms {
						p.SweepPending()
					}
				}
				if promotions < len(diffDevices) {
					t.Fatalf("only %d identical promotions fired; the swap arm never exercised the hot path", promotions)
				}

				want := decisions["seq"]
				for _, name := range others {
					got := decisions[name]
					if len(got) != len(want) {
						t.Fatalf("%s: %d decisions, seq %d", name, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: decision %d = %+v, seq %+v", name, i, got[i], want[i])
						}
					}
				}

				wantStats := arms["seq"].StatsSnapshot()
				if wantStats.EventsManual+wantStats.EventsNonManual == 0 || wantStats.RuleHits == 0 {
					t.Fatalf("trace misses pipeline branches: %+v", wantStats)
				}
				wantLog := arms["seq"].Log()
				wantSnap := arms["seq"].Metrics().Snapshot()
				for _, name := range others {
					p := arms[name]
					if got := p.StatsSnapshot(); got != wantStats {
						t.Fatalf("%s: stats %+v, seq %+v", name, got, wantStats)
					}
					if got := p.Log(); !reflect.DeepEqual(got, wantLog) {
						t.Fatalf("%s: audit log diverges (%d entries, seq %d)", name, len(got), len(wantLog))
					}
					for _, d := range diffDevices {
						if got, want := p.Locked(d.name), arms["seq"].Locked(d.name); got != want {
							t.Fatalf("%s: Locked(%s)=%v, seq %v", name, d.name, got, want)
						}
					}
					if got := p.Metrics().Snapshot(); got != wantSnap {
						t.Fatalf("%s: obs snapshot diverges:\n%s", name, firstDiffLine(got, wantSnap))
					}
				}

				// What MUST differ: the swapped arm's artifact identity moved
				// on (its serialized state carries the higher generations).
				swapped := arms["swapped"]
				for _, d := range diffDevices {
					sm, ok := swapped.ArtifactMeta(d.name)
					if !ok || sm.Generation < 2 {
						t.Fatalf("swapped arm %s: meta %+v ok=%v, want generation >= 2", d.name, sm, ok)
					}
					bm, ok := arms["sharded"].ArtifactMeta(d.name)
					if !ok || bm.Generation != 1 {
						t.Fatalf("sharded arm %s: meta %+v ok=%v, want generation 1", d.name, bm, ok)
					}
					if sm.RulesSum != bm.RulesSum {
						t.Fatalf("%s: identical swap changed artifact content: swapped %+v, sharded %+v", d.name, sm, bm)
					}
				}
				if reflect.DeepEqual(swapped.EncodeState(), arms["sharded"].EncodeState()) {
					t.Fatal("swapped arm serialized state equals never-swapped state; generations were not versioned")
				}

				// Restart check: the swapped arm's generation>1 state restores
				// into a fresh proxy and keeps deciding identically.
				restored := asyncDiffProxy(t, clock, ks, trained, base)
				if err := restored.RestoreState(swapped.EncodeState()); err != nil {
					t.Fatalf("restore of swapped state: %v", err)
				}
				for _, d := range diffDevices {
					rm, ok := restored.ArtifactMeta(d.name)
					sm, _ := swapped.ArtifactMeta(d.name)
					if !ok || rm != sm {
						t.Fatalf("restored %s: meta %+v ok=%v, want %+v", d.name, rm, ok, sm)
					}
				}
				clock.Advance(time.Minute)
				tail := buildDiffTrace(clock.Now())[0].Batch
				if got, want := restored.ProcessBatch(tail), swapped.ProcessBatch(tail); !reflect.DeepEqual(got, want) {
					t.Fatalf("post-restore decisions diverge: %+v vs %+v", got, want)
				}
			})
		}
	}
}
