package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fiat/internal/keystore"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
)

// goldenTrace names one seeded differential trace whose observable output
// testdata/golden.txt pins. kind selects what every device classifies with:
// "rules" wears a packet-size RuleClassifier, "ml" the deployment model
// trained on the trace seed.
type goldenTrace struct {
	kind string
	seed int64
}

func (g goldenTrace) name() string { return fmt.Sprintf("%s-seed=%d", g.kind, g.seed) }

var goldenTraces = []goldenTrace{
	{"rules", 11}, {"rules", 23}, {"rules", 47},
	{"ml", 7}, {"ml", 31}, {"ml", 59},
}

// The trained models are deterministic in their seed (see
// TestTrainMLClassifierDeterministic), so one fit per seed serves every
// replay in the test binary.
var (
	goldenModelsMu sync.Mutex
	goldenModels   = map[int64]*MLClassifier{}
)

func goldenModel(t *testing.T, seed int64) *MLClassifier {
	goldenModelsMu.Lock()
	defer goldenModelsMu.Unlock()
	m, ok := goldenModels[seed]
	if !ok {
		m = trainDiffClassifier(t, seed)
		goldenModels[seed] = m
	}
	return m
}

// goldenProxy builds the proxy a golden trace runs on: the diffDevices zoo
// with a five-minute bootstrap and no other configuration.
func goldenProxy(t *testing.T, g goldenTrace, clock simclock.Clock, ks *keystore.Store, shards int) *Proxy {
	t.Helper()
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute, Shards: shards})
	for _, d := range diffDevices {
		var clf EventClassifier = RuleClassifier{NotificationSize: d.size}
		if g.kind == "ml" {
			clf = goldenModel(t, g.seed)
		}
		if err := p.AddDevice(DeviceConfig{Name: d.name, Classifier: clf, GraceN: d.graceN}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// replayGolden runs one golden trace at the given Config.Shards and returns
// its golden.txt line and the proxy as the trace left it. The line holds
// SHA-256 digests of the decision stream (attestation verdicts, per-packet
// decisions, flush decisions), the audit log, the stats, the serialized
// state and the obs snapshot.
func replayGolden(t *testing.T, g goldenTrace, shards int) (string, *Proxy) {
	t.Helper()
	clock := simclock.NewVirtual()
	keyBase := int64(300)
	if g.kind == "ml" {
		keyBase = 600
	}
	ks, app := pairedTraceApp(t, clock, keyBase+g.seed, keyBase+100+g.seed, keyBase+200+g.seed)
	p := goldenProxy(t, g, clock, ks, shards)
	gen := sensors.NewGenerator(simclock.NewRNG(1000 + g.seed))

	var dec strings.Builder
	for si, s := range buildSeededTrace(clock.Now(), rand.New(rand.NewSource(g.seed))) {
		clock.Advance(s.Advance)
		for _, dev := range s.Attest {
			payload, err := app.Attest("app."+dev, gen.Human())
			if err != nil {
				t.Fatal(err)
			}
			human, err := p.HandleAttestation(payload)
			if err != nil {
				t.Fatalf("step %d: attestation: %v", si, err)
			}
			fmt.Fprintf(&dec, "attest %s %v\n", dev, human)
		}
		for _, d := range p.ProcessBatch(s.Batch) {
			fmt.Fprintf(&dec, "%s %s\n", d.Verdict, d.Reason)
		}
		for _, dev := range s.Flush {
			if d := p.FlushEvent(dev); d != nil {
				fmt.Fprintf(&dec, "flush %s %s %s\n", dev, d.Verdict, d.Reason)
			} else {
				fmt.Fprintf(&dec, "flush %s -\n", dev)
			}
		}
	}
	var log strings.Builder
	for _, e := range p.Log() {
		fmt.Fprintf(&log, "%d|%s|%s|%s|%d\n", e.Time.UnixNano(), e.Device, e.Reason, e.Verdict, e.Packets)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	line := fmt.Sprintf("%s decisions=%s log=%s stats=%s state=%s metrics=%s", g.name(),
		digest([]byte(dec.String())),
		digest([]byte(log.String())),
		digest([]byte(fmt.Sprintf("%+v", p.StatsSnapshot()))),
		digest(p.EncodeState()),
		digest([]byte(p.Metrics().Snapshot())))
	return line, p
}

// readGolden loads testdata/golden.txt keyed by trace name.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<16)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		out[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenDigests replays each golden trace through the sequential engine
// (1 shard) and the batched engine (4 shards); both must reproduce the
// committed digests byte for byte. The digests were recorded when the
// serialized RuleTable.Match and MLClassifier.IsManual paths could still run
// a whole proxy, and both paths produced them, so they pin the compiled
// engines to the reference behaviour. On a deliberate behaviour change, the
// failure message carries the replacement line.
func TestGoldenDigests(t *testing.T) {
	want := readGolden(t)
	for _, g := range goldenTraces {
		g := g
		t.Run(g.name(), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				shards := shards
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					got, p := replayGolden(t, g, shards)
					if got != want[g.name()] {
						t.Errorf("digests differ from testdata/golden.txt; replacement line:\n%s", got)
					}
					// The digests only pin the compiled engines if the trace
					// reaches them.
					st := p.StatsSnapshot()
					if st.Packets < 50 || st.RuleHits == 0 || st.RuleCompiles == 0 {
						t.Fatalf("trace misses the rule path: %+v", st)
					}
					if _, ok := p.CompiledRules(diffDevices[0].name); !ok {
						t.Fatal("no compiled rules installed")
					}
					if g.kind == "ml" {
						if st.EventsManual+st.EventsNonManual == 0 {
							t.Fatalf("trace misses the classification path: %+v", st)
						}
						ds := p.devices[diffDevices[0].name]
						if _, ok := ds.classifier.(*compiledEventClassifier); !ok {
							t.Fatalf("classifier is %T, want *compiledEventClassifier", ds.classifier)
						}
					}
					// The state image (also the fuzz seed for RestoreState)
					// restores and re-encodes byte-identically.
					enc := p.EncodeState()
					fresh := goldenProxy(t, g, simclock.NewVirtual(), p.ks, 1)
					if err := fresh.RestoreState(enc); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(fresh.EncodeState(), enc) {
						t.Fatal("restored state re-encodes differently")
					}
				})
			}
		})
	}
}
