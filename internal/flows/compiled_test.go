package flows

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// learnedCompiled learns a periodic flow and returns both forms.
func learnedCompiled(t *testing.T) (*RuleTable, *CompiledRules) {
	t.Helper()
	rt := NewRuleTable(ModePortLess)
	for _, r := range periodicTrace(10, time.Minute, 200) {
		rt.Learn(r)
	}
	rt.Freeze()
	return rt, rt.Compile()
}

func TestCompiledMatchesLegacyVerbatim(t *testing.T) {
	// The same post-freeze probe sequence must produce identical hit/miss
	// sequences through the legacy mutex path and the compiled path with a
	// fresh ArrivalState: on-period hits, off-period misses, reference
	// re-anchoring, unknown buckets.
	rt, c := learnedCompiled(t)
	st := c.NewArrivalState()
	last := periodicTrace(10, time.Minute, 200)[9]
	probes := []Record{}
	at := last.Time
	for i, gap := range []time.Duration{time.Minute, 21 * time.Second, time.Minute, time.Minute, 3 * time.Second} {
		at = at.Add(gap)
		r := last
		r.Time = at
		if i == 4 {
			r.Size = 999 // unknown bucket
		}
		probes = append(probes, r)
	}
	for i, r := range probes {
		legacy := rt.Match(r)
		compiled := c.Match(&r, st)
		if legacy != compiled {
			t.Fatalf("probe %d: legacy=%v compiled=%v", i, legacy, compiled)
		}
	}
}

func TestCompiledArrivalStateSeededFromLearning(t *testing.T) {
	// The first post-freeze interval is measured from the last learned
	// packet, exactly as the legacy table does.
	_, c := learnedCompiled(t)
	st := c.NewArrivalState()
	recs := periodicTrace(10, time.Minute, 200)
	next := recs[len(recs)-1]
	next.Time = next.Time.Add(time.Minute)
	if !c.Match(&next, st) {
		t.Fatal("on-period packet one interval after the last learned packet did not match")
	}
}

func TestCompiledAddrFallbackMatchesUnresolvedDomain(t *testing.T) {
	// A PortLess flow learned with no resolved domain buckets under the IP
	// literal; the compiled address fallback must find it without the
	// record ever carrying the literal string.
	rt := NewRuleTable(ModePortLess)
	at := t0
	for i := 0; i < 8; i++ {
		rt.Learn(Record{Time: at, Size: 150, Proto: "udp", Dir: DirOutbound, RemoteIP: otherIP})
		at = at.Add(30 * time.Second)
	}
	rt.Freeze()
	c := rt.Compile()
	st := c.NewArrivalState()
	hit := Record{Time: at, Size: 150, Proto: "udp", Dir: DirOutbound, RemoteIP: otherIP}
	if !rt.Match(hit) {
		t.Fatal("legacy table missed the on-period IP-literal packet")
	}
	if !c.Match(&hit, st) {
		t.Fatal("compiled address fallback missed the on-period packet")
	}
	// A different address with the same size/proto must not conflate.
	miss := hit
	miss.Time = hit.Time.Add(30 * time.Second)
	miss.RemoteIP = cloudIP
	if c.Match(&miss, st) {
		t.Fatal("unknown address matched through the fallback")
	}
}

// TestCompiledEquivalenceRandomSchedules is the property test: for random
// learn schedules, the compiled image reports exactly the same rule count
// and per-key period sets as the table it was compiled from — frozen or not.
func TestCompiledEquivalenceRandomSchedules(t *testing.T) {
	domains := []string{"cloud.example", "hub.example", "", "cdn.example"}
	protos := []string{"tcp", "udp"}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mode := ModePortLess
		if seed%2 == 0 {
			mode = ModeClassic
		}
		rt := NewRuleTable(mode)
		at := t0
		seen := map[Key]bool{}
		steps := 50 + rng.Intn(200)
		for i := 0; i < steps; i++ {
			at = at.Add(time.Duration(rng.Intn(90)) * time.Second)
			r := Record{
				Time:         at,
				Size:         64 * (1 + rng.Intn(5)),
				Proto:        protos[rng.Intn(len(protos))],
				Dir:          Direction(rng.Intn(2)),
				RemoteIP:     cloudIP,
				RemoteDomain: domains[rng.Intn(len(domains))],
				LocalPort:    uint16(40000 + rng.Intn(3)),
				RemotePort:   443,
			}
			rt.Learn(r)
			seen[KeyOf(mode, r)] = true
		}
		c := rt.Compile() // mid-learning snapshot: Compile must not freeze
		if rt.Frozen() {
			t.Fatalf("seed %d: Compile froze the table", seed)
		}
		if c.Rules() != rt.Rules() {
			t.Fatalf("seed %d: compiled Rules=%d, table Rules=%d", seed, c.Rules(), rt.Rules())
		}
		if c.NumKeys() != len(seen) {
			t.Fatalf("seed %d: compiled NumKeys=%d, learned %d distinct keys", seed, c.NumKeys(), len(seen))
		}
		for k := range seen {
			if got, want := c.PeriodsOf(k), rt.Periods(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: periods of %v: compiled %v, table %v", seed, k, got, want)
			}
		}
		// The rule-bearing key sets agree (order aside).
		wantKeys := rt.Keys()
		gotKeys := c.Keys()
		if len(wantKeys) != len(gotKeys) {
			t.Fatalf("seed %d: compiled has %d rule keys, table has %d", seed, len(gotKeys), len(wantKeys))
		}
		wantSet := map[Key]bool{}
		for _, k := range wantKeys {
			wantSet[k] = true
		}
		for _, k := range gotKeys {
			if !wantSet[k] {
				t.Fatalf("seed %d: compiled rule key %v not in table", seed, k)
			}
		}
	}
}

// TestCompiledMatchZeroAllocs is the allocation guard on the frozen match
// path: resolved-domain, unresolved-address-fallback, and unknown-bucket
// probes must all run without a single heap allocation.
func TestCompiledMatchZeroAllocs(t *testing.T) {
	rt := NewRuleTable(ModePortLess)
	at := t0
	for i := 0; i < 10; i++ {
		rt.Learn(Record{Time: at, Size: 200, Proto: "tcp", Dir: DirOutbound, RemoteIP: cloudIP, RemoteDomain: "cloud.example"})
		rt.Learn(Record{Time: at, Size: 150, Proto: "udp", Dir: DirOutbound, RemoteIP: otherIP})
		at = at.Add(time.Minute)
	}
	rt.Freeze()
	c := rt.Compile()
	st := c.NewArrivalState()

	probes := []Record{
		{Time: at, Size: 200, Proto: "tcp", Dir: DirOutbound, RemoteIP: cloudIP, RemoteDomain: "cloud.example"},
		{Time: at, Size: 150, Proto: "udp", Dir: DirOutbound, RemoteIP: otherIP},
		{Time: at, Size: 999, Proto: "tcp", Dir: DirInbound, RemoteIP: netip.MustParseAddr("203.0.113.9"), RemoteDomain: "stranger.example"},
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		r := probes[i%len(probes)]
		r.Time = r.Time.Add(time.Duration(i) * time.Minute)
		c.Match(&r, st)
		i++
	})
	if allocs != 0 {
		t.Fatalf("compiled Match allocates: measured %v allocs/op, want 0", allocs)
	}
}
