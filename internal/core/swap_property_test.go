package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
	"fiat/internal/swap"
)

// swapPropertyObserver wires the proxy's swap hook into the coherence
// invariant of the hot swap, recording the first violation for the test
// goroutine to fail on (the hook fires on reader goroutines, so it cannot
// call t.Fatal itself): every artifact a reader observes is internally
// consistent (its identity checksums the compiled arena it is paired with)
// and its generation never regresses on a device. A torn read pairing one
// generation's arena with another's identity would trip either check.
type swapPropertyObserver struct {
	mu        sync.Mutex
	violation string

	lastGen map[string]*atomic.Uint64
}

func (o *swapPropertyObserver) fail(format string, args ...any) {
	o.mu.Lock()
	if o.violation == "" {
		o.violation = fmt.Sprintf(format, args...)
	}
	o.mu.Unlock()
}

func (o *swapPropertyObserver) install(p *Proxy, devices []string) {
	o.lastGen = make(map[string]*atomic.Uint64, len(devices))
	for _, d := range devices {
		o.lastGen[d] = new(atomic.Uint64)
	}
	p.swapHook = func(device string, art *ruleArtifact) {
		if art.meta.RulesSum != art.compiled.Checksum() {
			o.fail("%s: torn artifact: meta rules sum %#x, compiled arena %#x (generation %d)",
				device, art.meta.RulesSum, art.compiled.Checksum(), art.meta.Generation)
			return
		}
		g := o.lastGen[device]
		for {
			prev := g.Load()
			if art.meta.Generation < prev {
				o.fail("%s: artifact generation regressed %d -> %d", device, prev, art.meta.Generation)
				return
			}
			if g.CompareAndSwap(prev, art.meta.Generation) {
				return
			}
		}
	}
}

// TestConcurrentProcessAndHotSwap hammers the hot swap from three sides at
// once — reader goroutines streaming packets through Process, swapper
// goroutines hot-promoting identically-compiled artifacts, and a sweeper
// goroutine running the housekeeping tick — and asserts via the proxy's swap
// hook that no reader ever observes a torn artifact or a generation going
// backwards. Run under -race -count=2 in the swap-smoke CI job.
func TestConcurrentProcessAndHotSwap(t *testing.T) {
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(501)))
	if err != nil {
		t.Fatal(err)
	}
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute, Shards: 4})

	devices := make([]string, 8)
	for i := range devices {
		devices[i] = fmt.Sprintf("dev%d", i)
		// Distinct notification sizes keep every device's rule table, and so
		// every artifact identity, unique.
		if err := p.AddDevice(DeviceConfig{Name: devices[i], Classifier: RuleClassifier{NotificationSize: 200 + 10*i}, GraceN: 2}); err != nil {
			t.Fatal(err)
		}
	}
	obsv := &swapPropertyObserver{}
	obsv.install(p, devices)

	hb := func(i int, at time.Time) flows.Record {
		return flows.Record{
			Time: at, Size: 120 + i, Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudIP, RemoteDomain: "cloud.example",
			LocalPort: 40000, RemotePort: 443,
		}
	}
	// Learn a 1-minute heartbeat, then freeze + compile every device with one
	// post-bootstrap packet — arriving exactly one period after the last
	// learned beat — so each wears a generation-1 artifact.
	hbAt := clock.Now()
	for beat := 0; beat < 4; beat++ {
		for i, dev := range devices {
			if d := p.Process(dev, hb(i, hbAt), ""); d.Reason != ReasonBootstrap {
				t.Fatalf("bootstrap %s: %+v", dev, d)
			}
		}
		clock.Advance(time.Minute)
		hbAt = hbAt.Add(time.Minute)
	}
	clock.Advance(time.Minute)
	for i, dev := range devices {
		if d := p.Process(dev, hb(i, hbAt), ""); d.Reason != ReasonRuleHit {
			t.Fatalf("freeze %s: %+v", dev, d)
		}
		if _, ok := p.ArtifactMeta(dev); !ok {
			t.Fatalf("%s has no artifact after freeze", dev)
		}
	}

	// Concurrent phase. The clock stays still so the workload is pure
	// concurrency; decisions themselves are irrelevant here, only the
	// artifact views the swap hook audits.
	const (
		readers       = 4
		readerIters   = 300
		swappers      = 2
		swapIters     = 120
		sweeperSweeps = 60
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			at := clock.Now()
			for it := 0; it < readerIters; it++ {
				for i, dev := range devices {
					p.Process(dev, hb(i, at), "")
				}
			}
		}(r)
	}
	for s := 0; s < swappers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + s)))
			for it := 0; it < swapIters; it++ {
				dev := devices[rng.Intn(len(devices))]
				if _, err := p.PromoteIdentical(dev); err != nil {
					obsv.fail("PromoteIdentical(%s): %v", dev, err)
					return
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < sweeperSweeps; i++ {
			p.SweepPending()
		}
	}()
	wg.Wait()

	obsv.mu.Lock()
	violation := obsv.violation
	obsv.mu.Unlock()
	if violation != "" {
		t.Fatal(violation)
	}

	// The readers kept rule-hitting across every swap: a final heartbeat one
	// period later must still match, proving arrival state survived the
	// promotions via TransferArrival.
	clock.Advance(time.Minute)
	for i, dev := range devices {
		if d := p.Process(dev, hb(i, clock.Now()), ""); d.Reason != ReasonRuleHit {
			t.Fatalf("post-swap heartbeat %s: %+v", dev, d)
		}
	}
}

// TestRetiredArtifactIsCollected pins the retirement contract: a promotion
// overwrites the proxy's only pointer to the superseded generation, so the
// garbage collector takes it with no housekeeping tick in between. A
// finalizer on the live artifact must run within a bounded number of
// collections after PromoteIdentical.
func TestRetiredArtifactIsCollected(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.proxy.AddDevice(DeviceConfig{Name: "plug", Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1}); err != nil {
		t.Fatal(err)
	}
	r.feedHeartbeats(t, "plug", 25, time.Minute)
	if d := r.proxy.Process("plug", mkRec(r.clock.Now(), 128, flows.CategoryControl), ""); d.Verdict != Allow {
		t.Fatalf("post-bootstrap heartbeat: %+v", d)
	}
	live, ok := r.proxy.ArtifactMeta("plug")
	if !ok {
		t.Fatal("plug has no artifact after freeze")
	}

	collected := make(chan swap.Meta, 1)
	// A separate function, so no pointer to the live artifact survives on
	// this frame.
	func() {
		sh := r.proxy.shardFor("plug")
		sh.mu.Lock()
		art := sh.devices["plug"].art
		sh.mu.Unlock()
		runtime.SetFinalizer(art, func(a *ruleArtifact) { collected <- a.meta })
	}()
	meta, err := r.proxy.PromoteIdentical("plug")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Parent != live.Generation {
		t.Fatalf("promotion parent %d, want the live generation %d", meta.Parent, live.Generation)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case got := <-collected:
			if got != live {
				t.Fatalf("collected generation %+v, want the retired %+v", got, live)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("retired generation %d still reachable after 50 collections", live.Generation)
}
