package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

// asyncDiffProxy builds a differential arm: the shared device zoo with half
// the devices on packet-size rule classifiers and half wearing the trained
// compiled model, so a trace exercises both classifier engines on the
// batched body.
func asyncDiffProxy(t *testing.T, clock *simclock.VirtualClock, ks *keystore.Store, trained *MLClassifier, cfg Config) *Proxy {
	t.Helper()
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, cfg)
	for i, d := range diffDevices {
		dc := DeviceConfig{Name: d.name, GraceN: d.graceN}
		if i%2 == 0 {
			dc.Classifier = RuleClassifier{NotificationSize: d.size}
		} else {
			dc.Classifier = trained
		}
		if err := p.AddDevice(dc); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DAG().Allow("Alexa", "light"); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAsyncPipelineMatchesSequentialAndSharded is the engine differential
// the batched body must pass to be admissible: replaying seeded
// multi-device traces through a Process loop (Shards = 1) and the batched
// body must produce byte-identical per-packet decisions, flush decisions,
// audit logs, stats, lockout states, obs snapshots, and serialized proxy
// state.
func TestAsyncPipelineMatchesSequentialAndSharded(t *testing.T) {
	for _, seed := range []int64{7, 31, 71} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clock := simclock.NewVirtual()
			ks, err := keystore.New(rand.New(rand.NewSource(900 + seed)))
			if err != nil {
				t.Fatal(err)
			}
			phoneKS, err := keystore.New(rand.New(rand.NewSource(910 + seed)))
			if err != nil {
				t.Fatal(err)
			}
			offer, err := keystore.NewPairingOffer(ks, rand.New(rand.NewSource(920+seed)))
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

			arms := map[string]*Proxy{
				"seq":     asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 1}),
				"batched": asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 4}),
			}

			// The arms must actually diverge in classifier engine per device:
			// even-index devices wear rules, odd-index devices the compiled
			// model.
			for i, d := range diffDevices {
				ds := arms["batched"].devices[d.name]
				_, compiled := ds.classifier.(*compiledEventClassifier)
				if wantCompiled := i%2 == 1; compiled != wantCompiled {
					t.Fatalf("%s: compiled classifier = %v, want %v", d.name, compiled, wantCompiled)
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
					if got := arms["batched"].FlushEvent(dev); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: FlushEvent(%s): batched %+v, seq %+v", si, dev, got, want)
					}
				}
			}
			if arms["batched"].batcher.out == nil {
				t.Fatal("batched arm never ran a batch on the batched path")
			}

			want, got := decisions["seq"], decisions["batched"]
			if len(got) != len(want) {
				t.Fatalf("batched: %d decisions, seq %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("batched: decision %d = %+v, seq %+v", i, got[i], want[i])
				}
			}

			wantStats := arms["seq"].StatsSnapshot()
			if wantStats.EventsManual+wantStats.EventsNonManual == 0 || wantStats.RuleHits == 0 || wantStats.Dropped == 0 {
				t.Fatalf("trace misses pipeline branches: %+v", wantStats)
			}
			wantLog := arms["seq"].Log()
			wantSnap := arms["seq"].Metrics().Snapshot()
			wantState := arms["seq"].EncodeState()
			p := arms["batched"]
			if got := p.StatsSnapshot(); got != wantStats {
				t.Fatalf("batched: stats %+v, seq %+v", got, wantStats)
			}
			if got := p.Log(); !reflect.DeepEqual(got, wantLog) {
				t.Fatalf("batched: audit log diverges (%d entries, seq %d)", len(got), len(wantLog))
			}
			for _, d := range diffDevices {
				if got, want := p.Locked(d.name), arms["seq"].Locked(d.name); got != want {
					t.Fatalf("batched: Locked(%s)=%v, seq %v", d.name, got, want)
				}
			}
			if got := p.Metrics().Snapshot(); got != wantSnap {
				t.Fatalf("batched: obs snapshot diverges:\n%s", firstDiffLine(got, wantSnap))
			}
			if got := p.EncodeState(); !reflect.DeepEqual(got, wantState) {
				t.Fatalf("batched: serialized state diverges (%d bytes, seq %d)", len(got), len(wantState))
			}
		})
	}
}

// TestAsyncTinyRingBackpressure reruns the seed-31 trace, without
// attestations, on the batched body in batches of at most two packets:
// every trace step becomes many batches, so the arena reuse, the tally
// flush and the merge run at the highest rate the batched body sees.
// Decisions, logs, and stats must still match the Process loop fed the same
// batches, and the outcome arena may not grow past the batch size.
func TestAsyncTinyRingBackpressure(t *testing.T) {
	const seed = 31
	const chunk = 2
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(930)))
	if err != nil {
		t.Fatal(err)
	}
	trained := trainDiffClassifier(t, seed)
	seq := asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 1})
	batched := asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 4})

	handoffs := 0
	for si, s := range buildSeededTrace(clock.Now(), rand.New(rand.NewSource(seed))) {
		clock.Advance(s.Advance)
		for lo := 0; lo < len(s.Batch); lo += chunk {
			batch := s.Batch[lo:min(lo+chunk, len(s.Batch))]
			wantD := seq.ProcessBatch(batch)
			gotD := batched.ProcessBatch(batch)
			if !reflect.DeepEqual(gotD, wantD) {
				t.Fatalf("step %d, packets %d..: batch decisions diverge", si, lo)
			}
			handoffs++
		}
		for _, dev := range s.Flush {
			want := seq.FlushEvent(dev)
			if got := batched.FlushEvent(dev); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: FlushEvent(%s): batched %+v, seq %+v", si, dev, got, want)
			}
		}
	}
	if got, want := batched.StatsSnapshot(), seq.StatsSnapshot(); got != want {
		t.Fatalf("stats diverge:\nbatched %+v\nseq     %+v", got, want)
	}
	if got, want := batched.Log(), seq.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("audit logs diverge (batched %d entries, seq %d)", len(got), len(want))
	}
	if want := seq.StatsSnapshot(); want.Packets < 50 || handoffs < 25 {
		t.Fatalf("trace too small for many hand-offs: %d batches, %+v", handoffs, want)
	}
	if batched.batcher.out == nil {
		t.Fatal("no batch ran on the batched path")
	}
	if got := cap(batched.batcher.out); got > chunk {
		t.Fatalf("outcome arena grew to %d slots on batches of %d", got, chunk)
	}
}

// TestAsyncLopsidedBatchWakes feeds the batched body batches that hold
// the packets of one device only, then one batch of more than 1,024 of that
// device's packets, so the outcome arena grows well past any warm size
// mid-run and a single device is decided over a long run of arena slots.
// Decisions, logs, and stats must match the Process loop fed the same
// batches. It runs on a device wearing a packet-size rule classifier
// ("producer-shard") and on one wearing the compiled model
// ("goroutine-shard"); the arm names date from an engine that split each
// batch across hash-assigned shards.
func TestAsyncLopsidedBatchWakes(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  int // index into diffDevices: even wears rules, odd the model
	}{{"producer-shard", 0}, {"goroutine-shard", 1}} {
		t.Run(tc.name, func(t *testing.T) { lopsidedBatchWakes(t, diffDevices[tc.dev].name) })
	}
}

// lopsidedBatchWakes is one arm of TestAsyncLopsidedBatchWakes: every batch
// carries only hot's packets.
func lopsidedBatchWakes(t *testing.T, hot string) {
	const seed = 71
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(960)))
	if err != nil {
		t.Fatal(err)
	}
	trained := trainDiffClassifier(t, seed)
	seq := asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 1})
	batched := asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute})

	step := func(si int, batch []PacketIn, flush []string) {
		t.Helper()
		wantD := seq.ProcessBatch(batch)
		gotD := batched.ProcessBatch(batch)
		if !reflect.DeepEqual(gotD, wantD) {
			t.Fatalf("step %d: batch decisions diverge:\nbatched %+v\nseq     %+v", si, gotD, wantD)
		}
		for _, dev := range flush {
			want := seq.FlushEvent(dev)
			if got := batched.FlushEvent(dev); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: FlushEvent(%s): batched %+v, seq %+v", si, dev, got, want)
			}
		}
	}
	trace := buildSeededTrace(clock.Now(), rand.New(rand.NewSource(seed)))
	var hotPackets []PacketIn
	var span time.Duration
	for si, s := range trace {
		clock.Advance(s.Advance)
		span += s.Advance
		var batch []PacketIn
		for _, pk := range s.Batch {
			if pk.Device == hot {
				batch = append(batch, pk)
			}
		}
		hotPackets = append(hotPackets, batch...)
		step(si, batch, s.Flush)
	}
	if batched.batcher.out == nil {
		t.Fatal("no batch ran on the batched path")
	}
	if len(hotPackets) == 0 {
		t.Fatalf("%s saw no packets", hot)
	}
	warm := cap(batched.batcher.out)

	// One oversized batch: the device's whole trace, replayed in later
	// copies until it passes 1,024 packets, each copy shifted past the last.
	var big []PacketIn
	for r := 1; len(big) <= 1024; r++ {
		for _, pk := range hotPackets {
			pk.Rec.Time = pk.Rec.Time.Add(time.Duration(r) * (span + time.Hour))
			big = append(big, pk)
		}
	}
	clock.Advance(span + time.Hour)
	step(len(trace), big, []string{hot})
	if got := cap(batched.batcher.out); got < len(big) || warm >= len(big) {
		t.Fatalf("outcome arena holds %d slots after a %d-packet batch (warm size %d), want it grown", got, len(big), warm)
	}

	if got, want := batched.StatsSnapshot(), seq.StatsSnapshot(); got != want {
		t.Fatalf("stats diverge:\nbatched %+v\nseq     %+v", got, want)
	}
	if want := seq.StatsSnapshot(); want.RuleHits == 0 || want.EventsManual+want.EventsNonManual == 0 {
		t.Fatalf("filtered trace misses pipeline branches: %+v", want)
	}
	if got, want := batched.Log(), seq.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("audit logs diverge (batched %d entries, seq %d)", len(got), len(want))
	}
}

// TestProxyCloseDuringBatches races Close against a ProcessBatch loop on
// the batched body. Close is a no-op kept for an old caller: two concurrent
// calls must return without waiting on the batches, and every batch —
// before, during, and after them — must run on the batched path and decide
// exactly as a Shards=1 proxy does.
func TestProxyCloseDuringBatches(t *testing.T) {
	const seed = 7
	ks, err := keystore.New(rand.New(rand.NewSource(940)))
	if err != nil {
		t.Fatal(err)
	}
	trained := trainDiffClassifier(t, seed)
	seqClock, ringClock := simclock.NewVirtual(), simclock.NewVirtual()
	seq := asyncDiffProxy(t, seqClock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 1})
	ring := asyncDiffProxy(t, ringClock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 4})
	trace := buildSeededTrace(seqClock.Now(), rand.New(rand.NewSource(seed)))
	if len(trace) < 3 {
		t.Fatalf("trace of %d steps cannot straddle Close", len(trace))
	}

	var got []Decision
	step := func(s diffStep) {
		ringClock.Advance(s.Advance)
		got = append(got, ring.ProcessBatch(s.Batch)...)
		for _, dev := range s.Flush {
			ring.FlushEvent(dev)
		}
	}
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for si, s := range trace[:len(trace)-1] {
			step(s)
			if si == 0 {
				close(started)
			}
		}
	}()
	<-started
	var closers sync.WaitGroup
	for i := 0; i < 2; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			ring.Close()
		}()
	}
	closers.Wait()
	<-done
	step(trace[len(trace)-1]) // certainly after Close
	if ring.batcher.out == nil {
		t.Fatal("no batch ran on the batched path")
	}

	var want []Decision
	for _, s := range trace {
		seqClock.Advance(s.Advance)
		want = append(want, seq.ProcessBatch(s.Batch)...)
		for _, dev := range s.Flush {
			seq.FlushEvent(dev)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions diverge from the Shards=1 proxy (%d vs %d)", len(got), len(want))
	}
	if g, w := ring.StatsSnapshot(), seq.StatsSnapshot(); g != w {
		t.Fatalf("stats diverge:\nring %+v\nseq  %+v", g, w)
	}
	if !reflect.DeepEqual(ring.Log(), seq.Log()) {
		t.Fatal("audit logs diverge from the Shards=1 proxy")
	}
}

// TestProxyWorkersStartLazily: neither building a proxy nor running a batch
// on the batched body starts a goroutine; the batch is decided on the
// calling goroutine. The check counts only goroutines running this
// package's or internal/durable's code outside test files (see
// engineGoroutines), and waits up to 1 s for such a goroutine to exit.
func TestProxyWorkersStartLazily(t *testing.T) {
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := keystore.New(rand.New(rand.NewSource(950)))
	if err != nil {
		t.Fatal(err)
	}
	noneStarted := func(after string) {
		t.Helper()
		for i := 0; ; i++ {
			gs := engineGoroutines()
			if len(gs) == 0 {
				return
			}
			if i == 1000 {
				t.Fatalf("%d engine goroutines after %s, want none:\n%s", len(gs), after, strings.Join(gs, "\n\n"))
			}
			time.Sleep(time.Millisecond)
		}
	}
	p := NewProxy(simclock.NewVirtual(), ks, validator, Config{})
	noneStarted("NewProxy")

	// Unregistered devices fail open, but the batched body still looks
	// each of them up under the device mutex.
	var batch []PacketIn
	for i := 0; i < 8; i++ {
		batch = append(batch, PacketIn{Device: fmt.Sprintf("ghost%d", i)})
	}
	for i, d := range p.ProcessBatch(batch) {
		if d.Verdict != Allow {
			t.Fatalf("unregistered device packet %d = %+v, want allow", i, d)
		}
	}
	if p.batcher.out == nil {
		t.Fatal("the batch did not run on the batched path")
	}
	noneStarted("a batch")
}

// engineGoroutines returns the stack of every live goroutine that runs
// code of internal/core or internal/durable and no test code: a goroutine
// the engine itself started. Counting goroutines process-wide would also
// see the runtime's and other tests' goroutines.
func engineGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if engineFrame.MatchString(g) && !strings.Contains(g, "_test.go:") {
			out = append(out, g)
		}
	}
	return out
}

// engineFrame matches a stack frame, or a "created by" line, in
// internal/core or internal/durable.
var engineFrame = regexp.MustCompile(`(?m)^(created by )?fiat/internal/(core|durable)\.`)
