package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

// asyncDiffProxy builds a differential arm: the shared device zoo with half
// the devices on packet-size rule classifiers and half wearing the trained
// compiled model, so a trace exercises both classifier engines on the
// batched multi-shard path.
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
// the multi-shard pipeline must pass to be admissible: replaying seeded
// multi-device traces through the sequential engine (1 shard) and the
// batched engine (4 shards) must produce byte-identical per-packet
// decisions, flush decisions, audit logs, stats, lockout states, obs
// snapshots, and serialized proxy state.
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
				"sharded": asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 4}),
			}

			// The arms must actually diverge in classifier engine per device:
			// even-index devices wear rules, odd-index devices the compiled
			// model.
			for i, d := range diffDevices {
				ds := arms["sharded"].shardFor(d.name).devices[d.name]
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
					if got := arms["sharded"].FlushEvent(dev); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: FlushEvent(%s): sharded %+v, seq %+v", si, dev, got, want)
					}
				}
			}
			if arms["sharded"].batcher.idx == nil {
				t.Fatal("sharded arm never ran a batch on the batched path")
			}

			want, got := decisions["seq"], decisions["sharded"]
			if len(got) != len(want) {
				t.Fatalf("sharded: %d decisions, seq %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sharded: decision %d = %+v, seq %+v", i, got[i], want[i])
				}
			}

			wantStats := arms["seq"].StatsSnapshot()
			if wantStats.EventsManual+wantStats.EventsNonManual == 0 || wantStats.RuleHits == 0 || wantStats.Dropped == 0 {
				t.Fatalf("trace misses pipeline branches: %+v", wantStats)
			}
			wantLog := arms["seq"].Log()
			wantSnap := arms["seq"].Metrics().Snapshot()
			wantState := arms["seq"].EncodeState()
			p := arms["sharded"]
			if got := p.StatsSnapshot(); got != wantStats {
				t.Fatalf("sharded: stats %+v, seq %+v", got, wantStats)
			}
			if got := p.Log(); !reflect.DeepEqual(got, wantLog) {
				t.Fatalf("sharded: audit log diverges (%d entries, seq %d)", len(got), len(wantLog))
			}
			for _, d := range diffDevices {
				if got, want := p.Locked(d.name), arms["seq"].Locked(d.name); got != want {
					t.Fatalf("sharded: Locked(%s)=%v, seq %v", d.name, got, want)
				}
			}
			if got := p.Metrics().Snapshot(); got != wantSnap {
				t.Fatalf("sharded: obs snapshot diverges:\n%s", firstDiffLine(got, wantSnap))
			}
			if got := p.EncodeState(); !reflect.DeepEqual(got, wantState) {
				t.Fatalf("sharded: serialized state diverges (%d bytes, seq %d)", len(got), len(wantState))
			}
		})
	}
}

// TestAsyncTinyRingBackpressure reruns the seed-31 trace, without
// attestations, on four shards in batches of at most two packets: every
// trace step becomes many batches, each touching at most two of the four
// shards, so the list reset, the skip of idle shards, the tally flush and
// the merge run at the highest rate the batched path sees. Decisions, logs,
// and stats must still match the sequential engine fed the same batches,
// and no shard's index list may grow past the batch size.
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
	sharded := asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 4})

	handoffs := 0
	for si, s := range buildSeededTrace(clock.Now(), rand.New(rand.NewSource(seed))) {
		clock.Advance(s.Advance)
		for lo := 0; lo < len(s.Batch); lo += chunk {
			batch := s.Batch[lo:min(lo+chunk, len(s.Batch))]
			wantD := seq.ProcessBatch(batch)
			gotD := sharded.ProcessBatch(batch)
			if !reflect.DeepEqual(gotD, wantD) {
				t.Fatalf("step %d, packets %d..: batch decisions diverge", si, lo)
			}
			handoffs++
		}
		for _, dev := range s.Flush {
			want := seq.FlushEvent(dev)
			if got := sharded.FlushEvent(dev); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: FlushEvent(%s): sharded %+v, seq %+v", si, dev, got, want)
			}
		}
	}
	if got, want := sharded.StatsSnapshot(), seq.StatsSnapshot(); got != want {
		t.Fatalf("stats diverge:\nsharded %+v\nseq     %+v", got, want)
	}
	if got, want := sharded.Log(), seq.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("audit logs diverge (sharded %d entries, seq %d)", len(got), len(want))
	}
	if want := seq.StatsSnapshot(); want.Packets < 50 || handoffs < 25 {
		t.Fatalf("trace too small for many hand-offs: %d batches, %+v", handoffs, want)
	}
	if sharded.batcher.idx == nil {
		t.Fatal("no batch ran on the batched path")
	}
	for i, idx := range sharded.batcher.idx {
		if got := cap(idx); got > chunk {
			t.Fatalf("shard %d index list grew to %d slots on batches of %d", i, got, chunk)
		}
	}
}

// TestAsyncLopsidedBatchWakes feeds the four-shard pipeline batches that
// hold only the packets of one shard's devices, so every other shard has an
// empty index list and must be left alone: its lock is not taken. The test
// holds every other shard's mutex across each sharded batch, so touching an
// idle shard would block the batch. It runs twice: with shard 0 hot
// ("producer-shard"), so every idle shard comes after the hot one in the
// batch's shard walk, and with a later shard hot ("goroutine-shard"), so the
// walk skips shard 0 first. The arm names date from an engine that ran
// shard 0 on the calling goroutine and the others on worker goroutines.
// The last batch holds more than 1,024 of the hot shard's packets, so the
// index list and the outcome arena grow well past any warm size mid-run.
// Decisions, logs, and stats must match the sequential engine fed the same
// batches.
func TestAsyncLopsidedBatchWakes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first bool
	}{{"producer-shard", true}, {"goroutine-shard", false}} {
		t.Run(tc.name, func(t *testing.T) { lopsidedBatchWakes(t, tc.first) })
	}
}

// lopsidedBatchWakes is one arm of TestAsyncLopsidedBatchWakes: with first
// set, the hot shard is shard 0; otherwise it is the shard after it that
// owns the most devices.
func lopsidedBatchWakes(t *testing.T, first bool) {
	const seed = 71
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(960)))
	if err != nil {
		t.Fatal(err)
	}
	trained := trainDiffClassifier(t, seed)
	seq := asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 1})
	sharded := asyncDiffProxy(t, clock, ks, trained, Config{Bootstrap: 5 * time.Minute, Shards: 4})

	var owned [4]int
	for _, d := range diffDevices {
		owned[sharded.shardIndex(d.name)]++
	}
	hot := 0
	if !first {
		hot = 1
		for si := 2; si < len(owned); si++ {
			if owned[si] > owned[hot] {
				hot = si
			}
		}
	}
	if owned[hot] == 0 {
		t.Fatalf("hot shard %d owns no device (%v)", hot, owned)
	}

	// shardedIdleLocked runs the batch on the sharded proxy while holding
	// the mutex of every shard but the hot one.
	shardedIdleLocked := func(si int, batch []PacketIn) []Decision {
		t.Helper()
		for i, sh := range sharded.shards {
			if i != hot {
				sh.mu.Lock()
				defer sh.mu.Unlock()
			}
		}
		done := make(chan []Decision, 1)
		go func() { done <- sharded.ProcessBatch(batch) }()
		select {
		case d := <-done:
			return d
		case <-time.After(time.Minute):
			t.Fatalf("step %d: batch of hot shard %d blocked on an idle shard", si, hot)
			return nil
		}
	}
	step := func(si int, batch []PacketIn, flush []string) {
		t.Helper()
		wantD := seq.ProcessBatch(batch)
		gotD := shardedIdleLocked(si, batch)
		if !reflect.DeepEqual(gotD, wantD) {
			t.Fatalf("step %d: batch decisions diverge:\nsharded %+v\nseq     %+v", si, gotD, wantD)
		}
		for _, dev := range flush {
			want := seq.FlushEvent(dev)
			if got := sharded.FlushEvent(dev); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: FlushEvent(%s): sharded %+v, seq %+v", si, dev, got, want)
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
			if sharded.shardIndex(pk.Device) == hot {
				batch = append(batch, pk)
			}
		}
		hotPackets = append(hotPackets, batch...)
		step(si, batch, s.Flush)
	}
	if sharded.batcher.idx == nil {
		t.Fatal("no batch ran on the batched path")
	}
	if len(hotPackets) == 0 {
		t.Fatal("the hot shard saw no packets")
	}

	// One oversized batch: the hot shard's whole trace, replayed in later
	// copies until it passes 1,024 packets, each copy shifted past the last.
	var big []PacketIn
	var flush []string
	for r := 1; len(big) <= 1024; r++ {
		for _, pk := range hotPackets {
			pk.Rec.Time = pk.Rec.Time.Add(time.Duration(r) * (span + time.Hour))
			big = append(big, pk)
		}
	}
	for _, d := range diffDevices {
		if sharded.shardIndex(d.name) == hot {
			flush = append(flush, d.name)
		}
	}
	clock.Advance(span + time.Hour)
	step(len(trace), big, flush)
	if got := len(sharded.batcher.idx[hot]); got != len(big) {
		t.Fatalf("hot shard's index list holds %d packets, want %d", got, len(big))
	}

	if got, want := sharded.StatsSnapshot(), seq.StatsSnapshot(); got != want {
		t.Fatalf("stats diverge:\nsharded %+v\nseq     %+v", got, want)
	}
	if want := seq.StatsSnapshot(); want.RuleHits == 0 || want.EventsManual+want.EventsNonManual == 0 {
		t.Fatalf("filtered trace misses pipeline branches: %+v", want)
	}
	if got, want := sharded.Log(), seq.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("audit logs diverge (sharded %d entries, seq %d)", len(got), len(want))
	}
}

// TestProxyCloseDuringBatches races Close against a ProcessBatch loop on a
// four-shard proxy. Close is a no-op kept for an old caller: two concurrent
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
	if ring.batcher.idx == nil {
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

// TestProxyWorkersStartLazily: neither building an eight-shard proxy nor
// running a batch with packets on all eight shards starts a goroutine. The
// batched path decides every shard on the calling goroutine. The check is
// process-wide, so it waits up to 1 s for a count above the baseline to
// fall back, which tolerates a finalizer run by the garbage collector
// meanwhile; a goroutine the proxy started would stay.
func TestProxyWorkersStartLazily(t *testing.T) {
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := keystore.New(rand.New(rand.NewSource(950)))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	noneStarted := func(after string) {
		t.Helper()
		for i := 0; runtime.NumGoroutine() > base; i++ {
			if i == 1000 {
				t.Fatalf("%d goroutines after %s, want <= %d", runtime.NumGoroutine(), after, base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	p := NewProxy(simclock.NewVirtual(), ks, validator, Config{Shards: 8})
	noneStarted("NewProxy")

	// Unregistered devices fail open, but the batched path still takes each
	// of their shards' locks; pick names until every shard has a packet.
	var batch []PacketIn
	var covered [8]bool
	for i, n := 0, 0; n < len(covered); i++ {
		dev := fmt.Sprintf("ghost%d", i)
		if s := p.shardIndex(dev); !covered[s] {
			covered[s] = true
			n++
			batch = append(batch, PacketIn{Device: dev})
		}
	}
	for i, d := range p.ProcessBatch(batch) {
		if d.Verdict != Allow {
			t.Fatalf("unregistered device packet %d = %+v, want allow", i, d)
		}
	}
	if p.batcher.idx == nil {
		t.Fatal("the batch did not run on the batched path")
	}
	noneStarted("an eight-shard batch")
}
