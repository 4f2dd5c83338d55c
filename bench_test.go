package fiat

// The benchmark harness: one testing.B benchmark per paper table/figure
// (each runs the corresponding experiment end-to-end and reports its
// headline metric), plus micro-benchmarks of the pipeline hot paths. Run
//
//	go test -bench=. -benchmem
//
// The regenerated tables themselves come from cmd/fiatbench; these
// benchmarks measure how fast the reproduction produces them and guard the
// key metrics.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"fiat/internal/core"
	"fiat/internal/dataset"
	"fiat/internal/devices"
	"fiat/internal/events"
	"fiat/internal/experiments"
	"fiat/internal/features"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/ml"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
)

// benchScale is small enough for iterated runs yet large enough for the
// metrics to be meaningful.
func benchScale(seed int64) experiments.Scale {
	return experiments.Scale{
		Seed:      seed,
		YTDevices: 12, YTDuration: 6 * time.Hour,
		MonDevices: 8, MonDuration: 3 * time.Hour,
		TestbedDays: 4, ManualPerDay: 6,
		CVSeeds: 1, PermRepeats: 5,
		Table6Ops: 25, HumanWindows: 200, Table7Runs: 2,
	}
}

// runExperiment drives one experiment per iteration at a fixed seed: the
// first iteration builds the corpora (memoized by internal/experiments),
// so the steady-state measurement is "regenerate the table from a warm
// corpus" — and the benchmark cannot be inflated into re-generating a
// fresh multi-day corpus hundreds of times.
func runExperiment(b *testing.B, fn func(experiments.Scale) experiments.Result, metric string) {
	b.Helper()
	sc := benchScale(100)
	fn(sc) // warm the corpus caches outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		r := fn(sc)
		last = r.Metrics[metric]
	}
	b.ReportMetric(last, metric)
}

func BenchmarkFig1aFlowTimeline(b *testing.B) {
	runExperiment(b, experiments.Fig1a, "flows")
}

func BenchmarkFig1bPredictabilityCDF(b *testing.B) {
	runExperiment(b, experiments.Fig1b, "yourthings_portless_p20")
}

func BenchmarkFig1cMaxIntervals(b *testing.B) {
	runExperiment(b, experiments.Fig1c, "within_5min_fraction")
}

func BenchmarkInspectorAggregates(b *testing.B) {
	runExperiment(b, experiments.Inspector, "aggregate_median")
}

func BenchmarkFig2TestbedPredictability(b *testing.B) {
	runExperiment(b, experiments.Fig2, "HomeMini_control")
}

func BenchmarkCommandCompletionN(b *testing.B) {
	runExperiment(b, experiments.CompletionN, "max_N")
}

func BenchmarkTable2ModelSelection(b *testing.B) {
	runExperiment(b, experiments.Table2, "bernoulli-naive-bayes")
}

func BenchmarkTable3PerDevice(b *testing.B) {
	runExperiment(b, experiments.Table3, "WyzeCam-DE_bnb_f1")
}

func BenchmarkTable4PermImportance(b *testing.B) {
	runExperiment(b, experiments.Table4, "top_importance")
}

func BenchmarkTable5Transfer(b *testing.B) {
	runExperiment(b, experiments.Table5, "WyzeCam_US-JP_bnb")
}

func BenchmarkTable6Accuracy(b *testing.B) {
	runExperiment(b, experiments.Table6, "worst_fn")
}

func BenchmarkTable7Latency(b *testing.B) {
	runExperiment(b, experiments.Table7, "min_speedup_lan")
}

func BenchmarkVerdictDelayTolerance(b *testing.B) {
	runExperiment(b, experiments.DelayTolerance, "max_delay_all_ok_seconds")
}

// Ablation benches.

func BenchmarkAblationBucketing(b *testing.B) {
	runExperiment(b, experiments.AblationBucketing, "mean_delta")
}

func BenchmarkAblationGapThreshold(b *testing.B) {
	runExperiment(b, experiments.AblationGap, "f1_gap_5s")
}

func BenchmarkAblationHeadN(b *testing.B) {
	runExperiment(b, experiments.AblationHeadN, "f1_n5")
}

func BenchmarkAblationBootstrapWindow(b *testing.B) {
	runExperiment(b, experiments.AblationBootstrap, "hit_rate_20m")
}

func BenchmarkAblationTransport(b *testing.B) {
	runExperiment(b, experiments.AblationTransport, "LAN_q0_ms")
}

// Micro-benchmarks of the proxy's per-packet hot paths.

func benchRecords(n int) []flows.Record {
	p := devices.ByName("HomeMini")
	recs := p.Generate(simclock.NewRNG(1), devices.TraceOptions{
		Start: simclock.Epoch, Duration: 48 * time.Hour, ManualPerDay: 8, Routines: true,
	})
	for len(recs) < n {
		recs = append(recs, recs...)
	}
	return recs[:n]
}

func BenchmarkAnalyzerObserve(b *testing.B) {
	recs := benchRecords(b.N)
	a := flows.NewAnalyzer(flows.ModePortLess)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Observe(recs[i])
	}
}

func BenchmarkEventGrouping(b *testing.B) {
	recs := benchRecords(b.N)
	g := events.NewGrouper(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Add(recs[i])
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	recs := benchRecords(2000)
	evs := events.Group(recs[:2000], 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.Extract(evs[i%len(evs)])
	}
}

func BenchmarkBernoulliNBPredict(b *testing.B) {
	traces := dataset.Testbed(dataset.TestbedOptions{Days: 3, ManualPerDay: 6, Seed: 1})
	tr, _ := dataset.FindTrace(traces, "HomeMini-US")
	evs := tr.Events(flows.ModePortLess)
	X := features.ExtractAll(evs)
	y := features.MulticlassLabels(evs)
	var scaler ml.StandardScaler
	Xs, err := scaler.FitTransform(X)
	if err != nil {
		b.Fatal(err)
	}
	clf := &ml.BernoulliNB{}
	if err := clf.Fit(Xs, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.PredictOne(clf, Xs[i%len(Xs)])
	}
}

func BenchmarkHumannessValidation(b *testing.B) {
	v, gen, err := sensors.DefaultValidator(7)
	if err != nil {
		b.Fatal(err)
	}
	feats := sensors.Features(gen.Human())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Validate(feats)
	}
}

func BenchmarkSensorFeatureExtraction(b *testing.B) {
	gen := sensors.NewGenerator(simclock.NewRNG(1))
	w := gen.Human()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sensors.Features(w)
	}
}

func BenchmarkProxyProcessPredictable(b *testing.B) {
	clock := simclock.NewVirtual()
	sys, err := NewSystem(Options{Clock: clock, Rand: rand.New(rand.NewSource(1)), Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AddSimpleDevice("plug", 235); err != nil {
		b.Fatal(err)
	}
	cloud := netip.MustParseAddr("52.1.1.1")
	rec := func() Record {
		return Record{
			Time: clock.Now(), Size: 128, Proto: "tcp", Dir: flows.DirOutbound,
			RemoteIP: cloud, RemoteDomain: "cloud.example",
			LocalPort: 40000, RemotePort: 443, Category: flows.CategoryControl,
		}
	}
	for i := 0; i < 25; i++ {
		sys.Proxy.Process("plug", rec(), "")
		clock.Advance(time.Minute)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(time.Minute)
		sys.Proxy.Process("plug", rec(), "")
	}
}

func BenchmarkAttestationRoundTrip(b *testing.B) {
	clock := simclock.NewVirtual()
	sys, err := NewSystem(Options{Clock: clock, Rand: rand.New(rand.NewSource(1)), Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	phone, err := sys.PairPhone()
	if err != nil {
		b.Fatal(err)
	}
	phone.App.BindApp("app", "dev")
	w := phone.Sensors.Human()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err := phone.App.Attest("app", w)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Proxy.HandleAttestation(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleNewSystem() {
	sys, err := NewSystem(Options{Rand: rand.New(rand.NewSource(1)), Seed: 7})
	if err != nil {
		panic(err)
	}
	if err := sys.AddSimpleDevice("plug", 235); err != nil {
		panic(err)
	}
	fmt.Println("protected devices ready:", sys.Proxy.Bootstrapped() == false)
	// Output: protected devices ready: true
}

func BenchmarkAblationHumanness(b *testing.B) {
	runExperiment(b, experiments.AblationHumanness, "random-forest-human")
}

// Engine throughput.

// benchHumanValidator trains the humanness model once for every engine
// throughput sub-benchmark; the training cost is setup, not engine work.
var benchHumanValidator = struct {
	sync.Once
	v   *sensors.Validator
	err error
}{}

func benchValidator(b *testing.B) *sensors.Validator {
	b.Helper()
	benchHumanValidator.Do(func() {
		benchHumanValidator.v, _, benchHumanValidator.err = sensors.DefaultValidator(1)
	})
	if benchHumanValidator.err != nil {
		b.Fatal(benchHumanValidator.err)
	}
	return benchHumanValidator.v
}

// benchEngineProxy measures the engine's steady-state rule-hit path: every
// iteration advances the virtual clock one heartbeat period and decides one
// batch carrying a periodic heartbeat per device. shards is Config.Shards:
// 1 makes ProcessBatch a Process call per packet, 0 runs the batched body,
// which takes the device mutex once per batch.
func benchEngineProxy(b *testing.B, nDev, shards int) {
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	proxy := core.NewProxy(clock, ks, benchValidator(b), core.Config{
		Bootstrap: 10 * time.Minute, Shards: shards,
	})
	cloud := netip.MustParseAddr("52.1.1.1")
	names := make([]string, nDev)
	for i := range names {
		names[i] = fmt.Sprintf("dev%02d", i)
		if err := proxy.AddDevice(core.DeviceConfig{
			Name: names[i], Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	hb := func(name string, at time.Time) core.PacketIn {
		return core.PacketIn{Device: name, Rec: flows.Record{
			Time: at, Size: 128, Proto: "tcp", Dir: flows.DirOutbound,
			RemoteIP: cloud, RemoteDomain: "cloud.example",
			LocalPort: 40000, RemotePort: 443, Category: flows.CategoryControl,
		}}
	}
	// Learn a one-second heartbeat period through the bootstrap window.
	for tick := 0; tick < 30; tick++ {
		batch := make([]core.PacketIn, nDev)
		for i, name := range names {
			batch[i] = hb(name, clock.Now())
		}
		proxy.ProcessBatch(batch)
		clock.Advance(time.Second)
	}
	clock.Advance(10 * time.Minute) // past the bootstrap window
	// Steady state: each iteration decides one batch of perDev on-period
	// heartbeats per device, then advances the clock past the batch.
	const perDev = 32
	batch := make([]core.PacketIn, 0, nDev*perDev)
	feed := func() []core.Decision {
		batch = batch[:0]
		base := clock.Now()
		for k := 0; k < perDev; k++ {
			at := base.Add(time.Duration(k) * time.Second)
			for _, name := range names {
				batch = append(batch, hb(name, at))
			}
		}
		return proxy.ProcessBatch(batch)
	}
	warm := feed() // resynchronizes each bucket's period clock, then verify
	clock.Advance(perDev * time.Second)
	for i, d := range feed() {
		if d.Reason != core.ReasonRuleHit {
			b.Fatalf("steady state not on the rule-hit path: packet %d: %+v", i, d)
		}
	}
	_ = warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(perDev * time.Second)
		feed()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*nDev*perDev)/s, "packets/s")
	}
}

// BenchmarkProxyShardedThroughput sweeps fleet size against engine: a
// Process loop (engine=process) against the batched body (engine=batched),
// which takes the device mutex and p.mu once per batch instead of once per
// packet. Compare packets/s within a device count. The name dates from the
// sharded engine the batched body replaced.
func BenchmarkProxyShardedThroughput(b *testing.B) {
	for _, nDev := range []int{1, 4, 8, 16} {
		for _, eng := range []struct {
			name   string
			shards int
		}{{"process", 1}, {"batched", 0}} {
			b.Run(fmt.Sprintf("devices=%d/engine=%s", nDev, eng.name), func(b *testing.B) {
				benchEngineProxy(b, nDev, eng.shards)
			})
		}
	}
}
