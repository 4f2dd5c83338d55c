// Command gwbench is the FIAT gateway benchmark. It generates one
// workload's inputs from a seed — raw frames, phone sensor windows and
// housekeeping ops — and drives the gateway through its public functions
// only: frames through packet.Decode, devices.RecordFromFrame and
// core.Proxy.ProcessBatchInto (or durable.Manager.ProcessBatch);
// attestations through core.ClientApp.Attest, quicfast.Client.Deliver over
// loopback UDP and core.Proxy.HandleAttestation. It checks every verdict
// against the workload's oracle and against an untimed Shards=1 replay of
// the same inputs, and prints every metric by name with its unit.
//
//	bash gwbench/run.sh --workload home-steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line holds the end-to-end metrics; with --trace
// 1 it holds the per-layer metrics of a traced run, whose spans are written
// to --trace-out. See README.md for what each metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// spec is one workload.
type spec struct {
	name      string
	gen       func(seed int64) *stream
	openRate  float64 // offered frames per second in the open loop
	transport bool    // a paired phone attests over quicfast
	durable   bool    // WAL, checkpoints and a pulled-plug restart
	relearn   bool
}

var specs = []spec{
	{name: "home-steady", gen: homeSteady, openRate: 50000},
	{name: "interactive", gen: interactive, openRate: 25000, transport: true},
	{name: "lifecycle", gen: lifecycle, openRate: 60000, durable: true, relearn: true},
}

// setups is how many times a run builds its gateway; setup_s is their median.
const setups = 5

// closedSlices splits the closed loop into equal slices; its metrics are
// the median slice.
const closedSlices = 15

// maxGenLate is the generator's own lateness (p99) beyond which an open
// loop measured the generator, not the proxy; the run's metadata then
// marks it invalid.
const maxGenLate = time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Metric names and units, in BENCHMARK.json order.
var endToEnd = [][2]string{
	{"cpu_us_per_frame", "us"}, {"heap_peak_mib", "MiB"}, {"setup_s", "s"},
}

var perLayer = [][2]string{
	{"frames_per_s", "1/s"}, {"verdict_p50_us", "us"}, {"verdict_p99_us", "us"},
	{"packet.ns_per_frame", "ns"}, {"packet.allocs_per_frame", "count"}, {"packet.unresolved_frac", "frac"},
	{"core.ns_per_packet", "ns"}, {"core.batch_p99_us", "us"}, {"core.allocs_per_batch", "count"},
	{"core.rule_hit_frac", "frac"}, {"core.event_frac", "frac"},
	{"core.events_manual", "count"}, {"core.events_non_manual", "count"}, {"core.locked_devices_max", "count"},
	{"attest_p50_us", "us"}, {"attest_p99_us", "us"},
	{"client.attest_us_p50", "us"}, {"quicfast.deliver_us_p50", "us"}, {"quicfast.zero_rtt_frac", "frac"},
	{"quicfast.retransmits", "count"}, {"attest.handle_us_p50", "us"}, {"attest.ok", "count"}, {"attest.bad", "count"},
	{"restart_ms", "ms"}, {"durable.batch_us_p50", "us"}, {"durable.wal_bytes_per_frame", "B"},
	{"durable.checkpoint_ms", "ms"}, {"durable.snapshot_bytes", "B"}, {"durable.open_ms", "ms"},
	{"durable.replayed_ops", "count"},
	{"swap.sweep_us_max", "us"}, {"swap.relearns", "count"}, {"swap.promotions", "count"},
	{"swap.shadow_packets", "count"}, {"swap.shadow_mismatches", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"gen.late_p99_us", "us"}, {"gen.backlog_max", "count"},
	{"trace.overhead_frac", "frac"}, {"trace.coverage_min", "frac"}, {"failed_frac", "frac"},
}

func main() {
	workload := flag.String("workload", "", "workload: home-steady, interactive or lifecycle")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	stateDir := flag.String("state-dir", ".bench_build/gwbench-state", "durable state directory")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/gwbench-<workload>.spans.jsonl)")
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *workload {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "gwbench: want --workload home-steady|interactive|lifecycle and --seconds > 0")
		os.Exit(2)
	}
	if *traceOut == "" {
		*traceOut = ".bench_build/gwbench-" + sp.name + ".spans.jsonl"
	}
	out, err := run(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *stateDir, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// result collects everything a run measured, by metric name.
type result struct {
	values map[string]float64
	counts map[string]int // sample counts behind percentiles
	notes  []string       // correctness gate findings
	// invalid says why the open loop measured the generator rather than
	// the proxy; such a run is marked invalid in its metadata.
	invalid string
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	if n > 0 {
		r.counts[name] = n
	}
}

func (r *result) fail(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setup builds one gateway and brings it to steady state: training,
// enrollment, pairing and handshake, bootstrap learning, and the first
// enforcement cycle, in which every device's rules freeze and compile.
func setup(st *stream, o worldOpts) (*runner, error) {
	w, err := newWorld(st, o)
	if err != nil {
		return nil, err
	}
	r := newRunner(w, st, o.stateDir)
	if err := r.boot(); err != nil {
		w.close()
		return nil, err
	}
	for r.pos < int64(len(st.cycle)) {
		if _, err := r.step(true); err != nil {
			w.close()
			return nil, err
		}
	}
	return r, nil
}

func run(sp *spec, seed int64, total time.Duration, traced bool, stateDir, traceOut string) (*output, error) {
	st := sp.gen(seed)
	o := worldOpts{seed: seed, stateDir: stateDir, transport: sp.transport, durable: sp.durable, relearn: sp.relearn}
	res := &result{values: map[string]float64{}, counts: map[string]int{}}

	var r *runner
	var setupS []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.w.close()
		}
		runtime.GC()
		t := cpuTime()
		var err error
		if r, err = setup(st, o); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, float64(cpuTime()-t)/1e9)
	}
	defer r.w.close()
	res.set("setup_s", median(setupS), len(setupS))
	fillOracle(st, r.w.m)
	setupDigest := r.digest

	// Timed phases. The open loop runs first: its schedule is a fixed amount
	// of work, so the heap peak it sees does not depend on how far a faster
	// or slower closed loop got.
	r.check = true
	r.attestE2E, r.attestClient, r.attestDeliver, r.attestHandle, r.ckptNs = nil, nil, nil, nil, nil
	r.walBase = walBytes(stateDir)
	r.beginCounters()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var phases []phase
	mark := func(closed bool) { phases = append(phases, phase{closed: closed, end: r.pos, digest: r.digest}) }
	openShare, closedShare := 30, 60
	if traced {
		openShare, closedShare = 40, 20
		r.tr = newTracer()
	}
	r.heap.sample()
	open, err := r.openLoop(total*time.Duration(openShare)/100, sp.openRate)
	if err != nil {
		return nil, err
	}
	mark(false)
	res.set("heap_peak_mib", float64(r.heap.peak)/(1<<20), 0)
	tr := r.tr
	r.tr = nil
	closed, err := r.closedLoop(total*time.Duration(closedShare)/100, closedSlices)
	if err != nil {
		return nil, err
	}
	mark(true)
	res.set("frames_per_s", median(closed.fps), int(closed.frames))
	res.set("cpu_us_per_frame", median(closed.cpu), int(closed.frames))
	if traced {
		r.tr = tr
		tc, err := r.closedLoop(total*time.Duration(closedShare)/100, closedSlices)
		if err != nil {
			return nil, err
		}
		mark(true)
		res.set("trace.overhead_frac", median(tc.cpu)/median(closed.cpu)-1, 0)
		r.tr, r.probe = nil, true
		for i := 0; i < 256; i++ {
			if _, err := r.step(true); err != nil {
				return nil, err
			}
		}
		r.tr, r.probe = tr, false
		mark(true)
	}
	runtime.ReadMemStats(&ms1)

	if sp.durable {
		var totals, opens, replayed []float64
		for i := 0; i < 3; i++ {
			t, o, err := r.restart()
			if err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			totals = append(totals, float64(t)/1e6)
			opens = append(opens, float64(o)/1e6)
			replayed = append(replayed, float64(r.w.replayed))
		}
		mark(true)
		res.set("restart_ms", median(totals), len(totals))
		res.set("durable.open_ms", median(opens), len(opens))
		res.set("durable.replayed_ops", median(replayed), len(replayed))
		r.walAppended += walBytes(stateDir) - r.walBase
		res.set("durable.wal_bytes_per_frame", float64(r.walAppended)/float64(max(r.acct.frames, 1)), 0)
		res.set("durable.snapshot_bytes", float64(snapshotBytes(stateDir)), 0)
		res.set("durable.checkpoint_ms", median(nsToMs(r.ckptNs)), len(r.ckptNs))
	}
	r.endCounters()

	// Correctness: the oracle, the generator, and the Shards=1 replay.
	a := &r.acct
	if a.failed != 0 {
		res.fail("%d operations missed the floor oracle", a.failed)
	}
	if a.gtFailed != a.floor {
		res.fail("ground-truth misses %d != oracle floor %d", a.gtFailed, a.floor)
	}
	lateP99 := pct(open.genLate, 0.99)
	if lateP99 > float64(maxGenLate) {
		res.invalid = fmt.Sprintf("the generator ran %.0f us late (p99) on its own", lateP99/1e3)
		fmt.Fprintln(os.Stderr, "gwbench: invalid open loop:", res.invalid)
	}
	if err := replay(st, o, phases, setupDigest, a, res); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	// Wall-clock figures: printed, reported per layer, not gated.
	if open.frames > 0 {
		res.set("verdict_p50_us", pctW(open.lat, 0.50)/1e3, int(open.frames))
		res.set("verdict_p99_us", pctW(open.lat, 0.99)/1e3, int(open.frames))
	}
	res.set("attest_p50_us", pct(r.attestE2E, 0.50)/1e3, len(r.attestE2E))
	res.set("attest_p99_us", pct(r.attestE2E, 0.99)/1e3, len(r.attestE2E))
	attempted := a.frames + a.attests
	res.set("failed_frac", float64(a.gtFailed)/float64(max(attempted, 1)), int(attempted))

	// Per-layer metrics.
	c := r.cnt
	resolved := a.frames - a.unresolved
	res.set("packet.unresolved_frac", float64(a.unresolved)/float64(max(a.frames, 1)), 0)
	res.set("core.rule_hit_frac", float64(a.reasons[2])/float64(max(resolved, 1)), int(resolved))
	res.set("core.event_frac", float64(resolved-a.reasons[2])/float64(max(resolved, 1)), int(resolved))
	res.set("core.events_manual", float64(c["fiat_core_events_manual_total"]), 0)
	res.set("core.events_non_manual", float64(c["fiat_core_events_non_manual_total"]), 0)
	res.set("core.locked_devices_max", float64(a.lockedMax), 0)
	res.set("client.attest_us_p50", pct(r.attestClient, 0.5)/1e3, len(r.attestClient))
	res.set("quicfast.deliver_us_p50", pct(r.attestDeliver, 0.5)/1e3, len(r.attestDeliver))
	res.set("attest.handle_us_p50", pct(r.attestHandle, 0.5)/1e3, len(r.attestHandle))
	if d := c[zeroRTTName] + c[oneRTTName]; d > 0 {
		res.set("quicfast.zero_rtt_frac", float64(c[zeroRTTName])/float64(d), int(d))
	}
	res.set("quicfast.retransmits", float64(c["fiat_quicfast_client_retransmits_total"]), 0)
	res.set("attest.ok", float64(c["fiat_core_attestations_ok_total"]), 0)
	res.set("attest.bad", float64(c["fiat_core_attestations_bad_total"]), 0)
	res.set("swap.sweep_us_max", float64(r.sweepMax)/1e3, 0)
	res.set("swap.relearns", float64(c["fiat_swap_relearns_total"]), 0)
	res.set("swap.promotions", float64(c["fiat_swap_promotions_total"]), 0)
	res.set("swap.shadow_packets", float64(c["fiat_swap_shadow_packets_total"]), 0)
	res.set("swap.shadow_mismatches", float64(c["fiat_swap_shadow_mismatches_total"]), 0)
	res.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), 0)
	res.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, 0)
	res.set("gen.late_p99_us", lateP99/1e3, len(open.genLate))
	res.set("gen.backlog_max", float64(open.backlog), 0)
	if a.probeFrames > 0 {
		res.set("packet.allocs_per_frame", float64(a.probeDecode)/float64(a.probeFrames), int(a.probeFrames))
		res.set("core.allocs_per_batch", float64(a.probeCore)/float64(a.probeBatch), int(a.probeBatch))
	}
	if tr := r.tr; tr != nil {
		layer := spCore
		if sp.durable {
			layer = spDurable
		}
		res.set("packet.ns_per_frame", float64(tr.total[spDecode])/float64(max(r.trFrames, 1)), int(r.trFrames))
		res.set("core.ns_per_packet", float64(tr.total[layer])/float64(max(r.trPackets, 1)), int(r.trPackets))
		res.set("core.batch_p99_us", pct(tr.durs[layer], 0.99)/1e3, len(tr.durs[layer]))
		if sp.durable {
			res.set("durable.batch_us_p50", pct(tr.durs[spDurable], 0.5)/1e3, len(tr.durs[spDurable]))
		}
		cov := 1.0
		for name, v := range tr.coverage() {
			fmt.Printf("gwbench: trace coverage %-16s %.4f\n", name, v)
			cov = math.Min(cov, v)
			if v < 1-coverTolerance {
				res.fail("child spans cover %.3f of %s, below 1-%.2f", v, name, coverTolerance)
			}
		}
		res.set("trace.coverage_min", cov, 0)
		if err := tr.write(traceOut); err != nil {
			return nil, err
		}
		for n := uint8(0); n < nSpans; n++ {
			if tr.count[n] > 0 {
				fmt.Printf("gwbench: span %-24s n=%-8d total_ms=%-10.2f self_ms=%-10.2f roots_short=%d\n",
					spanNames[n], tr.count[n], float64(tr.total[n])/1e6, float64(tr.self[n])/1e6, tr.rootsShort[n])
			}
		}
	}

	return report(sp, seed, traced, res, attempted, a), nil
}

// replay rebuilds the gateway with Shards=1 and no transport or WAL, runs
// the same inputs through the same batches untimed, and requires identical
// decisions phase by phase and identical oracle accounting.
func replay(st *stream, o worldOpts, phases []phase, setupDigest uint64, a *acct, res *result) error {
	o.replay = true
	rp, err := setup(st, o)
	if err != nil {
		return err
	}
	defer rp.w.close()
	if rp.digest != setupDigest {
		res.fail("setup decisions differ from the Shards=1 replay")
	}
	rp.check = true
	for i, ph := range phases {
		for rp.pos < ph.end {
			if _, err := rp.step(ph.closed); err != nil {
				return err
			}
		}
		if rp.pos != ph.end || rp.digest != ph.digest {
			res.fail("phase %d decision digest %016x != Shards=1 replay %016x", i, ph.digest, rp.digest)
			return nil
		}
	}
	b := &rp.acct
	if b.failed != a.failed-a.deliveryErrs || b.gtFailed != a.gtFailed || b.floor != a.floor {
		res.fail("oracle accounting differs from the Shards=1 replay")
	}
	return nil
}

// report prints every measured metric with its unit and the run's metadata,
// and builds the result line.
func report(sp *spec, seed int64, traced bool, res *result, attempted int64, a *acct) *output {
	names := endToEnd
	if traced {
		names = perLayer
	}
	for _, list := range [][][2]string{endToEnd, perLayer} {
		for _, m := range list {
			v, ok := res.values[m[0]]
			if !ok {
				continue
			}
			n := ""
			if c := res.counts[m[0]]; c > 0 {
				n = fmt.Sprintf(" (n=%d)", c)
			}
			fmt.Printf("gwbench: %-28s %14.4f %s%s\n", m[0], v, m[1], n)
		}
	}
	for _, note := range res.notes {
		fmt.Fprintln(os.Stderr, "gwbench: FAIL:", note)
	}
	meta, _ := json.Marshal(map[string]any{ // plain types only; cannot fail
		"workload": sp.name, "seed": seed, "traced": traced, "open_rate_fps": sp.openRate,
		"generator_threads": 1, "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "transport": "loopback UDP", "valid": res.invalid == "",
		"ground_truth_misses": a.gtFailed, "oracle_floor": a.floor, "delivery_errors": a.deliveryErrs,
	})
	fmt.Printf("gwbench: meta %s\n", meta)
	out := &output{Correct: len(res.notes) == 0, Attempted: attempted, Failed: a.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v := res.values[m[0]]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m[0]] = metric{Value: v, Unit: m[1]}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pct is the nearest-rank q-quantile of raw samples.
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

// pctW is the nearest-rank q-quantile over frames, each batch sample
// standing for its frames.
func pctW(ls []latSample, q float64) float64 {
	s := append([]latSample(nil), ls...)
	sort.Slice(s, func(a, b int) bool { return s[a].lat < s[b].lat })
	var total int64
	for _, l := range s {
		total += int64(l.n)
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for _, l := range s {
		cum += int64(l.n)
		if cum >= rank {
			return float64(l.lat)
		}
	}
	return 0
}

func nsToMs(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / 1e6
	}
	return out
}

// cpuTime is the process's user plus system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(errors.New("getrusage: " + err.Error())) // cannot fail for RUSAGE_SELF
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
