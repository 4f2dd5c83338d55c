// Command fiatbench regenerates the paper's tables and figures from the
// simulated substrates.
//
// Usage:
//
//	fiatbench [-scale quick|full] [-seed N] [all|ablations|<id>...]
//	fiatbench -recoverybench [-recoverybench-out BENCH_7.json] [-seed N]
//	fiatbench -coldstart [-coldstart-out BENCH_10.json] [-coldstart-devices 64,256,1024] [-seed N]
//
// Any invocation also accepts -cpuprofile FILE and -memprofile FILE, which
// write pprof CPU and heap profiles covering the run (view them with
// `go tool pprof`). The CPU profile spans everything after flag parsing; the
// heap profile is captured at exit after a final GC.
//
// -recoverybench measures the durable-state layer: WAL append cost per
// operation (fsync-batched vs fsync-per-append), cold-restart time against
// the WAL suffix length recovery replays, and the chaos crash matrix — every
// seeded kill point reconciled byte-for-byte against an uninterrupted
// reference run — writing BENCH_7.json.
//
// -coldstart primes a fleet of identically-learning devices under durable
// management, then measures recovery of the resulting v3 snapshot through
// both restore arms — per-device copied decode+recompile versus zero-copy
// artifact views over the mapped snapshot — reporting restart time, retained
// heap, snapshot dedup savings, and the allocation-free warm acquisition
// gate, writing BENCH_10.json. Exits non-zero when a hard gate fails
// (acquisition allocates, arms diverge, or dedup is vacuous).
//
// Experiment ids: fig1a fig1b fig1c inspector fig2 ncomplete table2 table3
// table4 table5 table6 table7 delay, plus the ablations
// (ablate-bucketing, ablate-gap, ablate-headn, ablate-bootstrap,
// ablate-transport). With no arguments it runs "all".
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fiat/internal/chaos"
	"fiat/internal/experiments"
	"fiat/internal/netsim"
	"fiat/internal/report"
)

// startProfiles arms the optional pprof outputs and returns the function
// that flushes them; it must run before any exit so the CPU profile is
// complete.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fiatbench: memprofile:", err)
				return
			}
			runtime.GC() // profile retained heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fiatbench: memprofile:", err)
			}
			f.Close()
		}
	}, nil
}

// parseCounts parses a comma-separated list of positive ints.
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad device count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Int64("seed", 7, "random seed for all corpora")
	htmlOut := flag.String("html", "", "also write the results as a self-contained HTML report")
	showMetrics := flag.Bool("metrics", true, "after the experiments, print the deterministic metrics snapshot of a seeded end-to-end scenario")
	recoveryBench := flag.Bool("recoverybench", false, "run the durable-state recovery benchmark instead of the experiments")
	recoveryBenchOut := flag.String("recoverybench-out", "BENCH_7.json", "where -recoverybench writes its JSON result")
	coldStart := flag.Bool("coldstart", false, "run the copied-vs-zero-copy cold-restart benchmark instead of the experiments")
	coldStartOut := flag.String("coldstart-out", "BENCH_10.json", "where -coldstart writes its JSON result")
	coldStartDevices := flag.String("coldstart-devices", "64,256,1024", "comma-separated fleet sizes for -coldstart")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiatbench:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	if *recoveryBench {
		exit(runRecoveryBench(*seed, *recoveryBenchOut))
	}
	if *coldStart {
		exit(runColdStartBench(*coldStartDevices, *seed, *coldStartOut))
	}

	var sc experiments.Scale
	switch strings.ToLower(*scaleName) {
	case "quick":
		sc = experiments.Quick(*seed)
	case "full":
		sc = experiments.Full(*seed)
	default:
		fmt.Fprintf(os.Stderr, "fiatbench: unknown scale %q (want quick or full)\n", *scaleName)
		exit(2)
	}

	byID := map[string]func(experiments.Scale) experiments.Result{
		"fig1a":            experiments.Fig1a,
		"fig1b":            experiments.Fig1b,
		"fig1c":            experiments.Fig1c,
		"inspector":        experiments.Inspector,
		"fig2":             experiments.Fig2,
		"ncomplete":        experiments.CompletionN,
		"table2":           experiments.Table2,
		"table3":           experiments.Table3,
		"table4":           experiments.Table4,
		"table5":           experiments.Table5,
		"table6":           experiments.Table6,
		"table7":           experiments.Table7,
		"delay":            experiments.DelayTolerance,
		"ablate-bucketing": experiments.AblationBucketing,
		"ablate-gap":       experiments.AblationGap,
		"ablate-headn":     experiments.AblationHeadN,
		"ablate-bootstrap": experiments.AblationBootstrap,
		"ablate-transport": experiments.AblationTransport,
		"ablate-humanness": experiments.AblationHumanness,
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	start := time.Now()
	var results []experiments.Result
	emit := func(r experiments.Result) {
		fmt.Println(r.String())
		results = append(results, r)
	}
	for _, arg := range args {
		switch arg {
		case "all":
			for _, r := range experiments.All(sc) {
				emit(r)
			}
		case "ablations":
			for _, r := range experiments.Ablations(sc) {
				emit(r)
			}
		default:
			fn, ok := byID[arg]
			if !ok {
				fmt.Fprintf(os.Stderr, "fiatbench: unknown experiment %q\n", arg)
				exit(2)
			}
			emit(fn(sc))
		}
	}
	if *htmlOut != "" {
		page := report.HTML(report.Meta{
			Title:     "FIAT reproduction — regenerated evaluation",
			Scale:     *scaleName,
			Seed:      *seed,
			Generated: time.Now(),
			PaperRef:  "Xiao & Varvello, FIAT: Frictionless Authentication of IoT Traffic, CoNEXT 2022",
		}, results)
		if err := os.WriteFile(*htmlOut, []byte(page), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fiatbench:", err)
			exit(1)
		}
		fmt.Printf("fiatbench: HTML report -> %s\n", *htmlOut)
	}
	if *showMetrics {
		printMetricsSnapshot(*seed)
	}
	fmt.Printf("fiatbench: %d experiment(s), scale=%s, seed=%d, %.1fs\n",
		len(results), *scaleName, *seed, time.Since(start).Seconds())
	stopProfiles()
}

// runColdStartBench primes identical fleets at each size and measures both
// recovery arms, enforcing the hard gates at the CLI.
func runColdStartBench(deviceList string, seed int64, out string) int {
	counts, err := parseCounts(deviceList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiatbench:", err)
		return 2
	}
	fmt.Printf("fiatbench: cold-start benchmark, fleets %v, seed=%d\n", counts, seed)
	res, err := experiments.ColdStartBench(seed, counts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiatbench:", err)
		return 1
	}
	res.Meta = experiments.NewBenchMeta(map[string]string{
		"coldstart-devices": deviceList, "seed": strconv.FormatInt(seed, 10),
	})
	fmt.Printf("  warm acquisition  %g allocs/device\n", res.AcquireAllocs)
	for _, p := range res.Points {
		fmt.Printf("  %5d devices  copied %8.2f ms (%8d KiB heap)  zero-copy %8.2f ms (%8d KiB heap)  %5.2fx  snapshot %d KiB (deduped %d KiB)  arenas=%d refs=%d identical=%v\n",
			p.Devices, p.Copied.RestartMs, p.Copied.HeapDeltaBytes/1024,
			p.ZeroCopy.RestartMs, p.ZeroCopy.HeapDeltaBytes/1024, p.Speedup,
			p.SnapshotBytes/1024, p.DedupSavedBytes/1024, p.UniqueArenas, p.ArenaRefs, p.StateIdentical)
	}
	if err := os.WriteFile(out, res.JSON(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fiatbench:", err)
		return 1
	}
	if err := res.Gates(); err != nil {
		fmt.Fprintln(os.Stderr, "fiatbench: cold-start gate FAILED:", err)
		return 1
	}
	fmt.Printf("fiatbench: cold-start benchmark -> %s\n", out)
	return 0
}

// runRecoveryBench measures the durable-state layer and writes the
// BENCH_7.json comparison: append overhead, cold-restart scaling, and the
// crash-reconciliation matrix.
func runRecoveryBench(seed int64, out string) int {
	fmt.Printf("fiatbench: durable-state recovery benchmark, seed=%d\n", seed)
	res, err := experiments.RecoveryBench(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiatbench:", err)
		return 1
	}
	res.Meta = experiments.NewBenchMeta(map[string]string{"seed": strconv.FormatInt(seed, 10)})
	fmt.Printf("  append (fsync on tick)   %8.1f ns/op  %5.1f allocs/op\n",
		res.AppendBuffered.NsPerOp, res.AppendBuffered.AllocsPerOp)
	fmt.Printf("  append (fsync always)    %8.1f ns/op  %5.1f allocs/op\n",
		res.AppendFsync.NsPerOp, res.AppendFsync.AllocsPerOp)
	fmt.Printf("  append (sweep, no body)  %8.1f ns/op  %5.1f allocs/op\n",
		res.AppendSweep.NsPerOp, res.AppendSweep.AllocsPerOp)
	for _, cr := range res.ColdRestarts {
		fmt.Printf("  cold restart %6d wal ops  %8.2f ms  (%d replayed)\n", cr.WALOps, cr.RestartMs, cr.Replayed)
	}
	for _, c := range res.CrashMatrix {
		fmt.Printf("  crash %-22s crash@%-4d replayed=%-4d resumed=%-4d truncated=%d identical=%v\n",
			c.Point, c.CrashOp, c.Replayed, c.Resumed, c.Truncated, c.Identical)
	}
	if err := os.WriteFile(out, res.JSON(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fiatbench:", err)
		return 1
	}
	if !res.Identical() {
		fmt.Fprintln(os.Stderr, "fiatbench: crash matrix reconciliation FAILED")
		return 1
	}
	fmt.Printf("fiatbench: recovery benchmark -> %s\n", out)
	return 0
}

// printMetricsSnapshot replays one seeded chaos scenario — burst loss and a
// partition on the attestation path, sharded engine — and prints the
// observability snapshot it leaves behind. The snapshot is deterministic in
// the seed (see internal/chaos), so it doubles as a quick fingerprint of the
// pipeline: two builds printing different bytes here behave differently.
func printMetricsSnapshot(seed int64) {
	res, err := chaos.Run(chaos.Scenario{
		Seed:          seed,
		Shards:        4,
		Duration:      90 * time.Second,
		ManualAt:      []time.Duration{22 * time.Second, 60 * time.Second},
		PendingWindow: 25 * time.Second,
		Burst:         &netsim.GilbertElliott{PGoodBad: 0.15, PBadGood: 0.35, LossGood: 0.05, LossBad: 0.8},
		PartitionAt:   20 * time.Second,
		PartitionFor:  10 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiatbench: metrics scenario:", err)
		return
	}
	fmt.Println("--- metrics snapshot (seeded end-to-end scenario) ---")
	fmt.Print(res.Metrics)
	fmt.Println("--- end metrics snapshot ---")
}
