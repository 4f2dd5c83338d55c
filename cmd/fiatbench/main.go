// Command fiatbench regenerates the paper's tables and figures from the
// simulated substrates.
//
// Usage:
//
//	fiatbench [-scale quick|full] [-seed N] [-html FILE] [-metrics=false] [all|ablations|<id>...]
//
// -cpuprofile FILE and -memprofile FILE write pprof CPU and heap profiles
// covering the run (view them with `go tool pprof`). The CPU profile spans
// everything after flag parsing; the heap profile is captured at exit after
// a final GC.
//
// Experiment ids: fig1a fig1b fig1c inspector fig2 ncomplete table2 table3
// table4 table5 table6 table7 delay, plus the ablations
// (ablate-bucketing, ablate-gap, ablate-headn, ablate-bootstrap,
// ablate-transport, ablate-humanness). With no arguments it runs "all".
//
// Durability and restart numbers (WAL append cost, checkpoint time, cold
// open, replayed ops, snapshot size) come from the gateway benchmark's
// lifecycle workload: bash gwbench/run.sh --workload lifecycle.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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

func main() {
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Int64("seed", 7, "random seed for all corpora")
	htmlOut := flag.String("html", "", "also write the results as a self-contained HTML report")
	showMetrics := flag.Bool("metrics", true, "after the experiments, print the deterministic metrics snapshot of a seeded end-to-end scenario")
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
