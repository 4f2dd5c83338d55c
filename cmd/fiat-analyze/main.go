// Command fiat-analyze runs FIAT's offline traffic analysis over a pcap
// capture: per-device predictability (Classic vs PortLess), the recurring
// flow inventory, and the unpredictable-event breakdown — §2/§3 of the
// paper as a tool. With -attacks it instead runs the seeded adversarial
// scenario corpus against the full proxy and reports the
// detection/false-admission matrix, optionally gated against a committed
// baseline.
//
// Usage:
//
// With -verify-state it instead runs a strictly read-only integrity check
// of a fiat-proxy durable state directory: every snapshot checksum and
// proxy image (decoded as recovery decodes it), the audit segment's chunks
// and entries, every WAL segment's framing and record CRCs, and sequence
// continuity — exiting nonzero when recovery would fail closed.
//
//	trafficgen -device WyzeCam -hours 6 -out wyze.pcap
//	fiat-analyze -pcap wyze.pcap -device 192.168.1.50
//	fiat-analyze -attacks
//	fiat-analyze -attacks -attacks-baseline internal/adversary/baseline.json
//	fiat-analyze -verify-state /var/lib/fiat/state
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"sort"

	"fiat/internal/adversary"
	"fiat/internal/devices"
	"fiat/internal/durable"
	"fiat/internal/events"
	"fiat/internal/flows"
	"fiat/internal/mud"
	"fiat/internal/pcapio"
	"fiat/internal/stats"
)

func main() {
	pcapPath := flag.String("pcap", "", "capture to analyze (required unless -attacks)")
	deviceIP := flag.String("device", "192.168.1.50", "the IoT device's IP in the capture")
	topFlows := flag.Int("top", 12, "recurring flows to list")
	mudOut := flag.String("mud", "", "export the learned rules as an RFC 8520 MUD profile to this path")
	mudURL := flag.String("mud-url", "https://fiat.example/device.json", "mud-url for the exported profile")
	attacks := flag.Bool("attacks", false, "run the adversarial scenario corpus instead of analyzing a capture")
	attacksSeed := flag.Int64("attacks-seed", 1, "scenario seed for -attacks")
	attacksShards := flag.Int("attacks-shards", 1, "proxy shard width for -attacks")
	attacksJSON := flag.String("attacks-json", "", "also write the matrix JSON to this path")
	attacksBaseline := flag.String("attacks-baseline", "", "gate the matrix against this baseline file (\"embedded\" = the committed baseline); exit 1 on regression")
	attacksWrite := flag.String("attacks-write-baseline", "", "write the matrix as the new baseline to this path and exit")
	verifyState := flag.String("verify-state", "", "read-only integrity check of a fiat-proxy durable state directory; exit 1 if recovery would fail closed")
	flag.Parse()
	if *verifyState != "" {
		report := durable.Verify(*verifyState)
		fmt.Print(report.String())
		if report.Err != nil {
			os.Exit(1)
		}
		return
	}
	if *attacks {
		os.Exit(runAttacks(*attacksSeed, *attacksShards, *attacksJSON, *attacksBaseline, *attacksWrite))
	}
	if *pcapPath == "" {
		fmt.Fprintln(os.Stderr, "fiat-analyze: -pcap is required")
		os.Exit(2)
	}
	devAddr, err := netip.ParseAddr(*deviceIP)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiat-analyze: bad -device:", err)
		os.Exit(2)
	}

	f, err := os.Open(*pcapPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiat-analyze:", err)
		os.Exit(1)
	}
	defer f.Close()
	r, err := pcapio.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiat-analyze:", err)
		os.Exit(1)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiat-analyze: reading capture:", err)
		os.Exit(1)
	}

	var recs []flows.Record
	skipped := 0
	for _, p := range pkts {
		rec, ok := devices.RecordFromFrame(p, devAddr, nil)
		if !ok {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		fmt.Fprintf(os.Stderr, "fiat-analyze: no packets involve device %s (%d frames skipped)\n", devAddr, skipped)
		os.Exit(1)
	}

	classic := flows.NewAnalyzer(flows.ModeClassic)
	classic.ObserveAll(recs)
	portless := flows.NewAnalyzer(flows.ModePortLess)
	portless.ObserveAll(recs)

	fmt.Printf("capture: %d frames, %d for device %s (%d skipped)\n",
		len(pkts), len(recs), devAddr, skipped)
	span := recs[len(recs)-1].Time.Sub(recs[0].Time)
	fmt.Printf("span: %s (%s .. %s)\n\n", span.Round(1e9),
		recs[0].Time.Format("2006-01-02 15:04:05"), recs[len(recs)-1].Time.Format("15:04:05"))

	tb := &stats.Table{Header: []string{"Definition", "Predictable packets", "Predictable bytes", "Flows", "Recurring"}}
	for _, row := range []struct {
		name string
		a    *flows.Analyzer
	}{{"Classic 6-tuple", classic}, {"PortLess", portless}} {
		tb.Add(row.name, stats.FormatPct(row.a.Fraction()), stats.FormatPct(row.a.FractionBytes()),
			row.a.Buckets(), row.a.PredictableFlows())
	}
	fmt.Println(tb.String())

	// Recurring flow inventory (PortLess), largest first.
	st := portless.MaxIntervals()
	secs := make([]float64, len(st.PerFlow))
	for i, d := range st.PerFlow {
		secs[i] = d.Seconds()
	}
	fmt.Printf("recurring intervals: p50=%.1fs p90=%.1fs max=%.1fs\n\n",
		stats.Percentile(secs, 50), stats.Percentile(secs, 90), stats.Percentile(secs, 100))

	type bucketRow struct {
		key   flows.Key
		count int
	}
	counts := map[flows.Key]int{}
	for _, rec := range recs {
		counts[flows.KeyOf(flows.ModePortLess, rec)]++
	}
	rows := make([]bucketRow, 0, len(counts))
	for k, c := range counts {
		rows = append(rows, bucketRow{key: k, count: c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	fb := &stats.Table{Header: []string{"Flow (PortLess bucket)", "Packets"}}
	for i, row := range rows {
		if i >= *topFlows {
			break
		}
		fb.Add(row.key.String(), row.count)
	}
	fmt.Println(fb.String())

	// Unpredictable events.
	if *mudOut != "" {
		rt := flows.NewRuleTable(flows.ModePortLess)
		for _, rec := range recs {
			rt.Learn(rec)
		}
		profile := mud.FromRules("device", *mudURL, rt.Keys(), recs[len(recs)-1].Time)
		data, err := profile.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fiat-analyze: MUD export:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*mudOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fiat-analyze:", err)
			os.Exit(1)
		}
		fmt.Printf("exported RFC 8520 MUD profile (%d learned flows) -> %s\n\n", rt.Rules(), *mudOut)
	}

	evs := events.FromAnalyzer(portless, 0)
	var short, long int
	for _, e := range evs {
		if e.Len() <= 2 {
			short++
		} else {
			long++
		}
	}
	fmt.Printf("unpredictable events: %d total (%d of <=2 packets, %d larger)\n",
		len(evs), short, long)
	if len(evs) > 0 {
		fmt.Println("these events would be classified manual/non-manual by the proxy (§5.4).")
	}
}

// runAttacks executes the adversarial corpus and reports the matrix. Return
// value is the process exit code: 0 clean, 1 on error or baseline
// regression.
func runAttacks(seed int64, shards int, jsonOut, baselinePath, writeBaseline string) int {
	m, results, err := adversary.RunAll(seed, shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiat-analyze:", err)
		return 1
	}
	data, err := m.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiat-analyze:", err)
		return 1
	}

	if writeBaseline != "" {
		if err := os.WriteFile(writeBaseline, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fiat-analyze:", err)
			return 1
		}
		fmt.Printf("wrote baseline matrix (%d attacks, seed %d) -> %s\n",
			len(m.Attacks), seed, writeBaseline)
		return 0
	}

	fmt.Printf("adversarial corpus: %d attacks, seed %d, %d shard(s)\n\n",
		len(m.Attacks), seed, shards)
	fmt.Println(m.Table())
	descs := make(map[string]string, len(results))
	for _, a := range adversary.Catalog() {
		descs[a.Spec().Name] = a.Spec().Description
	}
	for _, s := range m.Attacks {
		fmt.Printf("%s\n  mechanism: %s\n  matrix cell: %s\n  %s\n",
			s.Attack, s.Mechanism, s.Cell, descs[s.Attack])
	}

	if jsonOut != "" {
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fiat-analyze:", err)
			return 1
		}
		fmt.Printf("\nwrote matrix JSON -> %s\n", jsonOut)
	}

	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fiat-analyze:", err)
			return 1
		}
		regressions := adversary.Compare(m, base)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "\nBASELINE REGRESSIONS (%d):\n", len(regressions))
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, " -", r)
			}
			return 1
		}
		fmt.Printf("\nbaseline gate: PASS (%d attacks match or beat %s)\n",
			len(base.Attacks), baselinePath)
	}
	return 0
}

func loadBaseline(path string) (*adversary.Matrix, error) {
	if path == "embedded" {
		return adversary.Baseline()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m adversary.Matrix
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &m, nil
}
