package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/obs"
	"fiat/internal/simclock"
)

// TestMetricsSnapshotShardInvariant is the metrics-as-oracle companion to
// TestProcessBatchMatchesSequential: replaying the same multi-device trace
// through ProcessBatch at 1, 2, and 8 shards must leave each proxy's registry
// with a byte-identical text snapshot after every trace step, not only at the
// end. Counters are sums, reason counters follow the deterministically merged
// log, gauges settle at deterministic points, and under the virtual clock
// every duration observes zero — so any byte of divergence is a determinism
// bug. The per-step comparison also pins that the batched path folds its
// batch-private metric tallies in before ProcessBatch returns.
func TestMetricsSnapshotShardInvariant(t *testing.T) {
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(200)))
	if err != nil {
		t.Fatal(err)
	}
	phoneKS, err := keystore.New(rand.New(rand.NewSource(201)))
	if err != nil {
		t.Fatal(err)
	}
	offer, err := keystore.NewPairingOffer(ks, rand.New(rand.NewSource(202)))
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

	proxies := map[int]*Proxy{
		1: diffProxy(t, clock, ks, 1),
		2: diffProxy(t, clock, ks, 2),
		8: diffProxy(t, clock, ks, 8),
	}

	for si, s := range buildDiffTrace(clock.Now()) {
		clock.Advance(s.Advance)
		for _, dev := range s.Attest {
			payload, err := app.Attest("app."+dev, gen.Human())
			if err != nil {
				t.Fatal(err)
			}
			for n, p := range proxies {
				if _, err := p.HandleAttestation(payload); err != nil {
					t.Fatalf("step %d: %d-shard attestation: %v", si, n, err)
				}
			}
		}
		for _, p := range proxies {
			p.ProcessBatch(s.Batch)
		}
		for _, dev := range s.Flush {
			for _, p := range proxies {
				p.FlushEvent(dev)
			}
		}
		want := proxies[1].Metrics().Snapshot()
		for _, n := range []int{2, 8} {
			if got := proxies[n].Metrics().Snapshot(); got != want {
				t.Fatalf("step %d: %d-shard snapshot diverges from sequential:\n%s", si, n, firstDiffLine(got, want))
			}
		}
	}

	want := proxies[1].Metrics().Snapshot()
	for _, metric := range []string{
		"fiat_core_packets_total",
		"fiat_core_rule_hits_total",
		"fiat_core_dropped_total",
		"fiat_core_events_manual_total",
		`fiat_core_decisions_total{reason="device-locked"}`,
		`fiat_core_stage_total{stage="verdict"}`,
		"fiat_core_batch_size_count",
	} {
		if !nonzeroIn(want, metric) {
			t.Errorf("reference snapshot has zero/missing %s; invariant test is vacuous there", metric)
		}
	}
	for n, p := range proxies {
		if got := p.Metrics().Snapshot(); got != want {
			t.Fatalf("%d-shard snapshot diverges from sequential:\n%s", n, firstDiffLine(got, want))
		}
	}

	// Every packet traverses the span: the verdict stage counter must equal
	// the packet counter by construction.
	vals := proxies[1].Metrics().Values()
	if vals[`fiat_core_stage_total{stage="verdict"}`] != vals["fiat_core_packets_total"] {
		t.Errorf("verdict stage count %d != packets %d",
			vals[`fiat_core_stage_total{stage="verdict"}`], vals["fiat_core_packets_total"])
	}
}

// TestRingBatchMetricsCompleteOnReturn: one 2-shard ProcessBatch of N
// rule-hit packets, read with no other call in between, already shows all N
// packets in the stage counters and one match-latency observation per rule
// match. The batched path tallies these privately, so this pins the flush
// at the end of every batch.
func TestRingBatchMetricsCompleteOnReturn(t *testing.T) {
	clock := simclock.NewVirtual()
	ks, err := keystore.New(rand.New(rand.NewSource(210)))
	if err != nil {
		t.Fatal(err)
	}
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute, Shards: 2})
	var onShard [2]int
	for _, d := range diffDevices {
		if err := p.AddDevice(DeviceConfig{Name: d.name, Classifier: RuleClassifier{NotificationSize: d.size}, GraceN: d.graceN}); err != nil {
			t.Fatal(err)
		}
		onShard[p.shardIndex(d.name)]++
	}
	if onShard[0] == 0 || onShard[1] == 0 {
		t.Fatalf("devices per shard %v: both shards must see packets", onShard)
	}

	// Learn a one-minute heartbeat per device through Process.
	at := clock.Now()
	for i := 0; i < 4; i++ {
		for _, d := range diffDevices {
			p.Process(d.name, diffRec(at, 180, flows.CategoryControl), "")
		}
		clock.Advance(time.Minute)
		at = at.Add(time.Minute)
	}
	clock.Advance(time.Minute)

	// Three heartbeat rounds past the bootstrap window, in one batch: the
	// first freezes each device's rules, and every packet rule-hits.
	var batch []PacketIn
	for r := 0; r < 3; r++ {
		for _, d := range diffDevices {
			batch = append(batch, PacketIn{Device: d.name, Rec: diffRec(at, 180, flows.CategoryControl)})
		}
		at = at.Add(time.Minute)
	}
	before := p.Metrics().Values()
	for i, d := range p.ProcessBatch(batch) {
		if d.Reason != ReasonRuleHit {
			t.Fatalf("packet %d: %+v, want a rule hit", i, d)
		}
	}
	if p.batcher.idx == nil {
		t.Fatal("the batch did not run on the batched path")
	}
	after := p.Metrics().Values()

	n := int64(len(batch))
	const verdict = `fiat_core_stage_total{stage="verdict"}`
	if got := after[verdict] - before[verdict]; got != n {
		t.Errorf("verdict stage count rose by %d, want %d", got, n)
	}
	if got := after["fiat_core_rule_match_total"] - before["fiat_core_rule_match_total"]; got != n {
		t.Errorf("rule matches rose by %d, want %d", got, n)
	}
	if got, want := after["fiat_core_rule_match_ns_count"], after["fiat_core_rule_match_total"]; got != want {
		t.Errorf("fiat_core_rule_match_ns_count = %d, fiat_core_rule_match_total = %d", got, want)
	}
	if got, want := after[verdict], after["fiat_core_packets_total"]; got != want {
		t.Errorf("verdict stage count %d != packets %d", got, want)
	}
}

// nonzeroIn reports whether the snapshot contains a sample for name with a
// value other than 0.
func nonzeroIn(snapshot, name string) bool {
	for _, line := range strings.Split(snapshot, "\n") {
		if strings.HasPrefix(line, name+" ") && !strings.HasSuffix(line, " 0") {
			return true
		}
	}
	return false
}

// firstDiffLine renders the first differing line of two snapshots.
func firstDiffLine(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "got:  " + g[i] + "\nwant: " + w[i]
		}
	}
	return "length mismatch"
}

// TestMetricsReconcileWithAuditAndStats drives one degraded-mode story —
// holds, a late admission, healthy-channel expiries that lock the device, an
// outage-excused expiry — and requires three views of the run to agree: the
// registry counters, ProxyStats, and the audit log. Every held decision must
// be accounted for (admitted + expired + excused + still queued == held), and
// every decided manual event must appear as exactly one of its three verdict
// reasons.
func TestMetricsReconcileWithAuditAndStats(t *testing.T) {
	r := degradedRig(t, Config{PendingWindow: 5 * time.Second})

	manual := func() Decision {
		d := r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), "")
		r.clock.Advance(6 * time.Second) // past the event gap: next manual is a fresh event
		return d
	}

	// One hold admitted late by a valid attestation landing inside the
	// 5 s pending window.
	if d := r.proxy.Process("plug", mkRec(r.clock.Now(), 235, flows.CategoryManual), ""); d.Reason != ReasonPendingHold {
		t.Fatalf("first event = %+v, want pending hold", d)
	}
	r.clock.Advance(3 * time.Second)
	payload, err := r.app.Attest("com.plug.app", r.gen.Human())
	if err != nil {
		t.Fatal(err)
	}
	human, err := r.proxy.HandleAttestation(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !human {
		t.Skip("humanness validator rejected this sampled window (rare calibrated miss)")
	}
	// Let the attestation's freshness window lapse so later manual events
	// are held, not admitted on its strength.
	r.clock.Advance(ValidationTTL + time.Second)

	// Three healthy-channel expiries: strikes that lock the device.
	for i := 0; i < 3; i++ {
		manual()
		r.proxy.SweepPending()
	}
	if !r.proxy.Locked("plug") {
		t.Fatal("three healthy expiries should lock the device")
	}

	// A locked-device drop, then an outage-excused expiry after unlock.
	manual()
	r.proxy.Unlock("plug")
	r.proxy.AttestationChannelDown()
	manual()
	r.proxy.SweepPending()
	r.proxy.AttestationChannelUp()

	// One hold left unresolved in the queue.
	if d := manual(); d.Reason != ReasonPendingHold {
		t.Fatalf("final event = %+v, want pending hold", d)
	}

	vals := r.proxy.Metrics().Values()
	st := r.proxy.StatsSnapshot()
	log := r.proxy.Log()

	// Registry counters mirror ProxyStats exactly.
	for name, want := range map[string]int{
		"fiat_core_packets_total":         st.Packets,
		"fiat_core_allowed_total":         st.Allowed,
		"fiat_core_dropped_total":         st.Dropped,
		"fiat_core_rule_hits_total":       st.RuleHits,
		"fiat_core_events_manual_total":   st.EventsManual,
		"fiat_core_attestations_ok_total": st.AttestationsOK,
		"fiat_core_pending_held_total":    st.PendingHeld,
		"fiat_core_late_admitted_total":   st.LateAdmitted,
		"fiat_core_pending_expired_total": st.PendingExpired,
		"fiat_core_outage_excused_total":  st.OutageExcused,
	} {
		if vals[name] != int64(want) {
			t.Errorf("%s = %d, want %d (ProxyStats)", name, vals[name], want)
		}
	}
	if int64(st.Allowed+st.Dropped) != vals["fiat_core_packets_total"] {
		t.Errorf("allowed %d + dropped %d != packets %d", st.Allowed, st.Dropped, st.Packets)
	}

	// Reason counters mirror the audit log entry-for-entry.
	byReason := map[Reason]int64{}
	for i := range log {
		byReason[log[i].Reason]++
	}
	var totalReasons int64
	for _, reason := range allReasons {
		name := obs.Label("fiat_core_decisions_total", "reason", string(reason))
		if vals[name] != byReason[reason] {
			t.Errorf("%s = %d, log has %d", name, vals[name], byReason[reason])
		}
		totalReasons += vals[name]
	}
	if totalReasons != int64(len(log)) {
		t.Errorf("reason counters sum to %d, log has %d entries", totalReasons, len(log))
	}

	// Every decided manual event resolves to exactly one verdict reason.
	decided := byReason[ReasonHumanOK] + byReason[ReasonNoHuman] + byReason[ReasonPendingHold]
	if decided != int64(st.EventsManual) {
		t.Errorf("human-ok %d + no-human %d + pending-hold %d = %d, want EventsManual %d",
			byReason[ReasonHumanOK], byReason[ReasonNoHuman], byReason[ReasonPendingHold],
			decided, st.EventsManual)
	}

	// Every held decision is accounted for: admitted, expired, excused, or
	// still in the queue.
	settled := vals["fiat_core_late_admitted_total"] +
		vals["fiat_core_pending_expired_total"] +
		vals["fiat_core_outage_excused_total"] +
		int64(r.proxy.PendingDepth())
	if settled != vals["fiat_core_pending_held_total"] {
		t.Errorf("admitted+expired+excused+queued = %d, want pending_held %d",
			settled, vals["fiat_core_pending_held_total"])
	}

	// Gauges reflect run-end state.
	if vals["fiat_core_pending_depth"] != int64(r.proxy.PendingDepth()) {
		t.Errorf("pending_depth gauge = %d, PendingDepth() = %d",
			vals["fiat_core_pending_depth"], r.proxy.PendingDepth())
	}
	if vals["fiat_core_locked_devices"] != 0 {
		t.Errorf("locked_devices gauge = %d after unlock, want 0", vals["fiat_core_locked_devices"])
	}

	// The story must actually have exercised the degraded branches.
	for _, name := range []string{
		"fiat_core_late_admitted_total", "fiat_core_pending_expired_total",
		"fiat_core_outage_excused_total",
	} {
		if vals[name] == 0 {
			t.Errorf("%s = 0; reconciliation test is vacuous there", name)
		}
	}
	if byReason[ReasonLocked] == 0 {
		t.Error("no device-locked decision in the log; lockout branch not exercised")
	}
}
