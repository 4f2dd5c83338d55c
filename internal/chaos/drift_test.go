package chaos

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"fiat/internal/durable"
	"fiat/internal/simclock"
	"fiat/internal/swap"
)

// driftScenario is the firmware-update corpus entry: 20 s after bootstrap
// ends, the plug's telemetry changes shape (size +200, pace 10 s → 3 s), the
// learned heartbeat rule goes stale, and the relearning lifecycle must carry
// the device to a promoted generation-2 artifact before the run ends.
func driftScenario(seed int64, shards int) Scenario {
	return Scenario{
		Seed:           seed,
		Shards:         shards,
		Bootstrap:      2 * time.Minute,
		Duration:       4 * time.Minute,
		HeartbeatEvery: 10 * time.Second,
		ShiftAt:        20 * time.Second,
		ShiftEvery:     3 * time.Second,
		ShiftSize:      200,
		Relearn: swap.Options{
			Enabled:      true,
			MissRatio:    0.5,
			MarginDrift:  0.9, // margin signal parked: this corpus drives the miss-ratio path
			LockoutBurst: 99,  // lockout signal parked: no attack traffic in this corpus
			MinSample:    5,
			RelearnFor:   30 * time.Second,
			ShadowFor:    30 * time.Second,
			ShadowMin:    3,
			Cooldown:     10 * time.Minute,
		},
	}
}

// requirePromoted asserts a drift run completed the whole lifecycle: the
// detector fired, a candidate relearned and shadowed, promotion landed
// (generation 2, lifecycle idle again, zero rollbacks), and the promoted
// artifact actually absorbed the shifted traffic (rule hits resumed).
func requirePromoted(t *testing.T, label string, res *Result) {
	t.Helper()
	if res.Generation != 2 {
		t.Fatalf("%s: live artifact generation %d, want 2 (promotion did not land)", label, res.Generation)
	}
	if res.SwapPhase != swap.PhaseIdle {
		t.Fatalf("%s: lifecycle ended in phase %v, want idle", label, res.SwapPhase)
	}
	for _, want := range []string{
		"fiat_swap_relearns_total 1",
		"fiat_swap_generations_total 1",
		"fiat_swap_promotions_total 1",
		"fiat_swap_rollbacks_total 0",
	} {
		if !strings.Contains(res.SwapMetrics, want) {
			t.Fatalf("%s: swap metrics missing %q:\n%s", label, want, res.SwapMetrics)
		}
	}
	// Pre-shift the rule hits only twice (freeze beat + one more); the bulk
	// must come from the promoted artifact matching the shifted beat.
	if res.Stats.RuleHits < 20 {
		t.Fatalf("%s: only %d rule hits; promoted artifact never matched the shifted traffic", label, res.Stats.RuleHits)
	}
	if res.Locked {
		t.Fatalf("%s: benign drift locked the device out", label)
	}
}

// TestDriftDetectionPromotesAcrossEngines runs the drift-injection corpus on
// the sequential and the multi-shard engine: both must complete the drift →
// relearn → shadow → promote lifecycle, and because the detector feeds on
// engine-invariant counters and advances only at housekeeping ticks, the
// decision streams, audit logs, obs snapshots, and swap registries must be
// byte-identical.
func TestDriftDetectionPromotesAcrossEngines(t *testing.T) {
	for _, seed := range []int64{5, 19} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref, err := Run(driftScenario(seed, 1))
			if err != nil {
				t.Fatal(err)
			}
			requirePromoted(t, "seq", ref)
			got, err := Run(driftScenario(seed, 4))
			if err != nil {
				t.Fatal(err)
			}
			requirePromoted(t, "sharded", got)
			if got.DecisionTrace() != ref.DecisionTrace() {
				t.Fatal("sharded: decision trace diverges from sequential")
			}
			if got.LogTrace() != ref.LogTrace() {
				t.Fatal("sharded: audit log diverges from sequential")
			}
			if got.Metrics != ref.Metrics {
				t.Fatal("sharded: obs snapshot diverges from sequential")
			}
			if got.SwapMetrics != ref.SwapMetrics {
				t.Fatalf("sharded: swap registry diverges from sequential:\n%s\nvs\n%s", got.SwapMetrics, ref.SwapMetrics)
			}
		})
	}
}

// driftLifecycleOps locates the lifecycle milestones in a recorded op
// stream by replaying it against a probe proxy: the first op after which the
// plug is in shadow evaluation, and the first op after which generation 2 is
// live. Kill points between the two crash mid-shadow.
func driftLifecycleOps(t *testing.T, s Scenario, ops []RecordedOp) (shadowAt, promoteAt int) {
	t.Helper()
	clock := simclock.NewVirtual()
	probe, err := buildReplayProxy(s)(clock)
	if err != nil {
		t.Fatal(err)
	}
	shadowAt, promoteAt = -1, -1
	for i := range ops {
		op := &ops[i]
		clock.AdvanceTo(op.Time)
		switch op.Kind {
		case durable.OpBatch:
			probe.ProcessBatch(op.Batch)
		case durable.OpAttestation:
			probe.HandleAttestation(op.Payload)
		case durable.OpSweep:
			probe.SweepPending()
		case durable.OpChannelDown:
			probe.AttestationChannelDown()
		case durable.OpChannelUp:
			probe.AttestationChannelUp()
		case durable.OpFlush:
			probe.FlushEvent(op.Device)
		}
		if shadowAt < 0 && probe.SwapPhase("plug") == swap.PhaseShadow {
			shadowAt = i
		}
		if meta, ok := probe.ArtifactMeta("plug"); ok && meta.Generation >= 2 {
			promoteAt = i
			return shadowAt, promoteAt
		}
	}
	return shadowAt, promoteAt
}

// TestDriftCrashMidShadowRecovers kills the durable proxy halfway between
// shadow-start and promotion — the WAL loses its unsynced tail while a
// candidate artifact is mid-evaluation — and requires recovery to land the
// run byte-identical to the uninterrupted reference: same decisions, same
// final serialized state, and the same promoted generation-2 artifact.
func TestDriftCrashMidShadowRecovers(t *testing.T) {
	s := driftScenario(5, 4)
	_, ops, err := RecordOps(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReplayOps(s, ops)
	if err != nil {
		t.Fatal(err)
	}
	shadowAt, promoteAt := driftLifecycleOps(t, s, ops)
	if shadowAt < 0 || promoteAt <= shadowAt {
		t.Fatalf("lifecycle milestones not found in op stream: shadow at %d, promote at %d", shadowAt, promoteAt)
	}

	dir, err := os.MkdirTemp("", "fiat-drift-crash-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// Op i carries WAL seq i+1; aim the kill at the op midway through shadow.
	mid := (shadowAt + promoteAt) / 2
	kill := durable.KillSpec{Point: durable.KillAfterAppendUnsynced, Seq: uint64(mid + 1)}
	got, err := ReplayOpsDurable(s, ops, dir, &kill, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.CrashOp <= shadowAt || got.CrashOp > promoteAt {
		t.Fatalf("crash fired at op %d, want inside the shadow window (%d, %d]", got.CrashOp, shadowAt, promoteAt)
	}
	if got.DecisionTrace() != ref.DecisionTrace() {
		t.Fatal("recovered decision trace diverges from uninterrupted reference")
	}
	if !bytes.Equal(got.State, ref.State) {
		t.Fatalf("recovered state (%d bytes) not byte-identical to reference (%d bytes)", len(got.State), len(ref.State))
	}

	// The recovered image restores into a fresh proxy wearing generation 2 —
	// the crash landed mid-shadow, recovery replayed the lifecycle to its end.
	clock := simclock.NewVirtual()
	restored, err := buildReplayProxy(s)(clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(got.State); err != nil {
		t.Fatalf("restore of recovered state: %v", err)
	}
	meta, ok := restored.ArtifactMeta("plug")
	if !ok || meta.Generation != 2 || meta.Parent != 1 {
		t.Fatalf("restored artifact meta %+v ok=%v, want generation 2 of parent 1", meta, ok)
	}
}

// TestDriftCrashMatrix runs the standard five-point crash matrix over the
// drift scenario: every kill point — including the snapshot kills, whose
// checkpoints serialize the mid-shadow candidate — must reconcile to a
// recovery indistinguishable from never crashing.
func TestDriftCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is the long oracle; run without -short")
	}
	reports, err := CrashMatrix(driftScenario(5, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.CrashOp < 0 {
			t.Errorf("%s: kill never fired (ops=%d)", r.Point, r.Ops)
		}
		if !r.Identical {
			t.Errorf("%s: recovery not identical to reference: %+v", r.Point, r)
		}
	}
}
