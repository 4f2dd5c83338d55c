package chaos

import (
	"bytes"
	"testing"
	"time"

	"fiat/internal/durable"
)

// crashScenario is the fixed scenario behind the crash-recovery oracles: a
// lossy attestation channel plus a partition, so the recorded stream carries
// pending holds, late admits, outage excusals, and channel transitions — the
// state a recovery has the most ways to get wrong.
func crashScenario() Scenario {
	return Scenario{
		Seed:          11,
		Shards:        2,
		Duration:      90 * time.Second,
		ManualAt:      []time.Duration{10 * time.Second, 45 * time.Second},
		PendingWindow: 25 * time.Second,
		Burst:         burst30(),
		PartitionAt:   40 * time.Second,
		PartitionFor:  20 * time.Second,
	}
}

// TestRecorderTransparent: interposing the recorder must not perturb the
// run — every observable output stays byte-identical to a plain Run.
func TestRecorderTransparent(t *testing.T) {
	s := crashScenario()
	plain, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	recorded, ops, err := RecordOps(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no ops recorded")
	}
	if plain.DecisionTrace() != recorded.DecisionTrace() {
		t.Fatal("recorder perturbed the decision stream")
	}
	if plain.LogTrace() != recorded.LogTrace() {
		t.Fatal("recorder perturbed the audit log")
	}
	if plain.Metrics != recorded.Metrics {
		t.Fatal("recorder perturbed the metrics snapshot")
	}
}

// TestReplayMatchesRecording: feeding the recorded stream into a freshly
// built proxy regenerates the recorded decision stream byte-for-byte — the
// determinism the WAL-of-inputs design rests on.
func TestReplayMatchesRecording(t *testing.T) {
	s := crashScenario()
	recorded, ops, err := RecordOps(s)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayOps(s, ops)
	if err != nil {
		t.Fatal(err)
	}
	if recorded.DecisionTrace() != replayed.DecisionTrace() {
		t.Fatalf("replay decisions diverge from recording:\n--- recorded ---\n%s\n--- replayed ---\n%s",
			recorded.DecisionTrace(), replayed.DecisionTrace())
	}
}

// TestDurableReplayUninterrupted: with no kill armed, the managed arm's
// final state and decisions equal the plain reference arm's.
func TestDurableReplayUninterrupted(t *testing.T) {
	s := crashScenario()
	_, ops, err := RecordOps(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReplayOps(s, ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayOpsDurable(s, ops, t.TempDir(), nil, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got.CrashOp != -1 {
		t.Fatalf("uninterrupted arm crashed at op %d", got.CrashOp)
	}
	if got.DecisionTrace() != ref.DecisionTrace() {
		t.Fatal("durable arm decisions diverge from reference")
	}
	if !bytes.Equal(got.State, ref.State) {
		t.Fatal("durable arm state diverges from reference")
	}
}

// TestCrashRecoveryMatrix is the tentpole oracle: for every seeded kill
// point, the crashed-and-recovered proxy must reconcile byte-for-byte with
// the uninterrupted reference — same decisions, same encoded state (audit
// log, stats, device state, pending queue, replay guard, obs registry).
func TestCrashRecoveryMatrix(t *testing.T) {
	reports, err := CrashMatrix(crashScenario(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 6 {
		t.Fatalf("matrix covered %d kill points, want 6", len(reports))
	}
	for _, r := range reports {
		if r.CrashOp < 0 {
			t.Errorf("%s: kill point never fired", r.Point)
			continue
		}
		if !r.Identical {
			t.Errorf("%s: recovered run NOT identical to reference (crash at op %d, replayed %d, resumed %d)",
				r.Point, r.CrashOp, r.Replayed, r.Resumed)
		}
		t.Logf("%s: crash@%d replayed=%d resumed=%d truncated=%d identical=%v",
			r.Point, r.CrashOp, r.Replayed, r.Resumed, r.Truncated, r.Identical)
	}
}

// TestCrashRecoveryTornTailCounted pins the torn-tail accounting: a
// mid-append crash leaves exactly one torn artifact for recovery to
// truncate, and it is reported through the recovery metrics.
func TestCrashRecoveryTornTailCounted(t *testing.T) {
	s := crashScenario()
	_, ops, err := RecordOps(s)
	if err != nil {
		t.Fatal(err)
	}
	kill := durable.KillSpec{Point: durable.KillMidAppend, Seq: uint64(len(ops) / 2)}
	got, err := ReplayOpsDurable(s, ops, t.TempDir(), &kill, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got.CrashOp < 0 {
		t.Fatal("kill never fired")
	}
	if got.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", got.Truncated)
	}
}
