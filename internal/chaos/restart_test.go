package chaos

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"fiat/internal/core"
)

// TestScenarioShardedMatchesSequential: the multi-shard batched engine
// driven through the full netsim fabric — gateway batching, courier faults,
// partitions, pending sweeps — produces a Result identical to the
// sequential engine on every surface, including the shared metrics snapshot.
func TestScenarioShardedMatchesSequential(t *testing.T) {
	s := crashScenario()
	s.Shards = 1
	seq, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Shards = 2
	sharded, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if seq.DecisionTrace() != sharded.DecisionTrace() {
		t.Errorf("sharded decision stream diverges:\n--- seq ---\n%s\n--- sharded ---\n%s",
			seq.DecisionTrace(), sharded.DecisionTrace())
	}
	if seq.LogTrace() != sharded.LogTrace() {
		t.Error("sharded audit log diverges from seq")
	}
	if !reflect.DeepEqual(seq.Stats, sharded.Stats) {
		t.Errorf("sharded stats diverge:\nseq:     %+v\nsharded: %+v", seq.Stats, sharded.Stats)
	}
	if !reflect.DeepEqual(seq.Fault, sharded.Fault) {
		t.Errorf("fault stats diverge:\nseq:     %+v\nsharded: %+v", seq.Fault, sharded.Fault)
	}
	if seq.Metrics != sharded.Metrics {
		t.Error("sharded metrics snapshot diverges from seq")
	}
	if seq.Locked != sharded.Locked || seq.PendingLeft != sharded.PendingLeft ||
		seq.AttestationsSent != sharded.AttestationsSent ||
		seq.AttestationsDelivered != sharded.AttestationsDelivered ||
		seq.DeviceFramesDelivered != sharded.DeviceFramesDelivered {
		t.Errorf("scalar results diverge:\nseq:     %+v\nsharded: %+v", seq, sharded)
	}
}

// compareToReference checks a durable arm's decision-bearing surfaces
// against the plain (unmanaged) reference run. Metrics are excluded: the
// managed proxy observes into its own registry, so the shared snapshot
// legitimately differs between managed and unmanaged runs.
func compareToReference(t *testing.T, arm string, ref, got *Result) {
	t.Helper()
	if ref.DecisionTrace() != got.DecisionTrace() {
		t.Errorf("%s: decision stream diverges from reference:\n--- reference ---\n%s\n--- %s ---\n%s",
			arm, ref.DecisionTrace(), arm, got.DecisionTrace())
	}
	if ref.LogTrace() != got.LogTrace() {
		t.Errorf("%s: audit log diverges from reference", arm)
	}
	if !reflect.DeepEqual(ref.Stats, got.Stats) {
		t.Errorf("%s: stats diverge:\nreference: %+v\n%s: %+v", arm, ref.Stats, arm, got.Stats)
	}
	if ref.Locked != got.Locked {
		t.Errorf("%s: lockout state %v, reference %v", arm, got.Locked, ref.Locked)
	}
	if ref.PendingLeft != got.PendingLeft {
		t.Errorf("%s: pending depth %d, reference %d", arm, got.PendingLeft, ref.PendingLeft)
	}
	if ref.AttestationsSent != got.AttestationsSent || ref.AttestationsDelivered != got.AttestationsDelivered {
		t.Errorf("%s: courier accounting diverges: sent %d/%d delivered %d/%d", arm,
			got.AttestationsSent, ref.AttestationsSent, got.AttestationsDelivered, ref.AttestationsDelivered)
	}
	if ref.DeviceFramesDelivered != got.DeviceFramesDelivered {
		t.Errorf("%s: device frames %d, reference %d", arm, got.DeviceFramesDelivered, ref.DeviceFramesDelivered)
	}
}

// TestRestartUnderLoad is the satellite oracle: a durably-managed gateway
// killed and reopened mid-scenario — twice, with couriers, faults, and a
// partition live in the fabric — must be indistinguishable from one that
// never died. Three arms: the plain reference run, a durable arm
// with no restart, and a durable arm restarted at 30 s and 60 s after
// bootstrap. The restarted arm's decisions/log/stats must equal the plain
// reference, and its final encoded state must be byte-identical to the
// uninterrupted durable arm's.
func TestRestartUnderLoad(t *testing.T) {
	// crashScenario runs two shards, so the proxy batches on the shard
	// workers.
	t.Run("sharded", func(t *testing.T) {
		s := crashScenario()
		ref, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		restartAt := []time.Duration{30 * time.Second, 60 * time.Second}

		uninterrupted, repA, err := RunDurable(s, t.TempDir(), nil, 20)
		if err != nil {
			t.Fatal(err)
		}
		if repA.Restarts != 0 || repA.Replayed != 0 {
			t.Fatalf("uninterrupted arm reports restarts=%d replayed=%d", repA.Restarts, repA.Replayed)
		}
		restarted, repB, err := RunDurable(s, t.TempDir(), restartAt, 20)
		if err != nil {
			t.Fatal(err)
		}
		if repB.Restarts != len(restartAt) {
			t.Fatalf("completed %d restarts, want %d", repB.Restarts, len(restartAt))
		}
		if repB.Replayed == 0 {
			t.Fatal("restarts replayed no WAL operations; recovery was vacuous")
		}
		if repB.Checkpoints == 0 {
			t.Fatal("no periodic checkpoints taken; recovery never composed snapshot+suffix")
		}

		compareToReference(t, "uninterrupted-durable", ref, uninterrupted)
		compareToReference(t, "restarted-durable", ref, restarted)
		// The recovered proxy's full image — devices, audit log, stats,
		// pending queue, replay guard, obs registry — must match the
		// never-killed managed twin byte for byte.
		if !bytes.Equal(repA.State, repB.State) {
			t.Errorf("restarted state image (%d bytes) != uninterrupted state image (%d bytes)",
				len(repB.State), len(repA.State))
		}
		if uninterrupted.Metrics != restarted.Metrics {
			t.Error("shared fabric metrics diverge between durable arms")
		}
		// The scenario still exercised its degraded-mode content across
		// the restarts.
		if !restarted.HasReason(core.ReasonLateAttest) && !restarted.HasReason(core.ReasonOutageExcused) &&
			!restarted.HasReason(core.ReasonPendingHold) {
			t.Errorf("restarted run shows no degraded-mode reasons; scenario content lost")
		}
	})
}
