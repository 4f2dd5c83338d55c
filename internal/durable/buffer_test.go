package durable_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fiat/internal/core"
	"fiat/internal/durable"
	"fiat/internal/simclock"
)

// The manager encodes every WAL frame and every snapshot image into buffers
// it owns and reuses. These tests hold the reused buffers to the reference
// encoders byte for byte, and pin the allocations the reuse removes.

// steadyManager opens a manager on the harness proxy and runs it through
// bootstrap, so later heartbeat batches take the frozen-rule path.
func steadyManager(t *testing.T, dir string, clock *simclock.VirtualClock) *durable.Manager {
	t.Helper()
	mgr, err := durable.Open(durable.Config{Dir: dir}, clock, mgrBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Abort)
	for s := 10; s <= 130; s += 10 {
		clock.AdvanceTo(simclock.Epoch.Add(time.Duration(s) * time.Second))
		if _, err := mgr.ProcessBatch([]core.PacketIn{heartbeatPkt(clock.Now())}); err != nil {
			t.Fatal(err)
		}
	}
	return mgr
}

// nextBatch advances clock by len(batch) heartbeat periods and rewrites
// batch as that many packets 10 s apart, the last at the clock's instant.
// With port set, the packets miss the learned heartbeat and each one closes
// an event that lands in the audit log.
func nextBatch(clock *simclock.VirtualClock, batch []core.PacketIn, port uint16) {
	n := len(batch)
	clock.Advance(time.Duration(n) * 10 * time.Second)
	for i := range batch {
		batch[i] = heartbeatPkt(clock.Now().Add(time.Duration(i-n+1) * 10 * time.Second))
		if port != 0 {
			batch[i].Rec.RemotePort, batch[i].Rec.Size = port, 300
		}
	}
}

// TestManagerProcessBatchAllocCeiling: a steady 64-packet durable batch
// frames its WAL record in the manager's reused buffer, so the only
// allocation left is the returned decision slice, which callers own.
func TestManagerProcessBatchAllocCeiling(t *testing.T) {
	clock := simclock.NewVirtual()
	mgr := steadyManager(t, t.TempDir(), clock)
	batch := make([]core.PacketIn, 64)
	misses := 0
	allocs := testing.AllocsPerRun(100, func() {
		nextBatch(clock, batch, 0)
		ds, err := mgr.ProcessBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if d.Reason != core.ReasonRuleHit {
				misses++
			}
		}
	})
	if misses > 0 {
		t.Fatalf("%d measured packets were not rule hits; the pin measured the wrong path", misses)
	}
	if allocs > 1 {
		t.Fatalf("steady durable ProcessBatch: %v allocs per batch, want <= 1 (the returned decisions)", allocs)
	}
}

// TestManagerCheckpointAllocCeiling: a warm checkpoint encodes the detached
// proxy image into the manager's retained snapshot buffer and the audit
// entries added since the last checkpoint into its retained chunk buffer,
// so it allocates only a fixed few KiB (directory listings, registry key
// sorts, the config digest). The proxy first accumulates an audit log whose
// encoding alone is several times the ceiling, and one more batch adds
// entries for the measured checkpoint to append, so the pin fails if either
// the history or the new entries cost allocations.
func TestManagerCheckpointAllocCeiling(t *testing.T) {
	const ceiling = 16 << 10
	clock := simclock.NewVirtual()
	mgr := steadyManager(t, t.TempDir(), clock)
	batch := make([]core.PacketIn, 64)
	for r := 0; r < 20; r++ {
		nextBatch(clock, batch, 8883)
		if _, err := mgr.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	nextBatch(clock, batch, 8883)
	if _, err := mgr.ProcessBatch(batch); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := len(mgr.Proxy().Log())
	if logBytes := len(mgr.Proxy().AppendLogEntries(nil, 0, n)); logBytes < 4*ceiling {
		t.Fatalf("audit log encodes to %d bytes; the workload did not build the history it pins", logBytes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= ceiling {
		t.Fatalf("warm checkpoint allocated %d bytes with %d audit entries, want < %d", got, n, ceiling)
	}
}

// TestManagerWALFramesMatchReference: the reused frame buffer shrinks and
// grows across a large batch, smaller batches and an attestation, and the
// segment must still hold exactly the reference framing of each op — a
// stale tail from a longer frame would show up here.
func TestManagerWALFramesMatchReference(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual()
	mgr, err := durable.Open(durable.Config{Dir: dir, SegmentBytes: 1 << 20}, clock, mgrBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Abort()

	want := []byte(durable.WALMagic)
	seq := uint64(0)
	logged := func(op durable.Op) {
		seq++
		op.Seq, op.Time = seq, clock.Now()
		want = durable.AppendFrame(want, durable.EncodeOp(&op))
	}
	for _, n := range []int{64, 8, 1} {
		batch := make([]core.PacketIn, n)
		nextBatch(clock, batch, 0)
		if _, err := mgr.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
		logged(durable.Op{Kind: durable.OpBatch, Batch: batch})
	}
	payload := bytes.Repeat([]byte{0xa5}, 96)
	clock.Advance(time.Second)
	if err := mgr.HandleAttestation(payload); err != nil {
		t.Fatal(err)
	}
	logged(durable.Op{Kind: durable.OpAttestation, Payload: payload})

	got, err := os.ReadFile(filepath.Join(dir, durable.SegName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL segment (%d bytes) differs from the reference framing (%d bytes)", len(got), len(want))
	}
}
