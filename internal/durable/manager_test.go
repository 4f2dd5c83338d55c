package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fiat/internal/core"
	"fiat/internal/durable"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
)

// The manager harness replays one fixed operation script through three arms:
// a plain proxy (reference), a managed proxy shut down gracefully, and a
// managed proxy crashed at a seeded kill point and recovered. The oracle is
// core.Proxy.EncodeState byte-equality — it covers the audit log, stats,
// per-device state, pending queue, replay guard, and the obs registry in one
// comparison — plus per-operation decision equality across the crash.

const mgrSeed = 7

var (
	mgrValOnce sync.Once
	mgrVal     *sensors.Validator
	mgrValErr  error
)

func mgrValidator(t *testing.T) *sensors.Validator {
	t.Helper()
	mgrValOnce.Do(func() {
		mgrVal, _, mgrValErr = sensors.DefaultValidator(mgrSeed)
	})
	if mgrValErr != nil {
		t.Fatalf("validator: %v", mgrValErr)
	}
	return mgrVal
}

// mgrBuild constructs the managed proxy. It must be bit-deterministic: the
// recovery path rebuilds the proxy from scratch with this exact function and
// restores state into it.
func mgrBuild(t *testing.T) durable.BuildProxy {
	validator := mgrValidator(t)
	return func(clock simclock.Clock) (*core.Proxy, error) {
		ks, err := keystore.New(mrand.New(mrand.NewSource(mgrSeed + 100)))
		if err != nil {
			return nil, err
		}
		if _, err := keystore.NewPairingOffer(ks, mrand.New(mrand.NewSource(mgrSeed+102))); err != nil {
			return nil, err
		}
		proxy := core.NewProxy(clock, ks, validator, core.Config{
			Bootstrap:     2 * time.Minute,
			Shards:        2,
			PendingWindow: 30 * time.Second,
			AttestWindow:  30 * time.Second,
		})
		if err := proxy.AddDevice(core.DeviceConfig{
			Name: "plug", Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 1,
		}); err != nil {
			return nil, err
		}
		return proxy, nil
	}
}

type stepKind int

const (
	stepBatch stepKind = iota
	stepAttest
	stepSweep
	stepDown
	stepUp
	stepFlush
	stepTick       // manager maintenance, not a WAL op
	stepCheckpoint // snapshot, not a WAL op
)

type step struct {
	at      time.Duration // offset from simclock.Epoch
	kind    stepKind
	batch   []core.PacketIn
	payload []byte
	device  string
	seq     uint64 // assigned for WAL-op steps, 0 otherwise
}

var mgrCloudIP = netip.MustParseAddr("52.1.1.1")

func heartbeatPkt(at time.Time) core.PacketIn {
	return core.PacketIn{Device: "plug", Rec: flows.Record{
		Time: at, Size: 128, Proto: "tcp", Dir: flows.DirOutbound,
		RemoteIP: mgrCloudIP, LocalPort: 40000, RemotePort: 443,
		Category: flows.CategoryControl,
	}}
}

func commandPkt(at time.Time, size int) core.PacketIn {
	return core.PacketIn{Device: "plug", Rec: flows.Record{
		Time: at, Size: size, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: mgrCloudIP, LocalPort: 40000, RemotePort: 443,
		TCPFlags: 0x18, TLSVersion: 0x0303, Category: flows.CategoryManual,
	}}
}

// mgrScript builds the fixed operation script: a bootstrap window of
// heartbeats, an attested manual interaction, an unattested one that expires
// through the pending queue, an attestation-channel outage, a flush, and
// trailing telemetry — with ticks and checkpoints interleaved. Attestation
// payloads are generated here, once, on a phone rig whose clock is advanced
// to each payload's instant; every arm then replays identical bytes.
func mgrScript(t *testing.T) []step {
	t.Helper()
	validator := mgrValidator(t)

	// Phone rig paired against the deterministic proxy keystore.
	proxyKS, err := keystore.New(mrand.New(mrand.NewSource(mgrSeed + 100)))
	if err != nil {
		t.Fatal(err)
	}
	phoneKS, err := keystore.New(mrand.New(mrand.NewSource(mgrSeed + 101)))
	if err != nil {
		t.Fatal(err)
	}
	offer, err := keystore.NewPairingOffer(proxyKS, mrand.New(mrand.NewSource(mgrSeed+102)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keystore.AcceptPairing(phoneKS, offer); err != nil {
		t.Fatal(err)
	}
	phoneClock := simclock.NewVirtual()
	app := core.NewClientApp(phoneClock, phoneKS)
	app.BindApp("com.plug.app", "plug")

	gen := sensors.NewGenerator(simclock.NewRNG(mgrSeed))
	window := func() sensors.Window {
		w := gen.Human()
		for try := 0; try < 20 && !validator.ValidateWindow(w); try++ {
			w = gen.Human()
		}
		return w
	}
	attest := func(at time.Duration) []byte {
		phoneClock.AdvanceTo(simclock.Epoch.Add(at))
		payload, err := app.Attest("com.plug.app", window())
		if err != nil {
			t.Fatalf("attest at +%s: %v", at, err)
		}
		return payload
	}

	var steps []step
	add := func(at time.Duration, s step) {
		s.at = at
		steps = append(steps, s)
	}
	hb := func(at time.Duration) {
		add(at, step{kind: stepBatch, batch: []core.PacketIn{heartbeatPkt(simclock.Epoch.Add(at))}})
	}
	cmd := func(at time.Duration, size int) {
		add(at, step{kind: stepBatch, batch: []core.PacketIn{commandPkt(simclock.Epoch.Add(at), size)}})
	}

	// Bootstrap: 2 minutes of heartbeats, ticked per 30 s.
	for s := 10; s <= 120; s += 10 {
		hb(time.Duration(s) * time.Second)
		if s%30 == 0 {
			add(time.Duration(s)*time.Second, step{kind: stepTick})
		}
	}
	add(121*time.Second, step{kind: stepCheckpoint}) // ordinal 2 (boot is 1)

	// Attested manual interaction: attestation lands first, then the
	// notification and its burst.
	add(125*time.Second+400*time.Millisecond, step{kind: stepAttest, payload: attest(125*time.Second + 400*time.Millisecond)})
	cmd(126*time.Second, 235)
	cmd(126*time.Second+100*time.Millisecond, 134)
	cmd(126*time.Second+200*time.Millisecond, 134)
	add(130*time.Second, step{kind: stepSweep})
	add(130*time.Second, step{kind: stepTick})

	// Unattested manual interaction: held in the pending queue, swept out
	// after the 30 s window expires.
	cmd(140*time.Second, 235)
	hb(145 * time.Second)
	add(148*time.Second, step{kind: stepCheckpoint}) // ordinal 3

	// Attestation-channel outage spanning a sweep.
	add(150*time.Second, step{kind: stepDown})
	add(155*time.Second, step{kind: stepSweep})
	hb(158 * time.Second)
	add(160*time.Second, step{kind: stepUp})
	add(165*time.Second, step{kind: stepTick})
	add(171*time.Second, step{kind: stepSweep}) // pending from +140 s expires here
	add(175*time.Second, step{kind: stepFlush, device: "plug"})

	// Trailing telemetry with periodic maintenance.
	for s := 180; s <= 300; s += 10 {
		hb(time.Duration(s) * time.Second)
		if s%30 == 0 {
			add(time.Duration(s)*time.Second, step{kind: stepSweep})
			add(time.Duration(s)*time.Second, step{kind: stepTick})
		}
	}
	add(295*time.Second, step{kind: stepCheckpoint}) // ordinal 4

	// Assign WAL sequence numbers to op steps.
	var seq uint64
	for i := range steps {
		switch steps[i].kind {
		case stepTick, stepCheckpoint:
		default:
			seq++
			steps[i].seq = seq
		}
	}
	return steps
}

func opCount(steps []step) uint64 {
	var n uint64
	for _, s := range steps {
		if s.seq > n {
			n = s.seq
		}
	}
	return n
}

func renderDecisions(ds []core.Decision) string {
	var sb strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&sb, "%s %s;", d.Verdict, d.Reason)
	}
	return sb.String()
}

// runSteps drives a manager over state directory dir through steps[from:],
// recording decisions per WAL sequence. Every completed checkpoint's
// snapshot file must equal the reference image of the proxy's current
// state: checkpoints encode into a reused buffer, and a stale byte left
// from an earlier image would show up here. Returns the step index at which
// a kill point fired, or len(steps) on clean completion.
func runSteps(t *testing.T, mgr *durable.Manager, dir string, clock *simclock.VirtualClock, steps []step, from int, dec map[uint64]string) int {
	t.Helper()
	for i := from; i < len(steps); i++ {
		st := steps[i]
		clock.AdvanceTo(simclock.Epoch.Add(st.at))
		var ds []core.Decision
		var err error
		switch st.kind {
		case stepBatch:
			ds, err = mgr.ProcessBatch(st.batch)
		case stepAttest:
			err = mgr.HandleAttestation(st.payload)
		case stepSweep:
			err = mgr.SweepPending()
		case stepDown:
			err = mgr.AttestationChannelDown()
		case stepUp:
			err = mgr.AttestationChannelUp()
		case stepFlush:
			var d *core.Decision
			d, err = mgr.FlushEvent(st.device)
			if d != nil {
				ds = []core.Decision{*d}
			}
		case stepTick:
			err = mgr.Tick()
		case stepCheckpoint:
			err = mgr.Checkpoint()
		}
		if errors.Is(err, durable.ErrCrashed) {
			return i
		}
		if err != nil {
			t.Fatalf("step %d (+%s): %v", i, st.at, err)
		}
		if st.kind == stepCheckpoint {
			checkSnapshotFile(t, mgr, dir, clock.Now())
		}
		if st.seq != 0 {
			dec[st.seq] = renderDecisions(ds)
		}
	}
	return len(steps)
}

// checkSnapshotFile reassembles the newest checkpoint, taken at instant at,
// from its snapshot and the audit segment prefix it covers, and compares it
// with the proxy's current state: the snapshot body must be the detached
// image, and restoring body plus entries into a fresh proxy must re-encode
// to exactly EncodeState.
func checkSnapshotFile(t *testing.T, mgr *durable.Manager, dir string, at time.Time) {
	t.Helper()
	h, body, log, err := durable.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	proxy := mgr.Proxy()
	if h.Seq != mgr.SnapshotSeq() || !h.Time.Equal(at) || h.ConfigSum != proxy.ConfigChecksum() {
		t.Fatalf("snapshot header %+v, want seq %d at %s", h, mgr.SnapshotSeq(), at)
	}
	if want, _ := proxy.AppendStateDetached(nil); !bytes.Equal(body, want) {
		t.Fatalf("snapshot body at seq %d (%d bytes) differs from the detached image (%d bytes)", h.Seq, len(body), len(want))
	}
	fresh, err := mgrBuild(t)(simclock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreStateDetached(body, log); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.EncodeState(), proxy.EncodeState()) {
		t.Fatalf("snapshot + audit segment at seq %d reassemble to a different image", h.Seq)
	}
}

// runReference replays the op steps against an unmanaged proxy and returns
// its decisions and final encoded state.
func runReference(t *testing.T, steps []step) (map[uint64]string, []byte) {
	t.Helper()
	clock := simclock.NewVirtual()
	proxy, err := mgrBuild(t)(clock)
	if err != nil {
		t.Fatal(err)
	}
	dec := make(map[uint64]string)
	for _, st := range steps {
		clock.AdvanceTo(simclock.Epoch.Add(st.at))
		var ds []core.Decision
		switch st.kind {
		case stepBatch:
			ds = proxy.ProcessBatch(st.batch)
		case stepAttest:
			proxy.HandleAttestation(st.payload)
		case stepSweep:
			proxy.SweepPending()
		case stepDown:
			proxy.AttestationChannelDown()
		case stepUp:
			proxy.AttestationChannelUp()
		case stepFlush:
			if d := proxy.FlushEvent(st.device); d != nil {
				ds = []core.Decision{*d}
			}
		default:
			continue
		}
		if st.seq != 0 {
			dec[st.seq] = renderDecisions(ds)
		}
	}
	return dec, proxy.EncodeState()
}

func compareDecisions(t *testing.T, steps []step, got, want map[uint64]string) {
	t.Helper()
	for seq := uint64(1); seq <= opCount(steps); seq++ {
		g, gok := got[seq]
		w, wok := want[seq]
		if !gok || !wok {
			t.Errorf("op %d: decision missing (durable %v, reference %v)", seq, gok, wok)
			continue
		}
		if g != w {
			t.Errorf("op %d: decisions diverge:\n  durable:   %s\n  reference: %s", seq, g, w)
		}
	}
}

// resumeIndex finds the first step whose op seq is lastSeq+1 — where a
// recovered manager picks the script back up.
func resumeIndex(steps []step, lastSeq uint64) int {
	for i, st := range steps {
		if st.seq == lastSeq+1 {
			return i
		}
	}
	return len(steps)
}

func counterValue(t *testing.T, mgr *durable.Manager, name string) int64 {
	t.Helper()
	return mgr.Metrics().Counter(name).Value()
}

func TestManagerGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	steps := mgrScript(t)
	refDec, refState := runReference(t, steps)

	clock := simclock.NewVirtual()
	mgr, err := durable.Open(durable.Config{Dir: dir, SegmentBytes: 2048}, clock, mgrBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	dec := make(map[uint64]string)
	if n := runSteps(t, mgr, dir, clock, steps, 0, dec); n != len(steps) {
		t.Fatalf("unexpected crash at step %d", n)
	}
	compareDecisions(t, steps, dec, refDec)
	liveState := mgr.Proxy().EncodeState()
	if !bytes.Equal(liveState, refState) {
		t.Fatal("managed proxy state diverges from unmanaged reference")
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SweepPending(); err == nil {
		t.Fatal("op after close must fail")
	}
	if err := mgr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := mgr.Tick(); err != nil {
		t.Fatalf("tick after close: %v", err)
	}
	if got, want := mgr.SnapshotSeq(), mgr.LastSeq(); got != want {
		t.Fatalf("post-close snapshot seq %d, last seq %d", got, want)
	}

	// Hot restart: the final checkpoint alone restores the image — zero
	// replayed operations.
	replayed := 0
	mgr2, err := durable.Open(durable.Config{
		Dir: dir, SegmentBytes: 2048,
		OnReplay: func(*durable.Op, []core.Decision) { replayed++ },
	}, simclock.NewVirtual(), mgrBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Abort()
	if replayed != 0 {
		t.Fatalf("graceful restart replayed %d ops", replayed)
	}
	if got := mgr2.Proxy().EncodeState(); !bytes.Equal(got, liveState) {
		t.Fatal("restarted proxy state differs from pre-shutdown state")
	}
	if mgr2.LastSeq() != opCount(steps) {
		t.Fatalf("LastSeq = %d, want %d", mgr2.LastSeq(), opCount(steps))
	}
	if v := counterValue(t, mgr2, "fiat_durable_wal_recoveries_total"); v != 1 {
		t.Fatalf("recoveries = %d, want 1", v)
	}
	if v := counterValue(t, mgr2, "fiat_durable_wal_truncated_records_total"); v != 0 {
		t.Fatalf("graceful restart truncated %d records", v)
	}
}

func TestManagerCrashRecovery(t *testing.T) {
	cases := []struct {
		name string
		kill durable.KillSpec
		// wantTruncated is the torn artifacts recovery must count.
		wantTruncated int64
	}{
		{"mid-append", durable.KillSpec{Point: durable.KillMidAppend, Seq: 20}, 1},
		// The unsynced-append kill truncates back to the synced prefix: a
		// clean cut, nothing torn.
		{"after-append-unsynced", durable.KillSpec{Point: durable.KillAfterAppendUnsynced, Seq: 23}, 0},
		{"mid-rotate", durable.KillSpec{Point: durable.KillMidRotate, Seq: 10}, 1},
		{"mid-snapshot", durable.KillSpec{Point: durable.KillMidSnapshot, Checkpoint: 3}, 0},
		{"post-snapshot", durable.KillSpec{Point: durable.KillPostSnapshot, Checkpoint: 2}, 0},
		{"mid-audit", durable.KillSpec{Point: durable.KillMidAudit, Checkpoint: 3}, 0},
	}
	steps := mgrScript(t)
	refDec, refState := runReference(t, steps)
	total := opCount(steps)

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := simclock.NewVirtual()
			kill := tc.kill
			mgr, err := durable.Open(durable.Config{Dir: dir, SegmentBytes: 2048, Kill: &kill}, clock, mgrBuild(t))
			if err != nil {
				t.Fatal(err)
			}
			dec := make(map[uint64]string)
			crashAt := runSteps(t, mgr, dir, clock, steps, 0, dec)
			if crashAt == len(steps) {
				t.Fatal("kill point never fired")
			}
			// A dead manager refuses everything.
			if err := mgr.Tick(); !errors.Is(err, durable.ErrCrashed) {
				t.Fatalf("tick after crash: %v", err)
			}
			if err := mgr.Checkpoint(); !errors.Is(err, durable.ErrCrashed) {
				t.Fatalf("checkpoint after crash: %v", err)
			}
			if err := mgr.Close(); !errors.Is(err, durable.ErrCrashed) {
				t.Fatalf("close after crash: %v", err)
			}
			// Both mid-checkpoint kills die after audit bytes reach the
			// segment but before a snapshot covers them.
			if tc.kill.Point == durable.KillMidAudit || tc.kill.Point == durable.KillMidSnapshot {
				if r := durable.Verify(dir); r.Err != nil || r.Audit.Beyond == 0 {
					t.Fatalf("crashed dir: verify err %v, %d audit bytes beyond the snapshot\n%s", r.Err, r.Audit.Beyond, r)
				}
			}

			// Recover on a fresh clock. Replay overwrites the decisions for
			// every op it re-applies; the script then resumes at the first
			// op beyond the surviving prefix.
			clock2 := simclock.NewVirtual()
			mgr2, err := durable.Open(durable.Config{
				Dir: dir, SegmentBytes: 2048,
				OnReplay: func(op *durable.Op, ds []core.Decision) { dec[op.Seq] = renderDecisions(ds) },
			}, clock2, mgrBuild(t))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer mgr2.Abort()
			last := mgr2.LastSeq()
			if last > total {
				t.Fatalf("recovered LastSeq %d beyond script (%d ops)", last, total)
			}
			if n := runSteps(t, mgr2, dir, clock2, steps, resumeIndex(steps, last), dec); n != len(steps) {
				t.Fatalf("second crash at step %d", n)
			}

			compareDecisions(t, steps, dec, refDec)
			if got := mgr2.Proxy().EncodeState(); !bytes.Equal(got, refState) {
				t.Fatal("recovered proxy state diverges from uninterrupted reference")
			}
			if v := counterValue(t, mgr2, "fiat_durable_wal_recoveries_total"); v != 1 {
				t.Fatalf("recoveries = %d, want 1", v)
			}
			if v := counterValue(t, mgr2, "fiat_durable_wal_truncated_records_total"); v != tc.wantTruncated {
				t.Fatalf("truncated = %d, want %d", v, tc.wantTruncated)
			}

			// The recovered directory itself verifies clean.
			if r := durable.Verify(dir); r.Err != nil {
				t.Fatalf("post-recovery verify: %v\n%s", r.Err, r)
			}
		})
	}
}

// corruptNewestSnapshot flips one byte in the body of the newest snapshot.
func corruptNewestSnapshot(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range ents {
		n := e.Name()
		// Fixed-width hex names sort lexicographically by seq.
		if strings.HasPrefix(n, "snap-") && strings.HasSuffix(n, ".snap") && n > newest {
			newest = n
		}
	}
	if newest == "" {
		t.Fatal("no snapshot to corrupt")
	}
	path := filepath.Join(dir, newest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestManagerOpenFailsClosedOnCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual()
	mgr, err := durable.Open(durable.Config{Dir: dir}, clock, mgrBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	steps := mgrScript(t)
	if n := runSteps(t, mgr, dir, clock, steps, 0, map[uint64]string{}); n != len(steps) {
		t.Fatalf("crash at %d", n)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	corruptNewestSnapshot(t, dir)
	if _, err := durable.Open(durable.Config{Dir: dir}, simclock.NewVirtual(), mgrBuild(t)); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("open on corrupt snapshot: err = %v, want ErrCorrupt", err)
	}
	if r := durable.Verify(dir); r.Err == nil {
		t.Fatal("verify did not flag the corrupt snapshot")
	}
}

func TestManagerOpenRejectsConfigSkew(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual()
	mgr, err := durable.Open(durable.Config{Dir: dir}, clock, mgrBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	steps := mgrScript(t)
	if n := runSteps(t, mgr, dir, clock, steps, 0, map[uint64]string{}); n != len(steps) {
		t.Fatalf("crash at %d", n)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening under a different configuration must fail closed: the
	// snapshot carries the config checksum of the proxy that wrote it.
	validator := mgrValidator(t)
	skewed := func(clock simclock.Clock) (*core.Proxy, error) {
		ks, err := keystore.New(mrand.New(mrand.NewSource(mgrSeed + 100)))
		if err != nil {
			return nil, err
		}
		proxy := core.NewProxy(clock, ks, validator, core.Config{
			Bootstrap:     3 * time.Minute, // skewed
			Shards:        2,
			PendingWindow: 30 * time.Second,
			AttestWindow:  30 * time.Second,
		})
		if err := proxy.AddDevice(core.DeviceConfig{
			Name: "plug", Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 1,
		}); err != nil {
			return nil, err
		}
		return proxy, nil
	}
	if _, err := durable.Open(durable.Config{Dir: dir}, simclock.NewVirtual(), skewed); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("open under skewed config: err = %v, want ErrCorrupt", err)
	}
}

// waitGoroutines polls, for up to 1 s, until the goroutine count is back to
// at most base. The count is process-wide, so the wait tolerates a
// goroutine of the runtime or an earlier test that is still exiting.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines, want <= %d before Open", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManagerAbortStopsShardWorkers: the managed two-shard proxy runs
// batches live and again while a recovering Open replays the WAL. After each
// Abort the goroutine count must be back at its pre-Open baseline: neither
// the batches, the replay, nor the manager leaves a goroutine behind.
func TestManagerAbortStopsShardWorkers(t *testing.T) {
	dir := t.TempDir()
	steps := mgrScript(t)
	build := mgrBuild(t)
	base := runtime.NumGoroutine()

	clock := simclock.NewVirtual()
	mgr, err := durable.Open(durable.Config{Dir: dir}, clock, build)
	if err != nil {
		t.Fatal(err)
	}
	if n := runSteps(t, mgr, dir, clock, steps, 0, map[uint64]string{}); n != len(steps) {
		t.Fatalf("unexpected crash at step %d", n)
	}
	// A batch past the script's last checkpoint, for the recovery to replay.
	if _, err := mgr.ProcessBatch([]core.PacketIn{heartbeatPkt(clock.Now())}); err != nil {
		t.Fatal(err)
	}
	mgr.Abort()
	waitGoroutines(t, base)

	replayed := 0
	mgr2, err := durable.Open(durable.Config{
		Dir:      dir,
		OnReplay: func(*durable.Op, []core.Decision) { replayed++ },
	}, simclock.NewVirtual(), build)
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("recovery replayed nothing; the replay never ran a batch")
	}
	mgr2.Abort()
	mgr2.Abort() // idempotent
	waitGoroutines(t, base)
}
