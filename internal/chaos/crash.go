package chaos

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"strings"
	"time"

	"fiat/internal/core"
	"fiat/internal/durable"
	"fiat/internal/keystore"
	"fiat/internal/obs"
	"fiat/internal/simclock"
)

// The crash harness closes the durability loop: a scenario is run once
// through the full netsim fabric with a recording wrapper capturing the
// proxy's exact input stream, and that stream is then replayed through two
// arms — a plain proxy (the uninterrupted reference) and a durable.Manager
// crashed at a seeded kill point and recovered. The oracle is byte equality
// of the final core.Proxy.EncodeState images and of the rendered decision
// traces: recovery is correct only if the restarted proxy is
// indistinguishable from one that never died.

// RecordedOp is one proxy input captured during a run, stamped with the
// virtual-clock instant it was applied at.
type RecordedOp struct {
	Kind    durable.Kind
	Time    time.Time
	Batch   []core.PacketIn // OpBatch
	Payload []byte          // OpAttestation
	Device  string          // OpFlush
}

// recorder interposes on the engine and captures every input op. It is
// transparent: arguments and results pass straight through.
type recorder struct {
	eng   engine
	clock simclock.Clock
	ops   []RecordedOp
}

func (r *recorder) note(op RecordedOp) {
	op.Time = r.clock.Now()
	r.ops = append(r.ops, op)
}

func (r *recorder) ProcessBatch(batch []core.PacketIn) []core.Decision {
	cp := make([]core.PacketIn, len(batch))
	copy(cp, batch)
	r.note(RecordedOp{Kind: durable.OpBatch, Batch: cp})
	return r.eng.ProcessBatch(batch)
}

func (r *recorder) HandleAttestation(payload []byte) (bool, error) {
	r.note(RecordedOp{Kind: durable.OpAttestation, Payload: append([]byte(nil), payload...)})
	return r.eng.HandleAttestation(payload)
}

func (r *recorder) SweepPending() int {
	r.note(RecordedOp{Kind: durable.OpSweep})
	return r.eng.SweepPending()
}

func (r *recorder) AttestationChannelDown() {
	r.note(RecordedOp{Kind: durable.OpChannelDown})
	r.eng.AttestationChannelDown()
}

func (r *recorder) AttestationChannelUp() {
	r.note(RecordedOp{Kind: durable.OpChannelUp})
	r.eng.AttestationChannelUp()
}

func (r *recorder) FlushEvent(device string) *core.Decision {
	r.note(RecordedOp{Kind: durable.OpFlush, Device: device})
	return r.eng.FlushEvent(device)
}

// RecordOps runs the scenario with the recorder interposed and returns both
// the normal result and the captured input stream. Because the recorder is
// transparent, the result is byte-identical to Run's on the same scenario.
func RecordOps(s Scenario) (*Result, []RecordedOp, error) {
	rec := &recorder{}
	res, err := run(s, func(e engine, clock *simclock.VirtualClock) engine {
		rec.eng, rec.clock = e, clock
		return rec
	})
	return res, rec.ops, err
}

// buildReplayProxy reproduces Run's proxy construction bit-for-bit from the
// scenario alone — the property durable recovery leans on: rebuilding the
// proxy must yield the same configuration (checksum-enforced) every time.
func buildReplayProxy(s Scenario) durable.BuildProxy {
	s.defaults()
	return func(clock simclock.Clock) (*core.Proxy, error) {
		ks, err := keystore.New(mrand.New(mrand.NewSource(s.Seed + 100)))
		if err != nil {
			return nil, err
		}
		if _, err := keystore.NewPairingOffer(ks, mrand.New(mrand.NewSource(s.Seed+102))); err != nil {
			return nil, err
		}
		validator, err := sharedValidator()
		if err != nil {
			return nil, err
		}
		proxy := core.NewProxy(clock, ks, validator, core.Config{
			Bootstrap:     s.Bootstrap,
			Shards:        s.Shards,
			PendingWindow: s.PendingWindow,
			Relearn:       s.Relearn,
			Obs:           obs.NewRegistry(),
		})
		if err := proxy.AddDevice(core.DeviceConfig{
			Name: "plug", Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 1,
		}); err != nil {
			return nil, err
		}
		return proxy, nil
	}
}

// ReplayResult is one replay arm's outcome.
type ReplayResult struct {
	// Decisions is the rendered decision stream, same format as
	// Result.Decisions so traces compare across recording and replay.
	Decisions []string
	// State is the final core.Proxy.EncodeState image.
	State []byte
	// CrashOp, Replayed, Resumed, Truncated describe the durable arm's
	// crash: the op index the kill fired at, how many ops recovery
	// re-applied from the WAL, how many the harness re-fed afterwards, and
	// how many torn artifacts recovery truncated.
	CrashOp   int
	Replayed  int
	Resumed   int
	Truncated int64
}

// DecisionTrace renders the decision stream for byte-exact comparison.
func (r *ReplayResult) DecisionTrace() string { return strings.Join(r.Decisions, "\n") }

func renderReplayDecisions(at time.Time, ds []core.Decision) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("+%07dms plug %s %s", at.Sub(simclock.Epoch)/time.Millisecond, d.Verdict, d.Reason)
	}
	return out
}

// ReplayOps feeds a recorded stream through a plain proxy — the
// uninterrupted reference arm.
func ReplayOps(s Scenario, ops []RecordedOp) (*ReplayResult, error) {
	clock := simclock.NewVirtual()
	proxy, err := buildReplayProxy(s)(clock)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{CrashOp: -1}
	for i := range ops {
		op := &ops[i]
		clock.AdvanceTo(op.Time)
		switch op.Kind {
		case durable.OpBatch:
			res.Decisions = append(res.Decisions, renderReplayDecisions(op.Time, proxy.ProcessBatch(op.Batch))...)
		case durable.OpAttestation:
			proxy.HandleAttestation(op.Payload)
		case durable.OpSweep:
			proxy.SweepPending()
		case durable.OpChannelDown:
			proxy.AttestationChannelDown()
		case durable.OpChannelUp:
			proxy.AttestationChannelUp()
		case durable.OpFlush:
			proxy.FlushEvent(op.Device)
		}
	}
	res.State = proxy.EncodeState()
	return res, nil
}

// replaySegBytes keeps WAL segments small so every crash scenario exercises
// rotation.
const replaySegBytes = 4 << 10

// ReplayOpsDurable feeds a recorded stream through a durable.Manager with an
// optional kill point armed. Every sweep doubles as the maintenance tick,
// and every checkpointEvery-th sweep takes a checkpoint. When the kill
// fires, the manager is reopened (recovery) and the remaining ops re-fed
// from where the durable prefix ends; decisions regenerated during WAL
// replay overwrite the originals, so the returned trace is exactly what an
// operator reading the recovered audit trail would reconstruct.
func ReplayOpsDurable(s Scenario, ops []RecordedOp, dir string, kill *durable.KillSpec, checkpointEvery int) (*ReplayResult, error) {
	build := buildReplayProxy(s)
	res := &ReplayResult{CrashOp: -1}
	decs := make([][]string, len(ops))

	feed := func(mgr *durable.Manager, clock *simclock.VirtualClock, from int) (int, error) {
		sweeps := 0
		for i := from; i < len(ops); i++ {
			op := &ops[i]
			clock.AdvanceTo(op.Time)
			var ds []core.Decision
			var err error
			switch op.Kind {
			case durable.OpBatch:
				ds, err = mgr.ProcessBatch(op.Batch)
			case durable.OpAttestation:
				err = mgr.HandleAttestation(op.Payload)
			case durable.OpSweep:
				err = mgr.SweepPending()
				if err == nil {
					err = mgr.Tick()
				}
				sweeps++
				if err == nil && checkpointEvery > 0 && sweeps%checkpointEvery == 0 {
					err = mgr.Checkpoint()
				}
			case durable.OpChannelDown:
				err = mgr.AttestationChannelDown()
			case durable.OpChannelUp:
				err = mgr.AttestationChannelUp()
			case durable.OpFlush:
				_, err = mgr.FlushEvent(op.Device)
			}
			if err != nil {
				return i, err
			}
			if op.Kind == durable.OpBatch {
				decs[i] = renderReplayDecisions(op.Time, ds)
			}
		}
		return len(ops), nil
	}

	clock := simclock.NewVirtual()
	mgr, err := durable.Open(durable.Config{Dir: dir, SegmentBytes: replaySegBytes, Kill: kill}, clock, build)
	if err != nil {
		return nil, err
	}
	n, err := feed(mgr, clock, 0)
	if err != nil {
		if !errors.Is(err, durable.ErrCrashed) {
			return nil, err
		}
		res.CrashOp = n

		// Recover: fresh clock, WAL replay pins op instants, then re-feed
		// the ops the durable prefix lost. Op i carries WAL seq i+1.
		clock2 := simclock.NewVirtual()
		mgr2, err := durable.Open(durable.Config{
			Dir: dir, SegmentBytes: replaySegBytes,
			OnReplay: func(op *durable.Op, ds []core.Decision) {
				res.Replayed++
				if op.Kind == durable.OpBatch {
					decs[op.Seq-1] = renderReplayDecisions(op.Time, ds)
				}
			},
		}, clock2, build)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		last := int(mgr2.LastSeq())
		res.Resumed = len(ops) - last
		if n2, err := feed(mgr2, clock2, last); err != nil {
			return nil, fmt.Errorf("crashed again at op %d: %w", n2, err)
		}
		res.Truncated = mgr2.Metrics().Counter("fiat_durable_wal_truncated_records_total").Value()
		mgr = mgr2
	}
	res.State = mgr.Proxy().EncodeState()
	mgr.Abort()
	for i := range ops {
		res.Decisions = append(res.Decisions, decs[i]...)
	}
	return res, nil
}

// CrashReport is one kill point's reconciliation outcome in the matrix.
type CrashReport struct {
	Point      string `json:"point"`
	Ops        int    `json:"ops"`
	CrashOp    int    `json:"crash_op"`
	Replayed   int    `json:"replayed_ops"`
	Resumed    int    `json:"resumed_ops"`
	Truncated  int64  `json:"truncated_records"`
	StateBytes int    `json:"state_bytes"`
	Identical  bool   `json:"identical"`
}

// CrashMatrix records one scenario, then crashes a durable replay at every
// kill point and reconciles each recovery against the uninterrupted
// reference arm. checkpointEvery is in sweeps (0 disables periodic
// checkpoints beyond the boot image).
func CrashMatrix(s Scenario, checkpointEvery int) ([]CrashReport, error) {
	_, ops, err := RecordOps(s)
	if err != nil {
		return nil, err
	}
	ref, err := ReplayOps(s, ops)
	if err != nil {
		return nil, err
	}
	total := len(ops)
	kills := []struct {
		name string
		spec durable.KillSpec
	}{
		{"mid-append", durable.KillSpec{Point: durable.KillMidAppend, Seq: uint64(total / 3)}},
		{"after-append-unsynced", durable.KillSpec{Point: durable.KillAfterAppendUnsynced, Seq: uint64(total / 2)}},
		{"mid-rotate", durable.KillSpec{Point: durable.KillMidRotate, Seq: uint64(total / 4)}},
		{"mid-snapshot", durable.KillSpec{Point: durable.KillMidSnapshot, Checkpoint: 3}},
		{"post-snapshot", durable.KillSpec{Point: durable.KillPostSnapshot, Checkpoint: 2}},
		// The first checkpoint with new audit entries at checkpointEvery 25,
		// so the kill tears a real chunk.
		{"mid-audit", durable.KillSpec{Point: durable.KillMidAudit, Checkpoint: 7}},
	}
	var out []CrashReport
	for _, k := range kills {
		dir, err := os.MkdirTemp("", "fiat-crash-*")
		if err != nil {
			return nil, err
		}
		spec := k.spec
		got, err := ReplayOpsDurable(s, ops, dir, &spec, checkpointEvery)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		out = append(out, CrashReport{
			Point:      k.name,
			Ops:        total,
			CrashOp:    got.CrashOp,
			Replayed:   got.Replayed,
			Resumed:    got.Resumed,
			Truncated:  got.Truncated,
			StateBytes: len(got.State),
			Identical:  bytes.Equal(got.State, ref.State) && got.DecisionTrace() == ref.DecisionTrace(),
		})
	}
	return out, nil
}
