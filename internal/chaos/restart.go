package chaos

import (
	"fmt"
	"time"

	"fiat/internal/core"
	"fiat/internal/durable"
	"fiat/internal/simclock"
)

// The restart harness runs a live scenario with the proxy governed by a
// durable.Manager inside the netsim fabric — heartbeats, couriers, and
// faults all active — and kills/reopens the gateway at scheduled instants
// mid-run. Unlike the crash matrix (crash.go), which replays a recorded op
// stream offline, this exercises recovery under load: the fabric keeps
// generating traffic across the restart, and the recovered proxy must carry
// the scenario forward exactly as an uninterrupted one would.

// DurableReport describes the durability activity of one RunDurable run.
type DurableReport struct {
	// Restarts counts completed kill/reopen cycles.
	Restarts int
	// Replayed counts WAL operations re-applied across all recoveries.
	Replayed int
	// Checkpoints counts periodic checkpoints taken by the sweep cadence
	// (the boot image excluded).
	Checkpoints int
	// State is the managed proxy's final EncodeState image.
	State []byte
}

// durEngine adapts a durable.Manager to the scenario engine interface and
// supports in-place restart. It is not transparent the way the recorder is:
// the run-local proxy is abandoned and a manager-governed twin (built by
// buildReplayProxy, so construction is bit-identical) takes its place; run()
// reads results through resultProxy. The first manager error is latched and
// turns subsequent operations into no-ops — RunDurable surfaces it after the
// scenario winds down.
type durEngine struct {
	dir    string
	build  durable.BuildProxy
	clock  *simclock.VirtualClock
	mgr    *durable.Manager
	every  int // checkpoint every N sweeps (0 = boot image only)
	sweeps int
	rep    *DurableReport
	err    error
}

func (e *durEngine) fail(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
}

func (e *durEngine) ProcessBatch(batch []core.PacketIn) []core.Decision {
	if e.err != nil {
		return nil
	}
	ds, err := e.mgr.ProcessBatch(batch)
	e.fail(err)
	return ds
}

func (e *durEngine) HandleAttestation(payload []byte) (bool, error) {
	if e.err != nil {
		return false, e.err
	}
	// The verdict-returning form: the courier fabric acks only decoded
	// payloads, and a durability failure reads as "no ack" (safe).
	return e.mgr.HandleAttestationVerdict(payload)
}

// SweepPending doubles as the maintenance tick, as cmd/fiat-proxy wires it:
// sweep, fsync/tick, and every e.every-th sweep a checkpoint. The swept
// count is not plumbed through the manager; the scenario loop discards it.
func (e *durEngine) SweepPending() int {
	if e.err != nil {
		return 0
	}
	e.fail(e.mgr.SweepPending())
	e.fail(e.mgr.Tick())
	e.sweeps++
	if e.every > 0 && e.sweeps%e.every == 0 && e.err == nil {
		e.fail(e.mgr.Checkpoint())
		if e.err == nil {
			e.rep.Checkpoints++
		}
	}
	return 0
}

func (e *durEngine) AttestationChannelDown() {
	if e.err == nil {
		e.fail(e.mgr.AttestationChannelDown())
	}
}

func (e *durEngine) AttestationChannelUp() {
	if e.err == nil {
		e.fail(e.mgr.AttestationChannelUp())
	}
}

func (e *durEngine) FlushEvent(device string) *core.Decision {
	if e.err != nil {
		return nil
	}
	d, err := e.mgr.FlushEvent(device)
	e.fail(err)
	return d
}

func (e *durEngine) resultProxy() *core.Proxy {
	if e.mgr == nil {
		return nil
	}
	return e.mgr.Proxy()
}

// restart models the gateway process dying and coming back: Abort drops the
// WAL handle without syncing or checkpointing (SyncAlways means nothing
// acknowledged is lost), and Open recovers snapshot+suffix onto a freshly
// built proxy. It runs inside the virtual event loop, so it can never
// interleave with a half-applied operation.
func (e *durEngine) restart(time.Time) {
	if e.err != nil {
		return
	}
	e.mgr.Abort()
	mgr, err := durable.Open(durable.Config{
		Dir: e.dir, Sync: durable.SyncAlways, SegmentBytes: replaySegBytes,
		OnReplay: func(*durable.Op, []core.Decision) { e.rep.Replayed++ },
	}, e.clock, e.build)
	if err != nil {
		e.fail(fmt.Errorf("restart recovery: %w", err))
		return
	}
	e.mgr = mgr
	e.rep.Restarts++
}

// RunDurable executes the scenario with the proxy under durable management,
// restarting it at each restartAt offset (measured from the end of the
// bootstrap window, like ManualAt). dir is the state directory the WAL and
// snapshots live in; checkpointEvery is in sweeps (one per virtual second).
// Restarts are expected to be invisible: the returned Result should match a
// plain Run of the same scenario on every decision-bearing surface.
func RunDurable(s Scenario, dir string, restartAt []time.Duration, checkpointEvery int) (*Result, *DurableReport, error) {
	s.defaults()
	rep := &DurableReport{}
	var de *durEngine
	res, err := run(s, func(_ engine, clock *simclock.VirtualClock) engine {
		de = &durEngine{dir: dir, build: buildReplayProxy(s), clock: clock, every: checkpointEvery, rep: rep}
		mgr, err := durable.Open(durable.Config{
			Dir: dir, Sync: durable.SyncAlways, SegmentBytes: replaySegBytes,
		}, clock, de.build)
		if err != nil {
			de.err = fmt.Errorf("open: %w", err)
			return de
		}
		de.mgr = mgr
		// wrap runs before the event loop starts, so AfterFunc offsets are
		// epoch-relative: bootstrap + off lands the restart mid-scenario.
		for _, off := range restartAt {
			clock.AfterFunc(s.Bootstrap+off, de.restart)
		}
		return de
	})
	if err != nil {
		return nil, nil, err
	}
	if de.err != nil {
		return nil, nil, de.err
	}
	rep.State = de.mgr.Proxy().EncodeState()
	de.mgr.Abort()
	return res, rep, nil
}
