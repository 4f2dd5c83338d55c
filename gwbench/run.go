package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"fiat/internal/core"
	"fiat/internal/devices"
	"fiat/internal/obs"
	"fiat/internal/packet"
)

// maxBatch is netsim.Gateway's default batch bound: same-instant frames
// are decided together, at most this many at a time.
const maxBatch = 64

const fnvPrime = 1099511628211

// runner drives one world through a stream: it owns the stream position,
// the decision digest, the oracle accounting and the timing samples.
type runner struct {
	w        *world
	st       *stream
	stateDir string
	pos      int64
	tr       *tracer
	check    bool // account against the oracle (timed phases and replay)
	probe    bool // count allocations around each layer call

	pk   []core.PacketIn
	dst  []core.Decision
	slot []int32

	digest uint64
	acct   acct

	attestE2E, attestClient, attestDeliver, attestHandle []int64
	ckptNs                                               []int64
	sweepMax                                             int64
	walAppended, walBase                                 int64
	lastBatch                                            [2]int64
	trFrames, trPackets                                  int64 // carried by traced batches

	cnt, cntStart counters // module counters summed over proxy lifetimes

	heap     heapSampler
	lastTick int64
	gauges   int64 // last locked-device gauge sample time
}

// acct is the oracle accounting of checked work.
type acct struct {
	frames, unresolved, attests int64
	// failed counts work the floor oracle did not predict; gtFailed counts
	// work that missed the ground truth; floor is how much of that the
	// models' own outputs explain.
	failed, gtFailed, floor int64
	deliveryErrs            int64
	reasons                 [16]int64
	lockedMax               int64
	probeFrames, probeBatch int64
	probeDecode, probeCore  uint64
}

func newRunner(w *world, st *stream, stateDir string) *runner {
	return &runner{
		w: w, st: st, stateDir: stateDir,
		pk:     make([]core.PacketIn, 0, maxBatch),
		dst:    make([]core.Decision, 0, maxBatch),
		slot:   make([]int32, 0, maxBatch),
		digest: 14695981039346656037,
	}
}

// boot feeds the bootstrap window: same-instant batches of learned traffic.
func (r *runner) boot() error {
	b := r.st.boot
	for i := 0; i < len(b); {
		j := i + 1
		for j < len(b) && j-i < maxBatch && b[j].off == b[i].off {
			j++
		}
		if err := r.frameItems(b[i:j], epoch+b[i].off); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// frameItems decides bootstrap frames (not part of the cyclic stream).
func (r *runner) frameItems(items []item, vt int64) error {
	r.w.clock.set(vt)
	r.pk, r.slot = r.pk[:0], r.slot[:0]
	for i, it := range items {
		r.admit(r.st.frames[it.frame], vt, int32(i))
	}
	return r.decide()
}

// admit decodes one frame and, when it belongs to a protected device,
// queues its record for the batch, remembering the frame's slot in it.
// Frames of no protected device fail open.
func (r *runner) admit(data []byte, vt int64, slot int32) {
	p := packet.Decode(data, packet.CaptureInfo{Timestamp: at(vt), CaptureLength: len(data), Length: len(data)})
	d := r.resolve(p)
	if d < 0 {
		return
	}
	rec, ok := devices.RecordFromFrame(p, r.st.devIP[d], nil)
	if !ok {
		return
	}
	r.pk = append(r.pk, core.PacketIn{Device: r.st.names[d], Rec: rec})
	r.slot = append(r.slot, slot)
}

// decide runs the resolved packets through the proxy, durably if the world
// has a WAL.
func (r *runner) decide() error {
	if len(r.pk) == 0 {
		r.dst = r.dst[:0]
		return nil
	}
	if r.w.mgr != nil {
		ds, err := r.w.mgr.ProcessBatch(r.pk)
		r.dst = ds
		return err
	}
	r.dst = r.w.proxy.ProcessBatchInto(r.pk, r.dst)
	return nil
}

func (r *runner) resolve(p *packet.Packet) int32 {
	ip := p.IPv4()
	if ip == nil {
		return -1
	}
	if d, ok := r.st.byIP[ip.SrcIP]; ok {
		return d
	}
	if d, ok := r.st.byIP[ip.DstIP]; ok {
		return d
	}
	return -1
}

// step runs the next unit of work at the stream position: the op there, or
// a frame batch. A closed-loop batch takes up to maxBatch consecutive
// frames; an open-loop batch takes the frames of one virtual instant, as
// netsim.Gateway flushes them. It returns the frames decided.
func (r *runner) step(closed bool) (int, error) {
	it, vt := r.st.at(r.pos)
	if it.kind != kFrame {
		return 0, r.op(it, vt)
	}
	n := 1
	for n < maxBatch {
		nx, nvt := r.st.at(r.pos + int64(n))
		if nx.kind != kFrame || (!closed && nvt != vt) {
			break
		}
		n++
	}
	return n, r.frames(n, vt)
}

// frames decides the n frames at the stream position as one batch at the
// first frame's virtual instant.
func (r *runner) frames(n int, vt int64) error {
	r.w.clock.set(vt)
	var rs, ds, de, cs, ce int64
	var ms runtime.MemStats
	if r.tr != nil {
		rs = mono()
		ds = mono()
	}
	if r.probe {
		runtime.ReadMemStats(&ms)
		r.acct.probeDecode -= ms.Mallocs
	}
	r.pk, r.slot = r.pk[:0], r.slot[:0]
	for i := 0; i < n; i++ {
		p := r.pos + int64(i)
		it, fvt := r.st.at(p)
		r.admit(r.st.frames[r.st.frameOf(it, p)], fvt, int32(i))
	}
	if r.probe {
		runtime.ReadMemStats(&ms)
		r.acct.probeDecode += ms.Mallocs
		r.acct.probeCore -= ms.Mallocs
	}
	if r.tr != nil {
		de = mono()
		cs = mono()
	}
	err := r.decide()
	if r.tr != nil {
		ce = mono()
		re := mono()
		layer := spCore
		if r.w.mgr != nil {
			layer = spDurable
		}
		r.tr.record(rawSpan{spFrameBatch, rs, re}, rawSpan{spDecode, ds, de}, rawSpan{layer, cs, ce})
		r.lastBatch = [2]int64{rs, re}
		r.trFrames += int64(n)
		r.trPackets += int64(len(r.pk))
	}
	if r.probe {
		runtime.ReadMemStats(&ms)
		r.acct.probeCore += ms.Mallocs
		r.acct.probeFrames += int64(n)
		r.acct.probeBatch++
	}
	if err != nil {
		return err
	}

	j := 0
	for i := 0; i < n; i++ {
		it, _ := r.st.at(r.pos + int64(i))
		allowed, code := true, byte(0x7e) // unresolved: fails open
		if j < len(r.slot) && int(r.slot[j]) == i {
			d := r.dst[j]
			j++
			allowed = d.Verdict == core.Allow
			code = reasonCode(d)
		}
		r.digest = (r.digest ^ uint64(code)) * fnvPrime
		if !r.check {
			continue
		}
		a := &r.acct
		a.frames++
		a.reasons[code&0x0f]++
		if code == 0x7e {
			a.unresolved++
		}
		if allowed != it.want {
			a.failed++
		}
		if allowed != it.truth {
			a.gtFailed++
		}
		if it.want != it.truth {
			a.floor++
		}
	}
	r.pos += int64(n)
	return nil
}

// Decision reason codes for the digest (low nibble) and verdict (0x80).
var reasonCodes = map[core.Reason]byte{
	core.ReasonBootstrap: 1, core.ReasonRuleHit: 2, core.ReasonGraceN: 3,
	core.ReasonNonManual: 4, core.ReasonHumanOK: 5, core.ReasonNoHuman: 6,
	core.ReasonLocked: 7, core.ReasonDAGAllowed: 8, core.ReasonEventFollow: 9,
	core.ReasonPendingHold: 10, core.ReasonLateAttest: 11, core.ReasonPendingExpired: 12,
	core.ReasonOutageExcused: 13,
}

func reasonCode(d core.Decision) byte {
	c, ok := reasonCodes[d.Reason]
	if !ok {
		c = 15
	}
	if d.Verdict == core.Allow {
		c |= 0x80
	}
	return c
}

// op runs the op at the stream position.
func (r *runner) op(it *item, vt int64) error {
	pos := r.pos
	r.pos++
	if !r.st.opRuns(it, pos) {
		return nil
	}
	r.w.clock.set(vt)
	switch it.kind {
	case kAttest:
		return r.attest(it)
	case kSweep:
		s := mono()
		if r.w.mgr != nil {
			if err := r.w.mgr.SweepPending(); err != nil {
				return err
			}
		} else {
			r.w.proxy.SweepPending()
		}
		e := mono()
		r.sweepMax = max(r.sweepMax, e-s)
		if r.tr != nil {
			r.tr.record(rawSpan{spSweep, s, e})
		}
	case kCheckpoint:
		if r.w.mgr == nil {
			return nil // the reference replay keeps no durable state
		}
		return r.checkpoint()
	}
	return nil
}

// checkpoint snapshots the durable state and accounts the WAL bytes the
// checkpoint trims.
func (r *runner) checkpoint() error {
	r.walAppended += walBytes(r.stateDir) - r.walBase
	s := mono()
	if err := r.w.mgr.Checkpoint(); err != nil {
		return err
	}
	e := mono()
	r.walBase = walBytes(r.stateDir)
	r.ckptNs = append(r.ckptNs, e-s)
	if r.tr != nil {
		r.tr.record(rawSpan{spCheckpoint, s, e})
	}
	return nil
}

// attest makes the phone attest one interaction and, with a transport,
// ships it over quicfast 0-RTT and waits for the proxy's handler; the
// reference replay hands the same payload to the proxy directly.
func (r *runner) attest(it *item) error {
	w := r.w
	s0 := mono()
	payload, err := w.app.Attest(appName(r.st, it.dev), r.st.windows[it.frame])
	s1 := mono()
	if err != nil {
		return err
	}
	var human bool
	var herr error
	code := byte(0x40)
	if w.qc != nil {
		_, derr := w.qc.Deliver(payload)
		s2 := mono()
		var h handled
		if derr == nil {
			var tag [32]byte
			copy(tag[:], payload[len(payload)-32:])
			h, derr = w.awaitHandled(tag)
		}
		if derr != nil {
			fmt.Fprintln(os.Stderr, "gwbench: attestation delivery:", derr)
			r.acct.deliveryErrs++
			herr, code = derr, 0x7d
		} else {
			human, herr = h.human, h.err
			r.attestE2E = append(r.attestE2E, h.end-s0)
			r.attestClient = append(r.attestClient, s1-s0)
			r.attestDeliver = append(r.attestDeliver, s2-s1)
			r.attestHandle = append(r.attestHandle, h.end-h.start)
			if r.tr != nil {
				r.tr.record(rawSpan{spAttest, s0, h.end}, rawSpan{spClient, s0, s1},
					rawSpan{spDeliver, s1, min(s2, h.end)}, rawSpan{spHandle, h.start, h.end})
			}
		}
	} else {
		human, herr = w.proxy.HandleAttestation(payload)
	}
	if human {
		code |= 1
	}
	if herr != nil {
		code |= 2
	}
	r.digest = (r.digest ^ uint64(code)) * fnvPrime
	if r.check {
		a := &r.acct
		a.attests++
		if herr != nil || human != it.want {
			a.failed++
		}
		if it.truth && !human {
			a.gtFailed++
		}
		if it.truth && !it.want {
			a.floor++
		}
	}
	return nil
}

// tick runs the wall-clock housekeeping of the timed loops: heap peak
// sampling, the durable fsync tick (which logs no op and decides nothing),
// and the locked-device gauge.
func (r *runner) tick() error {
	now := mono()
	if now-r.lastTick < int64(time.Millisecond) {
		return nil
	}
	r.lastTick = now
	r.heap.sample()
	if now-r.gauges >= int64(50*time.Millisecond) {
		r.gauges = now
		r.acct.lockedMax = max(r.acct.lockedMax, r.w.proxy.Metrics().Values()["fiat_core_locked_devices"])
		if r.w.mgr != nil {
			return r.w.mgr.Tick()
		}
	}
	return nil
}

// phase records where a timed phase ended, so the replay can re-run the
// same batches.
type phase struct {
	closed bool
	end    int64
	digest uint64
}

// closedStats describes a closed-loop run, slice by slice.
type closedStats struct {
	frames int64
	fps    []float64 // frames per wall second
	cpu    []float64 // process CPU microseconds per frame
}

// closedLoop submits batches back to back for dur, in equal slices. Wall
// throughput and process CPU time are taken per slice, so a stall of the
// shared machine moves one slice, not the run.
func (r *runner) closedLoop(dur time.Duration, slices int) (*closedStats, error) {
	cs := &closedStats{}
	slice := int64(dur) / int64(slices)
	for i := 0; i < slices; i++ {
		start, cpu0 := mono(), cpuTime()
		var n int64
		for mono()-start < slice {
			k, err := r.step(true)
			if err != nil {
				return nil, err
			}
			n += int64(k)
			if err := r.tick(); err != nil {
				return nil, err
			}
		}
		cs.frames += n
		cs.fps = append(cs.fps, float64(n)/(float64(mono()-start)/1e9))
		cs.cpu = append(cs.cpu, float64(cpuTime()-cpu0)/1e3/float64(max(n, 1)))
	}
	return cs, nil
}

// latSample is one open-loop batch: every frame in it waited lat.
type latSample struct {
	lat int64
	n   int32
}

// openStats describes an open-loop run.
type openStats struct {
	lat     []latSample
	genLate []int64 // per step: submission minus max(due, previous verdict)
	backlog int64   // most steps already due at a submission (capped at 1024)
	frames  int64   // frames sampled
}

// openLoop offers the stream at rate frames per second for dur. Each
// instant is due at its virtual time scaled to the rate; a batch's frames
// are timed from when they were due, after a warm-up tenth of the
// schedule. The generator spins for the last 2 ms before a due time so its
// own lateness stays small, and records that lateness apart from the
// proxy's backlog.
func (r *runner) openLoop(dur time.Duration, rate float64) (*openStats, error) {
	k := float64(r.st.framesPerCycle) / (rate * float64(r.st.period) / 1e9) // wall ns per virtual ns
	_, vt0 := r.st.at(r.pos)
	due := func(pos int64) int64 {
		_, vt := r.st.at(pos)
		return int64(float64(vt-vt0) * k)
	}
	// Size the sample buffers for the whole schedule up front, so the
	// loop's own allocations stay out of the heap it measures.
	steps := 0
	for p := r.pos; due(p) < int64(dur); p++ {
		steps++
	}
	res := &openStats{lat: make([]latSample, 0, steps), genLate: make([]int64, 0, steps)}
	// The first tenth of the schedule brings the loop to steady state and
	// is not sampled.
	warm := int64(dur) / 10
	start := mono()
	var prevDone int64
	for {
		d := due(r.pos)
		if d >= int64(dur) {
			break
		}
		d += start
		for {
			now := mono()
			if now >= d {
				break
			}
			if d-now > int64(2*time.Millisecond) {
				time.Sleep(time.Duration(d - now - int64(time.Millisecond)))
			}
		}
		submit := mono()
		res.genLate = append(res.genLate, submit-max(d, prevDone))
		var b int64
		for p := r.pos + 1; b < 1024 && start+due(p) <= submit; p++ {
			b++
		}
		res.backlog = max(res.backlog, b)
		n, err := r.step(false)
		if err != nil {
			return nil, err
		}
		done := mono()
		if n > 0 && d-start >= warm {
			res.lat = append(res.lat, latSample{done - d, int32(n)})
			res.frames += int64(n)
		}
		prevDone = done
		if err := r.tick(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// restartLead is how many closed-loop steps run between the checkpoint and
// the pulled plug: the WAL suffix a restart replays.
const restartLead = 100

// restart pulls the plug on the durable gateway after a checkpoint and a
// fixed run of batches, recovers it through durable.Open and the zero-copy
// artifact store, and times it up to the first post-restart verdict.
func (r *runner) restart() (total, open int64, err error) {
	if err := r.checkpoint(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < restartLead; i++ {
		if _, err := r.step(true); err != nil {
			return 0, 0, err
		}
	}
	r.walAppended += walBytes(r.stateDir) - r.walBase
	r.endCounters()
	s := mono()
	r.w.mgr.Abort()
	if err := r.w.openDurable(r.stateDir); err != nil {
		return 0, 0, err
	}
	o := mono()
	r.beginCounters()
	r.walBase = walBytes(r.stateDir)
	for {
		n, err := r.step(true)
		if err != nil {
			return 0, 0, err
		}
		if n > 0 {
			break
		}
	}
	e := mono()
	if r.tr != nil {
		r.tr.record(rawSpan{spRestart, s, e}, rawSpan{spOpen, s, o}, rawSpan{spFrameBatch, r.lastBatch[0], r.lastBatch[1]})
	}
	return e - s, o - s, nil
}

// walBytes sums the WAL segment sizes in dir.
func walBytes(dir string) int64 {
	ents, _ := os.ReadDir(dir) // a missing dir holds no WAL
	var n int64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}

// snapshotBytes is the size of the newest snapshot in dir.
func snapshotBytes(dir string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")) // sorted; empty if none
	if len(names) == 0 {
		return 0
	}
	info, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0
	}
	return info.Size()
}

// heapSampler tracks the peak of HeapInuse (heap object bytes plus unused
// bytes of in-use spans) without stopping the world.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func (h *heapSampler) sample() {
	if h.s == nil {
		h.s = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	}
	metrics.Read(h.s)
	h.peak = max(h.peak, h.s[0].Value.Uint64()+h.s[1].Value.Uint64())
}

// counters are the public module counters the per-layer metrics read.
type counters map[string]int64

func (r *runner) counters() counters {
	c := counters{}
	for k, v := range r.w.proxy.Metrics().Values() {
		c[k] = v
	}
	for k, v := range r.w.proxy.SwapMetrics().Values() {
		c[k] = v
	}
	if r.w.clientReg != nil {
		for k, v := range r.w.clientReg.Values() {
			c[k] = v
		}
	}
	return c
}

// beginCounters starts a counting segment on the current proxy; a restart
// builds a new proxy, so counts are summed segment by segment.
func (r *runner) beginCounters() {
	if r.cnt == nil {
		r.cnt = counters{}
	}
	r.cntStart = r.counters()
}

func (r *runner) endCounters() {
	for k, v := range r.counters() {
		r.cnt[k] += v - r.cntStart[k]
	}
}

var zeroRTTName = obs.Label("fiat_quicfast_client_deliver_total", "path", "0rtt")
var oneRTTName = obs.Label("fiat_quicfast_client_deliver_total", "path", "1rtt")
