package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"fiat/internal/core"
	"fiat/internal/devices"
	"fiat/internal/events"
	"fiat/internal/flows"
	"fiat/internal/packet"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
)

// Item kinds of the generated input stream.
const (
	kFrame      uint8 = iota // one raw frame crossing the gateway
	kAttest                  // the paired phone attests an interaction
	kSweep                   // housekeeping tick: SweepPending (durably logged)
	kCheckpoint              // durable checkpoint
)

// item is one entry of a stream cycle. The stream repeats its cycle forever:
// position p is cycle item p%len(cycle) in cycle p/len(cycle), at virtual
// time start + cycle*period + off. Frame bytes are shared across cycles;
// decoding never mutates them.
type item struct {
	off  int64 // virtual nanoseconds from the cycle start
	kind uint8
	// want is the floor oracle: the verdict the paper's decision rule gives
	// this frame given the trained models' own outputs (for kAttest: the
	// humanness model's verdict on the window). truth is the ground truth:
	// whether the frame should pass (for kAttest: whether a human made it).
	want, truth bool
	every       int32 // ops run only in cycles divisible by every (0 = all)
	frame       int32 // frame template (kFrame) or sensor window (kAttest)
	alt         int32 // drifted frame template in drifted cycles, -1 if none
	dev         int32 // owning device; -1 for frames of no protected device
}

// event is one generated burst of unpredictable traffic on one device,
// tracked so the oracle can place its decision point.
type event struct {
	dev       int
	items     []int // cycle indices of its frames, in order
	attest    int   // cycle index of the attestation vouching for it, -1 if none
	malicious bool  // a command no human made: it must not pass
}

// stream is a workload's generated input: the frames, payload windows and
// ops the benchmark feeds the gateway. The gateway sees nothing else.
type stream struct {
	frames  [][]byte
	boot    []item // bootstrap-window traffic, offsets from the epoch
	cycle   []item
	period  int64 // cycle length, virtual ns
	start   int64 // virtual ns of cycle 0
	windows []sensors.Window

	// driftEvery flips the drifted frame templates on and off every that
	// many cycles (0: no drift).
	driftEvery int64

	names  []string
	devIP  []netip.Addr
	byIP   map[netip.Addr]int32
	kinds  []devKind
	events []event

	framesPerCycle int
}

// devKind selects a device's traffic shapes and classifier.
type devKind uint8

const (
	kindSimple devKind = iota // packet-size rule classifier, GraceN 1
	kindPlug
	kindBulb
	kindSpeaker
	kindCam
)

func (k devKind) ml() bool { return k != kindSimple }

// Packet sizes the shapes draw from. The simple devices' manual command is
// the only traffic of notificationSize bytes.
const notificationSize = 235

var (
	gwMAC   = packet.MAC{2, 0, 0, 0, 0, 1}
	gwIP    = netip.MustParseAddr("10.1.0.1")
	phoneIP = netip.MustParseAddr("10.9.0.2")
	epoch   = time.Date(2022, time.June, 1, 0, 0, 0, 0, time.UTC).UnixNano()
)

// gen accumulates one stream.
type gen struct {
	rng     *rand.Rand
	st      *stream
	framers []*devices.Framer
	phone   *devices.Framer
	b       packet.Builder
	quantum int64
	busy    [][][2]int64 // per device: non-rule traffic intervals in the cycle
}

func newGen(seed int64, n int, period, boot time.Duration, quantum time.Duration) *gen {
	g := &gen{
		rng: rand.New(rand.NewSource(seed)),
		st: &stream{
			period: int64(period),
			start:  epoch + int64(boot),
			byIP:   make(map[netip.Addr]int32, n),
		},
		quantum: int64(quantum),
		busy:    make([][][2]int64, n),
	}
	for d := 0; d < n; d++ {
		ip := netip.AddrFrom4([4]byte{10, 1, byte(1 + d/250), byte(2 + d%250)})
		mac := packet.MAC{2, 0, 0, 1, byte(d >> 8), byte(d)}
		g.framers = append(g.framers, devices.NewFramer(ip, mac, gwMAC))
		g.st.names = append(g.st.names, fmt.Sprintf("dev%04d", d))
		g.st.devIP = append(g.st.devIP, ip)
		g.st.byIP[ip] = int32(d)
	}
	g.phone = devices.NewFramer(phoneIP, packet.MAC{2, 0, 0, 9, 0, 2}, gwMAC)
	return g
}

func (g *gen) q(t int64) int64 { return t / g.quantum * g.quantum }

func (g *gen) template(fr *devices.Framer, rec flows.Record) int32 {
	g.st.frames = append(g.st.frames, fr.Frame(rec))
	return int32(len(g.st.frames) - 1)
}

// periodic adds a flow arriving every period from phase on: its bootstrap
// arrivals and one cycle of arrivals. alt, when non-nil, is the flow's
// drifted form.
func (g *gen) periodic(d int, rec flows.Record, period, phase time.Duration, alt *flows.Record) {
	tpl := g.template(g.framers[d], rec)
	altTpl := int32(-1)
	if alt != nil {
		altTpl = g.template(g.framers[d], *alt)
	}
	p, ph := int64(period), g.q(int64(phase))
	for t := ph; t < g.st.start-epoch; t += p {
		g.st.boot = append(g.st.boot, item{off: t, kind: kFrame, frame: tpl, alt: -1, dev: int32(d), want: true, truth: true})
	}
	for t := ph; t < g.st.period; t += p {
		g.st.cycle = append(g.st.cycle, item{off: t, kind: kFrame, frame: tpl, alt: altTpl, dev: int32(d), want: true, truth: true})
	}
}

// burst adds an event's frames at its record times (offsets in the cycle)
// and returns the event. The device's non-rule traffic must stay free
// within eventGap of any other burst; free reports whether it is.
func (g *gen) burst(d int, recs []flows.Record, malicious bool) *event {
	ev := event{dev: d, attest: -1, malicious: malicious}
	for _, r := range recs {
		ev.items = append(ev.items, len(g.st.cycle))
		g.st.cycle = append(g.st.cycle, item{off: r.Time.UnixNano(), kind: kFrame,
			frame: g.template(g.framers[d], r), alt: -1, dev: int32(d)})
	}
	first, last := recs[0].Time.UnixNano(), recs[len(recs)-1].Time.UnixNano()
	g.busy[d] = append(g.busy[d], [2]int64{first, last})
	g.st.events = append(g.st.events, ev)
	return &g.st.events[len(g.st.events)-1]
}

// eventGap keeps distinct bursts of one device apart by more than the
// proxy's 5 s event-grouping gap, so generated and grouped events coincide.
const eventGap = int64(8 * time.Second)

// free reports whether [from, to] keeps eventGap from the device's other
// bursts, also across the cycle wrap.
func (g *gen) free(d int, from, to int64) bool {
	if from < eventGap || to > g.st.period-eventGap {
		return false
	}
	for _, b := range g.busy[d] {
		if from < b[1]+eventGap && to > b[0]-eventGap {
			return false
		}
	}
	return true
}

// unresolved adds traffic of no protected device: gateway ARP probes and
// the phone's own cloud traffic. The gateway fails it open.
func (g *gen) unresolved(arpEvery, phoneEvery time.Duration) {
	arp := g.b.ARPPacket(1, gwMAC, gwIP, packet.MAC{}, netip.AddrFrom4([4]byte{10, 1, 9, 9}))
	g.st.frames = append(g.st.frames, arp)
	arpTpl := int32(len(g.st.frames) - 1)
	for t := g.q(int64(time.Second) / 3); t < g.st.period; t += int64(arpEvery) {
		g.st.cycle = append(g.st.cycle, item{off: t, kind: kFrame, frame: arpTpl, alt: -1, dev: -1, want: true, truth: true})
	}
	if phoneEvery <= 0 {
		return
	}
	tpl := g.template(g.phone, flows.Record{Size: 180, Proto: "udp", Dir: flows.DirOutbound,
		RemoteIP: netip.MustParseAddr("142.250.1.1"), LocalPort: 50123, RemotePort: 443})
	for t := g.q(int64(time.Second) / 7); t < g.st.period; t += int64(phoneEvery) {
		g.st.cycle = append(g.st.cycle, item{off: t, kind: kFrame, frame: tpl, alt: -1, dev: -1, want: true, truth: true})
	}
}

// ops adds one housekeeping op every interval.
func (g *gen) ops(kind uint8, every time.Duration, cycles int32) {
	for t := g.q(int64(every) / 2); t < g.st.period; t += int64(every) {
		g.st.cycle = append(g.st.cycle, item{off: t, kind: kind, every: cycles, frame: -1, alt: -1, dev: -1, want: true, truth: true})
	}
}

// finish orders the cycle by virtual time (stable, so an attestation stays
// ahead of same-instant frames) and re-points event indices.
func (g *gen) finish() *stream {
	st := g.st
	order := make([]int, len(st.cycle))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return st.cycle[order[a]].off < st.cycle[order[b]].off })
	pos := make([]int, len(order))
	sorted := make([]item, len(order))
	for to, from := range order {
		sorted[to] = st.cycle[from]
		pos[from] = to
	}
	st.cycle = sorted
	for i := range st.events {
		ev := &st.events[i]
		for j := range ev.items {
			ev.items[j] = pos[ev.items[j]]
		}
		if ev.attest >= 0 {
			ev.attest = pos[ev.attest]
		}
	}
	sort.SliceStable(st.boot, func(a, b int) bool { return st.boot[a].off < st.boot[b].off })
	for _, it := range st.cycle {
		if it.kind == kFrame {
			st.framesPerCycle++
		}
	}
	return st
}

// Cloud endpoints of the generated fleet.
var (
	cloudHB   = netip.MustParseAddr("52.0.10.20")
	cloudTel  = netip.MustParseAddr("34.0.8.80")
	cloudCoAP = netip.MustParseAddr("34.1.0.9")
	cloudCmd  = netip.MustParseAddr("52.30.0.7")
	cloudRtn  = netip.MustParseAddr("52.31.0.8")
	cloudCam  = netip.MustParseAddr("35.40.0.3")
)

func at(t int64) time.Time { return time.Unix(0, t).UTC() }

// steadyFleet adds the learned traffic of a rule-classified fleet: a 30 s
// heartbeat and its ack, and a 60 s telemetry report, all small frames.
// drifted devices change their heartbeat size in drifted cycles (a
// firmware update).
func (g *gen) steadyFleet(n int, drifted func(d int) bool) {
	for d := 0; d < n; d++ {
		hb := flows.Record{Size: 66 + d%50, Proto: "tcp", Dir: flows.DirOutbound, RemoteIP: cloudHB,
			LocalPort: uint16(40000 + d%2000), RemotePort: 443, TCPFlags: 0x18}
		var alt *flows.Record
		if drifted(d) {
			a := hb
			a.Size += 58
			alt = &a
		}
		hbPhase := time.Duration(g.rng.Int63n(int64(30 * time.Second)))
		g.periodic(d, hb, 30*time.Second, hbPhase, alt)
		ack := hb
		ack.Dir, ack.Size, ack.TCPFlags = flows.DirInbound, 60, 0x10
		g.periodic(d, ack, 30*time.Second, hbPhase+40*time.Millisecond, nil)
		tel := flows.Record{Size: 120 + d%80, Proto: "udp", Dir: flows.DirOutbound, RemoteIP: cloudTel,
			LocalPort: uint16(50000 + d%2000), RemotePort: 8883}
		g.periodic(d, tel, time.Minute, time.Duration(g.rng.Int63n(int64(time.Minute))), nil)
	}
}

// chatter adds non-manual events: short CoAP bursts that match no rule,
// until they make up share of the cycle's frames.
func (g *gen) chatter(n int, share float64) {
	target := int(share * float64(len(g.st.cycle)) / (1 - share))
	for added, tries := 0, 0; added < target && tries < 100*target; tries++ {
		d := g.rng.Intn(n)
		k := 3 + g.rng.Intn(4)
		t := g.q(g.rng.Int63n(g.st.period))
		recs := make([]flows.Record, k)
		for i := range recs {
			recs[i] = flows.Record{Time: at(t), Size: 80 + g.rng.Intn(121), Proto: "udp", Dir: flows.DirOutbound,
				RemoteIP: cloudCoAP, LocalPort: 5683, RemotePort: 5683}
			t += g.q(int64(40*time.Millisecond) + g.rng.Int63n(int64(160*time.Millisecond)))
		}
		if !g.free(d, recs[0].Time.UnixNano(), recs[k-1].Time.UnixNano()) {
			continue
		}
		g.burst(d, recs, false)
		added += k
	}
}

// homeSteady: a large fleet of rule-classified devices whose traffic is
// almost all learned heartbeats and telemetry, plus 2% non-manual events.
func homeSteady(seed int64) *stream {
	const n = 1000
	g := newGen(seed, n, 10*time.Minute, 5*time.Minute, 10*time.Millisecond)
	g.st.kinds = make([]devKind, n)
	g.steadyFleet(n, func(int) bool { return false })
	g.unresolved(2*time.Second, 0)
	g.chatter(n, 0.02)
	return g.finish()
}

// lifecycle: home-steady traffic on a smaller fleet, a quarter of which
// flips its heartbeat firmware every three cycles, with housekeeping sweeps
// every 30 virtual seconds and a checkpoint every three cycles.
func lifecycle(seed int64) *stream {
	const n = 128
	g := newGen(seed, n, 10*time.Minute, 5*time.Minute, 10*time.Millisecond)
	g.st.kinds = make([]devKind, n)
	g.st.driftEvery = 3
	g.steadyFleet(n, func(d int) bool { return d%4 == 1 })
	g.unresolved(10*time.Second, 0)
	g.chatter(n, 0.02)
	g.ops(kSweep, 30*time.Second, 0)
	g.ops(kCheckpoint, 10*time.Minute, 3)
	return g.finish()
}

// Shapes of the interactive fleet's traffic, as flows.Records starting at
// virtual offset t. The same shapes train the classifiers.

func (g *gen) commandShape(kind devKind, t int64) []flows.Record {
	rng := g.rng
	if kind == kindSimple {
		recs := []flows.Record{{Time: at(t), Size: notificationSize, Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudCmd, LocalPort: 41000, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303}}
		for i, k := 0, 3+rng.Intn(3); i < k; i++ {
			t += g.q(int64(30*time.Millisecond) + rng.Int63n(int64(60*time.Millisecond)))
			recs = append(recs, flows.Record{Time: at(t), Size: 60 + rng.Intn(100), Proto: "tcp",
				Dir: flows.DirOutbound, RemoteIP: cloudCmd, LocalPort: 41000, RemotePort: 443, TCPFlags: 0x10})
		}
		return recs
	}
	var recs []flows.Record
	for i, k := 0, 6+rng.Intn(7); i < k; i++ {
		r := flows.Record{Time: at(t), Size: 250 + rng.Intn(401), Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudCmd, LocalPort: 41000, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303}
		if i%2 == 1 {
			r.Dir, r.Size = flows.DirOutbound, 90+rng.Intn(71)
		}
		recs = append(recs, r)
		t += g.q(int64(20*time.Millisecond) + rng.Int63n(int64(130*time.Millisecond)))
	}
	if kind == kindCam {
		// Live view: the camera streams MTU-size frames after the command.
		for i, k := 0, 20+rng.Intn(41); i < k; i++ {
			recs = append(recs, flows.Record{Time: at(t), Size: 1000 + rng.Intn(515), Proto: "tcp",
				Dir: flows.DirOutbound, RemoteIP: cloudCam, LocalPort: 42000, RemotePort: 443,
				TCPFlags: 0x18, TLSVersion: 0x0303})
			t += g.q(int64(30 * time.Millisecond))
		}
	}
	return recs
}

func (g *gen) controlShape(t int64) []flows.Record {
	var recs []flows.Record
	for i, k := 0, 5+g.rng.Intn(5); i < k; i++ {
		recs = append(recs, flows.Record{Time: at(t), Size: 90 + g.rng.Intn(111), Proto: "udp",
			Dir: flows.DirOutbound, RemoteIP: cloudTel, LocalPort: 50100, RemotePort: 8883})
		t += g.q(int64(40*time.Millisecond) + g.rng.Int63n(int64(160*time.Millisecond)))
	}
	return recs
}

func (g *gen) automatedShape(kind devKind, t int64) []flows.Record {
	var recs []flows.Record
	if kind == kindCam {
		// Motion upload: a stream of MTU-size frames.
		for i, k := 0, 30+g.rng.Intn(51); i < k; i++ {
			recs = append(recs, flows.Record{Time: at(t), Size: 1000 + g.rng.Intn(515), Proto: "tcp",
				Dir: flows.DirOutbound, RemoteIP: cloudCam, LocalPort: 42100, RemotePort: 443,
				TCPFlags: 0x18, TLSVersion: 0x0303})
			t += g.q(int64(20*time.Millisecond) + g.rng.Int63n(int64(20*time.Millisecond)))
		}
		return recs
	}
	// A cloud routine (schedule, IFTTT) pushing state to the device.
	for i, k := 0, 5+g.rng.Intn(4); i < k; i++ {
		recs = append(recs, flows.Record{Time: at(t), Size: 300 + g.rng.Intn(201), Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudRtn, LocalPort: 41100, RemotePort: 8443, TCPFlags: 0x18, TLSVersion: 0x0303})
		t += g.q(int64(30*time.Millisecond) + g.rng.Int63n(int64(100*time.Millisecond)))
	}
	return recs
}

// Command mix of the interactive workload.
const (
	humanShare   = 0.70 // attested by a human touch
	spywareShare = 0.15 // attested by spyware: a non-human sensor window
	// the rest carry no attestation at all (a stolen cloud account)
)

// interactive: 16 devices, most with ML classifiers, whose traffic is
// mostly unpredictable: attested and unattested command bursts, non-manual
// event bursts and camera streams up to MTU-size frames.
func interactive(seed int64) *stream {
	kinds := []devKind{kindCam, kindCam, kindCam, kindCam, kindPlug, kindPlug, kindPlug, kindPlug,
		kindBulb, kindBulb, kindBulb, kindBulb, kindSpeaker, kindSimple, kindSimple, kindSimple}
	n := len(kinds)
	g := newGen(seed, n, 10*time.Minute, 5*time.Minute, 10*time.Millisecond)
	g.st.kinds = kinds
	sg := sensors.NewGenerator(simclock.NewRNG(seed))
	for d := 0; d < n; d++ {
		hb := flows.Record{Size: 70 + 3*d, Proto: "tcp", Dir: flows.DirOutbound, RemoteIP: cloudHB,
			LocalPort: uint16(40000 + d), RemotePort: 443, TCPFlags: 0x18}
		g.periodic(d, hb, 30*time.Second, time.Duration(g.rng.Int63n(int64(30*time.Second))), nil)
	}
	const slot = int64(75 * time.Second)
	for d := 0; d < n; d++ {
		base := int64(d)*int64(4500*time.Millisecond) + g.rng.Int63n(int64(2*time.Second))
		for k := int64(0); k < 8; k++ {
			t := g.q(base + k*slot + int64(9*time.Second))
			r := g.rng.Float64()
			cmdAt := t + g.q(int64(300*time.Millisecond)+g.rng.Int63n(int64(500*time.Millisecond)))
			recs := g.commandShape(kinds[d], cmdAt)
			ev := g.burst(d, recs, r >= humanShare)
			if r < humanShare+spywareShare {
				w := sg.Human()
				if r >= humanShare {
					w = sg.NonHuman()
				}
				g.st.windows = append(g.st.windows, w)
				ev.attest = len(g.st.cycle)
				g.st.cycle = append(g.st.cycle, item{off: t, kind: kAttest, frame: int32(len(g.st.windows) - 1),
					alt: -1, dev: int32(d), want: true, truth: r < humanShare})
			}
			// Non-manual events well away from the command's attestation.
			for _, gap := range []int64{int64(28 * time.Second), int64(50 * time.Second)} {
				et := g.q(t + gap + g.rng.Int63n(int64(3*time.Second)))
				var recs []flows.Record
				if gap > int64(30*time.Second) {
					recs = g.automatedShape(kinds[d], et)
				} else {
					recs = g.controlShape(et)
				}
				if g.free(d, recs[0].Time.UnixNano(), recs[len(recs)-1].Time.UnixNano()) {
					g.burst(d, recs, false)
				}
			}
		}
	}
	g.unresolved(10*time.Second, 5*time.Second)
	return g.finish()
}

// trainingEvents draws labeled events of a device kind from the same shapes
// the workload uses, decoded the way the gateway sees them.
func trainingEvents(seed int64, kind devKind, perClass int) []*events.Event {
	g := newGen(seed, 1, 10*time.Minute, 5*time.Minute, 10*time.Millisecond)
	var out []*events.Event
	add := func(cat flows.Category, recs []flows.Record) {
		canon := make([]flows.Record, len(recs))
		for j, r := range recs {
			canon[j] = g.canon(0, r)
			canon[j].Category = cat
		}
		out = append(out, events.Group(canon, 0)[0])
	}
	for i := 0; i < perClass; i++ {
		add(flows.CategoryManual, g.commandShape(kind, 0))
		add(flows.CategoryControl, g.controlShape(0))
		add(flows.CategoryAutomated, g.automatedShape(kind, 0))
	}
	return out
}

// canon frames a record and decodes it back: exactly the record the
// gateway derives from the wire.
func (g *gen) canon(d int, r flows.Record) flows.Record {
	return recordOf(g.framers[d].Frame(r), r.Time.UnixNano(), g.st.devIP[d])
}

// models are the trained per-device classifiers and the humanness model the
// oracle consults; they are the same ones the proxy runs.
type models struct {
	validator *sensors.Validator
	classify  []core.EventClassifier
	graceN    []int
}

// fillOracle computes each frame's floor-oracle and ground-truth verdicts
// and each attestation's predicted humanness. It is the paper's decision
// rule run over the generator's own event boundaries: grace frames pass, a
// non-manual event passes, and a manual event passes only under a live
// human attestation.
func fillOracle(st *stream, m *models) {
	human := make(map[int]bool) // attestation cycle index -> predicted human
	for i := range st.cycle {
		it := &st.cycle[i]
		if it.kind == kAttest {
			it.want = m.validator.ValidateWindow(st.windows[it.frame])
			human[i] = it.want
		}
	}
	for _, ev := range st.events {
		n := m.graceN[ev.dev]
		head := make([]flows.Record, 0, n)
		for _, ci := range ev.items {
			if len(head) == n {
				break
			}
			it := st.cycle[ci]
			head = append(head, recordOf(st.frames[it.frame], st.start+it.off, st.devIP[ev.dev]))
		}
		manual := len(head) == n && m.classify[ev.dev].IsManual(events.Group(head, 0)[0])
		vouched := false
		if manual && ev.attest >= 0 && human[ev.attest] {
			decided := st.cycle[ev.items[n-1]].off
			vouched = decided-st.cycle[ev.attest].off < int64(core.ValidationTTL)
		}
		for j, ci := range ev.items {
			it := &st.cycle[ci]
			grace := j < n-1
			it.want = grace || !manual || vouched
			it.truth = grace || !ev.malicious
		}
	}
}

// recordOf decodes a frame of the device at ip, captured at vt.
func recordOf(data []byte, vt int64, ip netip.Addr) flows.Record {
	p := packet.Decode(data, packet.CaptureInfo{Timestamp: at(vt), CaptureLength: len(data), Length: len(data)})
	rec, _ := devices.RecordFromFrame(p, ip, nil) // generated frames always involve the device
	return rec
}

// Stream addressing.

func (st *stream) at(pos int64) (*item, int64) {
	n := int64(len(st.cycle))
	c := pos / n
	it := &st.cycle[pos%n]
	return it, st.start + c*st.period + it.off
}

// frameOf returns the template a frame item carries in cycle c.
func (st *stream) frameOf(it *item, pos int64) int32 {
	if it.alt >= 0 && st.driftEvery > 0 && (pos/int64(len(st.cycle))/st.driftEvery)%2 == 1 {
		return it.alt
	}
	return it.frame
}

// opRuns reports whether an op item fires at pos.
func (st *stream) opRuns(it *item, pos int64) bool {
	return it.every <= 1 || (pos/int64(len(st.cycle)))%int64(it.every) == 0
}
