// Package chaos is the scenario runner capping the fault-injection fabric:
// it replays a seeded smart-home day — bootstrap heartbeats, manual
// interactions, the phone's attestation courier — over internal/netsim with
// a FaultPlan on the phone⇄proxy path, and exposes everything a test needs
// to assert the system degrades gracefully instead of failing closed
// forever: the full decision stream (byte-comparable across runs and shard
// counts), the audit log, proxy and fault statistics, and lockout state.
//
// The invariants the suite under chaos_test.go holds the system to:
//
//  1. No panic or deadlock under -race with faults active.
//  2. A legitimate manual interaction whose attestation is delayed by burst
//     loss or a partition is eventually admitted after the network heals
//     (ReasonLateAttest), and never locks the device out.
//  3. A pending window that expires entirely inside an outage is excused
//     (ReasonOutageExcused) rather than counted as an attack.
//  4. With faults disabled, the sharded engine's decision stream is
//     byte-identical to the sequential engine's on the same scenario.
package chaos

import (
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"net/netip"
	"strings"
	"sync"
	"time"

	"fiat/internal/core"
	"fiat/internal/devices"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/netsim"
	"fiat/internal/obs"
	"fiat/internal/packet"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
	"fiat/internal/swap"
)

// Scenario is one seeded chaos run. Offsets in ManualAt / PartitionAt are
// measured from the end of the bootstrap window.
type Scenario struct {
	// Seed drives every random stream of the run (default 1).
	Seed int64
	// Shards selects the proxy engine width (default 1, the sequential
	// reference; more shards run batches on the batched path). Decisions
	// are shard-invariant, so every oracle in this package applies unchanged.
	Shards int
	// Bootstrap is the proxy learning window (default 2 minutes).
	Bootstrap time.Duration
	// Duration is the post-bootstrap phase length (default 90 s).
	Duration time.Duration
	// HeartbeatEvery paces the device's benign telemetry (default 10 s).
	HeartbeatEvery time.Duration
	// ManualAt lists the user's interactions as offsets after bootstrap.
	ManualAt []time.Duration
	// AttestLag is touch-to-send latency on the phone (default 400 ms,
	// the Table 7 LAN-side component budget).
	AttestLag time.Duration
	// PendingWindow configures the proxy's degraded-mode hold (0 = strict).
	PendingWindow time.Duration
	// Burst, CorruptProb configure the fault plan on the phone⇄proxy path
	// (nil/0 = no plan installed).
	Burst       *netsim.GilbertElliott
	CorruptProb float64
	// PartitionAt/PartitionFor schedule a phone⇄proxy link-down window
	// (PartitionFor 0 = none).
	PartitionAt  time.Duration
	PartitionFor time.Duration
	// Relearn enables the proxy's online-relearning lifecycle (drift
	// detection, shadow evaluation, hot swap) with these thresholds.
	Relearn swap.Options
	// ShiftAt > 0 injects drift: at bootEnd+ShiftAt the plug's firmware
	// "updates" and its telemetry changes shape — packet size grows by
	// ShiftSize and the beat re-paces to ShiftEvery (default 3 s) — so the
	// learned heartbeat rule stops matching and the drift detector fires.
	ShiftAt    time.Duration
	ShiftEvery time.Duration
	ShiftSize  int
}

func (s *Scenario) defaults() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.Bootstrap <= 0 {
		s.Bootstrap = 2 * time.Minute
	}
	if s.Duration <= 0 {
		s.Duration = 90 * time.Second
	}
	if s.HeartbeatEvery <= 0 {
		s.HeartbeatEvery = 10 * time.Second
	}
	if s.AttestLag <= 0 {
		s.AttestLag = 400 * time.Millisecond
	}
	if s.ShiftAt > 0 && s.ShiftEvery <= 0 {
		s.ShiftEvery = 3 * time.Second
	}
}

// Result is everything a run exposes for invariant checks.
type Result struct {
	// Decisions is the rendered per-packet decision stream in gateway
	// order; compare with DecisionTrace.
	Decisions []string
	// Log is the proxy audit log at run end.
	Log []core.LogEntry
	// Stats / Fault are the proxy and fault-fabric counters.
	Stats core.ProxyStats
	Fault netsim.FaultStats
	// Metrics is the shared observability snapshot at run end: one registry
	// wired through the proxy pipeline and the fault fabric, rendered in the
	// deterministic text exposition format. Fixed-seed replays produce this
	// string byte-identically (chaos_metrics_test.go).
	Metrics string
	// Locked reports the device's lockout state at run end.
	Locked bool
	// AttestationsSent / AttestationsDelivered count courier shipments and
	// acknowledged deliveries (retransmits excluded).
	AttestationsSent      int
	AttestationsDelivered int
	// DeviceFramesDelivered counts IP frames that reached the device.
	DeviceFramesDelivered int
	// PendingLeft is the held-decision queue depth at run end.
	PendingLeft int
	// Generation / SwapPhase / SwapMetrics describe the relearning lifecycle
	// at run end: the plug's live artifact generation (0 before its rules
	// freeze), where it sits in the lifecycle, and the swap registry rendered
	// in the deterministic exposition format. Zero-valued noise-free when
	// Scenario.Relearn is disabled.
	Generation  uint64
	SwapPhase   swap.Phase
	SwapMetrics string
}

// DecisionTrace renders the decision stream for byte-exact comparison.
func (r *Result) DecisionTrace() string { return strings.Join(r.Decisions, "\n") }

// LogTrace renders the audit log for byte-exact comparison.
func (r *Result) LogTrace() string {
	var sb strings.Builder
	for _, e := range r.Log {
		fmt.Fprintf(&sb, "%d|%s|%s|%s|%d\n", e.Time.UnixNano(), e.Device, e.Reason, e.Verdict, e.Packets)
	}
	return sb.String()
}

// Reasons seen in the audit log, for quick membership checks.
func (r *Result) HasReason(reason core.Reason) bool {
	for _, e := range r.Log {
		if e.Reason == reason {
			return true
		}
	}
	return false
}

// engine is the proxy surface a scenario drives. Run feeds the *core.Proxy
// straight through; the crash harness (crash.go) interposes a recording
// wrapper here so the exact input stream of a run can be replayed through
// the durability layer. Any wrapper must be transparent: same arguments in,
// same results out.
type engine interface {
	ProcessBatch(batch []core.PacketIn) []core.Decision
	HandleAttestation(payload []byte) (bool, error)
	SweepPending() int
	AttestationChannelDown()
	AttestationChannelUp()
	FlushEvent(device string) *core.Decision
}

// The humanness validator trains once per test binary (it fits a model);
// each run still gets its own seeded window generator so draws replay.
var (
	valOnce sync.Once
	valInst *sensors.Validator
	valErr  error
)

func sharedValidator() (*sensors.Validator, error) {
	valOnce.Do(func() {
		valInst, _, valErr = sensors.DefaultValidator(1)
	})
	return valInst, valErr
}

// Fixed topology of the scenario's smart home.
var (
	gwMAC    = packet.MAC{2, 0, 0, 0, 0, 0x01}
	devMAC   = packet.MAC{2, 0, 0, 0, 0, 0x50}
	cloudMAC = packet.MAC{2, 0, 0, 0, 1, 0x01}
	phoneMAC = packet.MAC{2, 0, 0, 0, 0, 0x77}
	attMAC   = packet.MAC{2, 0, 0, 0, 0, 0x03}
	gwIP     = netip.MustParseAddr("192.168.1.1")
	devIP    = netip.MustParseAddr("192.168.1.50")
	cloudIP  = netip.MustParseAddr("52.1.1.1")
	phoneIP  = netip.MustParseAddr("10.99.0.2")
	attIP    = netip.MustParseAddr("192.168.1.3")
)

// inspector is the gateway hook: it resolves frames to pipeline inputs,
// batches them through ProcessBatch (exercising the sharded engine), records
// the rendered decision stream, and returns the forwarding verdicts.
type inspector struct {
	eng   engine
	clock simclock.Clock
	epoch time.Time
	res   *Result
}

func (in *inspector) InspectBatch(frames [][]byte, now time.Time) []bool {
	allow := make([]bool, len(frames))
	pkts := make([]core.PacketIn, 0, len(frames))
	backrefs := make([]int, 0, len(frames))
	for i, f := range frames {
		p := packet.Decode(f, packet.CaptureInfo{Timestamp: now, Length: len(f), CaptureLength: len(f)})
		rec, ok := devices.RecordFromFrame(p, devIP, nil)
		if !ok {
			allow[i] = true
			continue
		}
		pkts = append(pkts, core.PacketIn{Device: "plug", Rec: rec})
		backrefs = append(backrefs, i)
	}
	// Decisions are stamped with the instant the proxy applied them (the
	// flush), not the instant the frames were queued — the same timeline the
	// durable WAL records, so recorded and replayed traces compare
	// byte-for-byte.
	at := in.clock.Now()
	for j, d := range in.eng.ProcessBatch(pkts) {
		allow[backrefs[j]] = d.Verdict == core.Allow
		in.res.Decisions = append(in.res.Decisions,
			fmt.Sprintf("+%07dms plug %s %s", at.Sub(in.epoch)/time.Millisecond, d.Verdict, d.Reason))
	}
	return allow
}

// courier retries attestation delivery over the faulty phone⇄proxy path:
// exponential backoff (500 ms doubling to a 4 s cap, at most 16 attempts per
// attestation), and after two consecutive ack timeouts it reports the
// channel down to the proxy — standing in for the keepalive prober a
// deployment would run — so pending-window expiries during the outage are
// excused. Any successfully decoded attestation marks the channel back up.
type courier struct {
	nw    *netsim.Network
	clock *simclock.VirtualClock
	eng   engine
	res   *Result
	end   time.Time

	b        packet.Builder
	nextID   uint32
	inflight map[uint32]*shipment
	strikes  int // consecutive ack timeouts across all shipments
}

type shipment struct {
	id       uint32
	payload  []byte
	attempts int
	timeout  time.Duration
	acked    bool
}

const (
	courierBaseTimeout = 500 * time.Millisecond
	courierMaxTimeout  = 4 * time.Second
	courierMaxAttempts = 16
	courierStrikeLimit = 2
)

func (c *courier) ship(payload []byte) {
	c.nextID++
	s := &shipment{id: c.nextID, payload: payload, timeout: courierBaseTimeout}
	c.inflight[s.id] = s
	c.res.AttestationsSent++
	c.send(s)
}

func (c *courier) send(s *shipment) {
	if s.acked || s.attempts >= courierMaxAttempts || c.clock.Now().After(c.end) {
		return
	}
	s.attempts++
	body := make([]byte, 4+len(s.payload))
	binary.BigEndian.PutUint32(body[:4], s.id)
	copy(body[4:], s.payload)
	c.nw.SendFrame(c.b.UDPPacket(packet.UDPSpec{
		SrcMAC: phoneMAC, DstMAC: attMAC, SrcIP: phoneIP, DstIP: attIP,
		SrcPort: 7843, DstPort: 7844, Payload: body,
	}))
	c.clock.AfterFunc(s.timeout, func(time.Time) { c.onTimeout(s) })
}

func (c *courier) onTimeout(s *shipment) {
	if s.acked {
		return
	}
	c.strikes++
	if c.strikes >= courierStrikeLimit {
		c.eng.AttestationChannelDown()
	}
	s.timeout *= 2
	if s.timeout > courierMaxTimeout {
		s.timeout = courierMaxTimeout
	}
	c.send(s)
}

func (c *courier) onAck(id uint32) {
	s := c.inflight[id]
	if s == nil || s.acked {
		return
	}
	s.acked = true
	c.strikes = 0
	c.res.AttestationsDelivered++
}

// Run executes the scenario to completion on a virtual clock and returns
// the collected result. Everything is deterministic in s.Seed.
func Run(s Scenario) (*Result, error) { return run(s, nil) }

// run is Run with an optional engine wrapper interposed between the
// scenario fabric and the proxy.
func run(s Scenario, wrap func(engine, *simclock.VirtualClock) engine) (*Result, error) {
	s.defaults()
	res := &Result{}
	clock := simclock.NewVirtual()
	reg := obs.NewRegistry()
	nw := netsim.New(clock, simclock.NewRNG(s.Seed))
	nw.SetObs(reg)
	epoch := clock.Now()
	bootEnd := epoch.Add(s.Bootstrap)
	runEnd := bootEnd.Add(s.Duration)

	// Pairing: proxy offers, phone accepts.
	proxyKS, err := keystore.New(mrand.New(mrand.NewSource(s.Seed + 100)))
	if err != nil {
		return nil, err
	}
	phoneKS, err := keystore.New(mrand.New(mrand.NewSource(s.Seed + 101)))
	if err != nil {
		return nil, err
	}
	offer, err := keystore.NewPairingOffer(proxyKS, mrand.New(mrand.NewSource(s.Seed+102)))
	if err != nil {
		return nil, err
	}
	if _, err := keystore.AcceptPairing(phoneKS, offer); err != nil {
		return nil, err
	}
	validator, err := sharedValidator()
	if err != nil {
		return nil, err
	}

	proxy := core.NewProxy(clock, proxyKS, validator, core.Config{
		Bootstrap:     s.Bootstrap,
		Shards:        s.Shards,
		PendingWindow: s.PendingWindow,
		Relearn:       s.Relearn,
		Obs:           reg,
	})
	if err := proxy.AddDevice(core.DeviceConfig{
		Name: "plug", Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 1,
	}); err != nil {
		return nil, err
	}
	app := core.NewClientApp(clock, phoneKS)
	app.BindApp("com.plug.app", "plug")

	var eng engine = proxy
	if wrap != nil {
		eng = wrap(proxy, clock)
	}

	// Pre-screen one verified-human sensor window per interaction so runs
	// assert degradation behavior, not validator recall.
	gen := sensors.NewGenerator(simclock.NewRNG(s.Seed))
	windows := make([]sensors.Window, len(s.ManualAt))
	for i := range windows {
		windows[i] = gen.Human()
		for try := 0; try < 20 && !validator.ValidateWindow(windows[i]); try++ {
			windows[i] = gen.Human()
		}
	}

	// Topology: device and attestation endpoint on the LAN, phone on
	// mobile, vendor cloud behind the gateway.
	gw := netsim.NewGateway(nw, "router", gwMAC, gwIP)
	gw.ARP.Learn(devIP, devMAC)
	gw.SetInspector(&inspector{eng: eng, clock: clock, epoch: epoch, res: res}, 64)

	nw.Attach(&netsim.Node{Name: "plug", MAC: devMAC, IP: devIP, Loc: netsim.LocLAN,
		Recv: func(_ *netsim.Node, f []byte, _ time.Time) {
			if packet.Decode(f, packet.CaptureInfo{}).IPv4() != nil {
				res.DeviceFramesDelivered++
			}
		}})
	nw.Attach(&netsim.Node{Name: "cloud", MAC: cloudMAC, IP: cloudIP, Loc: netsim.LocCloudUS})

	cr := &courier{nw: nw, clock: clock, eng: eng, res: res, end: runEnd,
		inflight: make(map[uint32]*shipment)}
	var ackB packet.Builder
	nw.Attach(&netsim.Node{Name: "fiat-attest", MAC: attMAC, IP: attIP, Loc: netsim.LocLAN,
		Recv: func(_ *netsim.Node, f []byte, now time.Time) {
			p := packet.Decode(f, packet.CaptureInfo{Timestamp: now, Length: len(f), CaptureLength: len(f)})
			udp := p.UDP()
			if udp == nil || len(udp.LayerPayload()) < 4 {
				return
			}
			body := udp.LayerPayload()
			if _, err := eng.HandleAttestation(body[4:]); err != nil {
				// Corrupted or forged: no ack, the courier keeps trying
				// with the original bytes.
				return
			}
			nw.SendFrame(ackB.UDPPacket(packet.UDPSpec{
				SrcMAC: attMAC, DstMAC: phoneMAC, SrcIP: attIP, DstIP: phoneIP,
				SrcPort: 7844, DstPort: 7843, Payload: body[:4],
			}))
		}})
	nw.Attach(&netsim.Node{Name: "phone", MAC: phoneMAC, IP: phoneIP, Loc: netsim.LocMobile,
		Recv: func(_ *netsim.Node, f []byte, _ time.Time) {
			p := packet.Decode(f, packet.CaptureInfo{})
			udp := p.UDP()
			if udp == nil || len(udp.LayerPayload()) != 4 {
				return
			}
			cr.onAck(binary.BigEndian.Uint32(udp.LayerPayload()))
		}})

	// Faults on the phone⇄proxy path only: the scenario's point is that
	// attestation-channel weather must not condemn LAN traffic.
	if s.Burst != nil || s.CorruptProb > 0 {
		nw.SetFaultPlan(netsim.LocMobile, netsim.LocLAN, &netsim.FaultPlan{
			Burst: s.Burst, CorruptProb: s.CorruptProb,
		})
	}
	if s.PartitionFor > 0 {
		from := bootEnd.Add(s.PartitionAt)
		nw.Partition(netsim.LocMobile, netsim.LocLAN, from, from.Add(s.PartitionFor))
	}

	// Benign telemetry: the plug heartbeats to its cloud for the whole run.
	// After the optional drift shift the beat changes size and pace — the
	// same flow bucket, no longer arriving at any learned interval.
	framer := devices.NewFramer(devIP, devMAC, gwMAC)
	shiftAt := bootEnd.Add(s.ShiftAt)
	var heartbeat func(now time.Time)
	heartbeat = func(now time.Time) {
		if now.After(runEnd) {
			return
		}
		size, every := 128, s.HeartbeatEvery
		if s.ShiftAt > 0 && !now.Before(shiftAt) {
			size, every = 128+s.ShiftSize, s.ShiftEvery
		}
		nw.SendFrame(framer.Frame(flows.Record{
			Time: now, Size: size, Proto: "tcp", Dir: flows.DirOutbound,
			RemoteIP: cloudIP, LocalPort: 40000, RemotePort: 443,
			Category: flows.CategoryControl,
		}))
		clock.AfterFunc(every, heartbeat)
	}
	clock.AfterFunc(s.HeartbeatEvery, heartbeat)

	// Manual interactions: the touch at bootEnd+off, the attestation
	// AttestLag later, the command burst from the cloud ~1 s after the
	// touch (the Table 7 ordering).
	command := func(now time.Time, size int) []byte {
		f := framer.Frame(flows.Record{
			Time: now, Size: size, Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloudIP, LocalPort: 40000, RemotePort: 443,
			TCPFlags: 0x18, TLSVersion: 0x0303, Category: flows.CategoryManual,
		})
		copy(f[0:6], gwMAC[:])
		copy(f[6:12], cloudMAC[:])
		return f
	}
	for i, off := range s.ManualAt {
		w := windows[i]
		touch := s.Bootstrap + off
		clock.AfterFunc(touch+s.AttestLag, func(time.Time) {
			payload, err := app.Attest("com.plug.app", w)
			if err != nil {
				return
			}
			cr.ship(payload)
		})
		for j, lag := range []time.Duration{time.Second, 1100 * time.Millisecond, 1200 * time.Millisecond} {
			size := 235
			if j > 0 {
				size = 134
			}
			sz := size
			clock.AfterFunc(touch+lag, func(now time.Time) { nw.SendFrame(command(now, sz)) })
		}
	}

	// Housekeeping tick: flush the gateway batch and settle expired pending
	// windows once per virtual second, as cmd/fiat-proxy would.
	var tick func(now time.Time)
	tick = func(now time.Time) {
		gw.Flush()
		eng.SweepPending()
		if now.Before(runEnd) {
			clock.AfterFunc(time.Second, tick)
		}
	}
	clock.AfterFunc(time.Second, tick)

	clock.Run(runEnd)
	clock.AdvanceTo(runEnd)
	gw.Flush()

	// A wrapper that swapped the governed proxy out from under the run —
	// the durable restart harness kills and reopens it mid-scenario — tells
	// us where the surviving state lives; results must be read from there.
	resProxy := proxy
	if rp, ok := eng.(interface{ resultProxy() *core.Proxy }); ok {
		if p := rp.resultProxy(); p != nil {
			resProxy = p
		}
	}
	res.Log = resProxy.Log()
	res.Stats = resProxy.StatsSnapshot()
	res.Fault = nw.FaultStats()
	res.Locked = resProxy.Locked("plug")
	res.PendingLeft = resProxy.PendingDepth()
	res.Metrics = reg.Snapshot()
	if meta, ok := resProxy.ArtifactMeta("plug"); ok {
		res.Generation = meta.Generation
	}
	res.SwapPhase = resProxy.SwapPhase("plug")
	res.SwapMetrics = resProxy.SwapMetrics().Snapshot()
	return res, nil
}
