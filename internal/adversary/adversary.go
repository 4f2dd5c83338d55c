// Package adversary is the attack-side mirror of internal/chaos: a seeded
// catalog of adversarial scenarios replayed end-to-end against the full
// proxy — gateway inspection, rule matching, event grouping, manual
// classification, the humanness gate, anti-replay, and lockout — on a
// virtual clock. Where chaos asks "does FIAT degrade gracefully under
// network weather?", adversary asks "what does FIAT actually stop?".
//
// Each attack in the catalog targets one FIAT mechanism (learned periodic
// rules, the attestation channel, the humanness validator, the multi-phone
// pairing set, device churn) and is scored into a detection/false-admission
// matrix: attacker packets admitted as authentic vs blocked, forged
// attestations accepted vs rejected, lockouts triggered, time to first
// detection, and benign collateral. The matrix is deterministic in the
// scenario seed — byte-identical across replays and engines — so a
// committed baseline (baseline.json) turns the whole corpus into a CI
// regression gate: any change that admits more attacker traffic, accepts
// more forged attestations, or slows detection fails the build.
//
// The scores pin honest outcomes, not aspirations: rows like
// traffic-mimicry and robot-arm record reproduced bypasses (mimicked
// periodic rules are admitted; robotic taps fool the tap-energy validator,
// the "Perils of Zero-Interaction Security" result), so a regression is
// "the bypass got wider", and an improvement shows up as a baseline diff.
package adversary

import (
	"bytes"
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
)

// Spec declares an attack's identity and the world features it needs.
type Spec struct {
	// Name keys the attack in the matrix and baseline.
	Name string
	// Mechanism names the FIAT mechanism the attack targets.
	Mechanism string
	// Cell names the matrix cell expected to reflect the outcome — a
	// detection cell ("lockouts", "attest-rejected") for stopped attacks, an
	// admission cell ("attacker-admitted") for pinned bypasses.
	Cell string
	// Description is one sentence for DESIGN.md and -attacks output.
	Description string

	// GuestPhone enrolls a second phone via an alias pairing (multi-user
	// home); the attack reaches it through World.GuestApp.
	GuestPhone bool
	// SecondDevice registers a second device ("cam") that churns away
	// mid-run, for takeover scenarios.
	SecondDevice bool
	// DormantFlow makes the victim device emit an extra periodic flow during
	// bootstrap only, leaving a learned rule with no living owner for the
	// attacker to continue.
	DormantFlow bool
	// NoBenignManual suppresses the victim's benign manual interactions
	// (for rows where accidental piggybacking would blur attribution).
	NoBenignManual bool
}

// Attack is one catalog entry: a declaration plus an Arm hook that schedules
// the attacker's traffic on the world before the clock runs.
type Attack interface {
	Spec() Spec
	Arm(w *World)
}

// Scenario configures one adversarial run.
type Scenario struct {
	Attack Attack
	// Seed drives every random stream (default 1).
	Seed int64
	// Shards is the proxy's Config.Shards (default 1, the Process loop).
	Shards int
	// Bootstrap is the learning window (default 2 minutes).
	Bootstrap time.Duration
	// Duration is the post-bootstrap phase (default 2 minutes).
	Duration time.Duration
	// AttestWindow is the anti-replay window (default 30 s).
	AttestWindow time.Duration
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
		s.Duration = 2 * time.Minute
	}
	if s.AttestWindow <= 0 {
		s.AttestWindow = 30 * time.Second
	}
}

// Result is everything one run exposes for scoring and invariant checks.
type Result struct {
	Score Score
	// Decisions is the rendered decision stream in gateway order; attacker
	// frames carry an " atk" marker. Byte-comparable across replays and
	// engines.
	Decisions []string
	Log       []core.LogEntry
	Stats     core.ProxyStats
	// Metrics is the shared obs registry snapshot at run end.
	Metrics string
	// Locked is the per-device lockout state at run end.
	Locked map[string]bool
}

// DecisionTrace renders the decision stream for byte-exact comparison.
func (r *Result) DecisionTrace() string { return strings.Join(r.Decisions, "\n") }

// The humanness validator trains once per process (it fits a model); every
// run forks its own seeded window generators so draws replay.
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

// GuestAlias is the proxy-side pairing alias of the second enrolled phone.
const GuestAlias = "fiat-pairing-guest"

// Fixed topology: the chaos smart home plus a camera, a guest phone, and the
// attacker's own NIC. The attacker spoofs IPs freely but its frames keep its
// real source MAC until the gateway rewrites them at forward time — which is
// after inspection, so the scorer attributes packets by origin while the
// proxy only ever sees what a real deployment would.
var (
	gwMAC    = packet.MAC{2, 0, 0, 0, 0, 0x01}
	devMAC   = packet.MAC{2, 0, 0, 0, 0, 0x50}
	camMAC   = packet.MAC{2, 0, 0, 0, 0, 0x51}
	cloudMAC = packet.MAC{2, 0, 0, 0, 1, 0x01}
	phoneMAC = packet.MAC{2, 0, 0, 0, 0, 0x77}
	guestMAC = packet.MAC{2, 0, 0, 0, 0, 0x78}
	attMAC   = packet.MAC{2, 0, 0, 0, 0, 0x03}
	atkMAC   = packet.MAC{2, 0, 0, 0, 0, 0xEE}

	gwIP    = netip.MustParseAddr("192.168.1.1")
	devIP   = netip.MustParseAddr("192.168.1.50")
	camIP   = netip.MustParseAddr("192.168.1.51")
	attIP   = netip.MustParseAddr("192.168.1.3")
	atkIP   = netip.MustParseAddr("192.168.1.66")
	cloudIP = netip.MustParseAddr("52.1.1.1")
	phoneIP = netip.MustParseAddr("10.99.0.2")
	guestIP = netip.MustParseAddr("10.99.0.3")
)

// World is the armed scenario an Attack schedules against. All fields are
// wired before Arm runs; the clock has not started.
type World struct {
	Clock *simclock.VirtualClock
	Net   *netsim.Network
	Proxy *core.Proxy
	// App is the victim's phone (the real pairing key — reachable by
	// on-phone malware attacks). GuestApp is non-nil iff Spec.GuestPhone.
	App      *core.ClientApp
	GuestApp *core.ClientApp
	// AtkGen generates the attacker's sensor windows (its own RNG fork, so
	// attack draws never perturb the victim's streams).
	AtkGen *sensors.Generator
	// BenignAttests collects the victim phone's shipped attestation payloads
	// in ship order — the attacker's capture vantage (nw.Tap in spirit).
	BenignAttests [][]byte
	// BootEnd / RunEnd frame the enforcement phase.
	BootEnd, RunEnd time.Time

	scn       Scenario
	spec      Spec
	res       *Result
	epoch     time.Time
	validator *sensors.Validator
	benignGen *sensors.Generator

	attackerTags map[[32]byte]bool
	atkFramers   map[netip.Addr]*devices.Framer
	atkBuilder   packet.Builder
	guestBuilder packet.Builder
	benignFramer *devices.Framer

	attackStarted bool
	attackStart   time.Time
	detected      bool
	detectAt      time.Time

	deviceList []deviceEntry
}

type deviceEntry struct {
	name string
	ip   netip.Addr
}

// AfterBoot schedules fn at off past the end of the bootstrap window.
func (w *World) AfterBoot(off time.Duration, fn func(now time.Time)) {
	w.Clock.AfterFunc(w.scn.Bootstrap+off, fn)
}

// HumanWindow draws a validator-screened human sensor window from the
// benign stream (the same pre-screening the chaos runner applies, so rows
// measure the gate, not validator recall).
func (w *World) HumanWindow() sensors.Window {
	win := w.benignGen.Human()
	for try := 0; try < 20 && !w.validator.ValidateWindow(win); try++ {
		win = w.benignGen.Human()
	}
	return win
}

// markAttack stamps the attack's first action for time-to-detection.
func (w *World) markAttack(now time.Time) {
	if !w.attackStarted {
		w.attackStarted = true
		w.attackStart = now
	}
}

func (w *World) noteDetection(now time.Time) {
	if !w.detected {
		w.detected = true
		w.detectAt = now
	}
}

// SpoofDeviceFrame sends one attacker frame that impersonates the device at
// spoofIP talking outbound (source IP spoofed, source MAC the attacker's).
func (w *World) SpoofDeviceFrame(spoofIP netip.Addr, rec flows.Record) {
	w.markAttack(w.Clock.Now())
	w.Net.SendFrame(w.spoofFramer(spoofIP).Frame(rec))
}

// spoofFramer returns (building lazily) the attacker's framer for one
// impersonated device IP, cached so per-flow TCP sequence state persists
// across injections like a real takeover would.
func (w *World) spoofFramer(ip netip.Addr) *devices.Framer {
	fr, ok := w.atkFramers[ip]
	if !ok {
		fr = devices.NewFramer(ip, atkMAC, gwMAC)
		w.atkFramers[ip] = fr
	}
	return fr
}

// InjectCommand sends one attacker frame that impersonates the vendor cloud
// commanding the device at dstIP: addressed to the gateway at L2 (source MAC
// the attacker's), cloud→device at L3 — the §4 command signature when size
// matches the device's notification length.
func (w *World) InjectCommand(dstIP netip.Addr, size int) {
	now := w.Clock.Now()
	w.markAttack(now)
	f := w.spoofFramer(dstIP).Frame(flows.Record{
		Time: now, Size: size, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: cloudIP, LocalPort: 40000, RemotePort: 443,
		TCPFlags: 0x18, TLSVersion: 0x0303, Category: flows.CategoryManual,
	})
	copy(f[0:6], gwMAC[:])
	copy(f[6:12], atkMAC[:])
	w.Net.SendFrame(f)
}

// CommandBurst schedules a three-packet command burst (head at the device's
// notification size, two follow-ups) starting at off past bootstrap.
func (w *World) CommandBurst(off time.Duration, dstIP netip.Addr, headSize, tailSize int) {
	for i, lag := range []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond} {
		size := headSize
		if i > 0 {
			size = tailSize
		}
		sz := size
		w.AfterBoot(off+lag, func(time.Time) { w.InjectCommand(dstIP, sz) })
	}
}

// ShipAttackerAttest delivers an attestation payload to the proxy's
// attestation endpoint as the attacker: the payload's tag is registered for
// attribution, and the frame originates from the attacker's NIC (or the
// victim's phone when fromPhone — on-phone malware ships over the victim's
// own radio).
func (w *World) ShipAttackerAttest(payload []byte, fromPhone bool) {
	if len(payload) >= 32 {
		var tag [32]byte
		copy(tag[:], payload[len(payload)-32:])
		w.attackerTags[tag] = true
	}
	w.markAttack(w.Clock.Now())
	srcMAC, srcIP := atkMAC, atkIP
	if fromPhone {
		srcMAC, srcIP = phoneMAC, phoneIP
	}
	w.Net.SendFrame(w.atkBuilder.UDPPacket(packet.UDPSpec{
		SrcMAC: srcMAC, DstMAC: attMAC, SrcIP: srcIP, DstIP: attIP,
		SrcPort: 7843, DstPort: 7844, Payload: payload,
	}))
}

// ShipGuestAttest delivers the guest phone's attestation with benign
// attribution — the guest is a real housemate, not the attacker.
func (w *World) ShipGuestAttest(payload []byte) {
	w.Net.SendFrame(w.guestBuilder.UDPPacket(packet.UDPSpec{
		SrcMAC: guestMAC, DstMAC: attMAC, SrcIP: guestIP, DstIP: attIP,
		SrcPort: 7843, DstPort: 7844, Payload: payload,
	}))
}

// SendBenignCommand injects one cloud→plug command frame with benign
// attribution (the real cloud's source MAC).
func (w *World) SendBenignCommand(size int) {
	now := w.Clock.Now()
	f := w.benignFramer.Frame(flows.Record{
		Time: now, Size: size, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: cloudIP, LocalPort: 40000, RemotePort: 443,
		TCPFlags: 0x18, TLSVersion: 0x0303, Category: flows.CategoryManual,
	})
	copy(f[0:6], gwMAC[:])
	copy(f[6:12], cloudMAC[:])
	w.Net.SendFrame(f)
}

// inspector is the gateway hook: resolve each frame to a registered device,
// batch through ProcessBatch, attribute the verdict to attacker or benign
// origin by the frame's pre-rewrite source MAC, and record the stream.
type inspector struct {
	w *World
}

func (in *inspector) InspectBatch(frames [][]byte, now time.Time) []bool {
	w := in.w
	allow := make([]bool, len(frames))
	pkts := make([]core.PacketIn, 0, len(frames))
	backrefs := make([]int, 0, len(frames))
	fromAtk := make([]bool, 0, len(frames))
	for i, f := range frames {
		p := packet.Decode(f, packet.CaptureInfo{Timestamp: now, Length: len(f), CaptureLength: len(f)})
		var (
			rec   flows.Record
			name  string
			found bool
		)
		for _, de := range w.deviceList {
			if r, ok := devices.RecordFromFrame(p, de.ip, nil); ok {
				rec, name, found = r, de.name, true
				break
			}
		}
		if !found {
			allow[i] = true
			continue
		}
		pkts = append(pkts, core.PacketIn{Device: name, Rec: rec})
		backrefs = append(backrefs, i)
		fromAtk = append(fromAtk, len(f) >= 12 && bytes.Equal(f[6:12], atkMAC[:]))
	}
	for j, d := range w.Proxy.ProcessBatch(pkts) {
		admitted := d.Verdict == core.Allow
		allow[backrefs[j]] = admitted
		mark := ""
		if fromAtk[j] {
			mark = " atk"
			w.res.Score.AttackerPackets++
			if admitted {
				w.res.Score.AttackerAdmitted++
			} else {
				w.res.Score.AttackerBlocked++
				w.noteDetection(now)
			}
		} else {
			w.res.Score.BenignPackets++
			if !admitted {
				w.res.Score.BenignBlocked++
			}
		}
		w.res.Decisions = append(w.res.Decisions, fmt.Sprintf("+%07dms %s %s %s%s",
			now.Sub(w.epoch)/time.Millisecond, pkts[j].Device, d.Verdict, d.Reason, mark))
	}
	return allow
}

// Run executes one adversarial scenario to completion on a virtual clock.
// Everything is deterministic in s.Seed: replays and either engine
// produce byte-identical decision traces, scores, and metric snapshots.
func Run(s Scenario) (*Result, error) {
	s.defaults()
	spec := s.Attack.Spec()
	res := &Result{
		Score:  Score{Attack: spec.Name, Mechanism: spec.Mechanism, Cell: spec.Cell, TimeToDetectMs: -1},
		Locked: make(map[string]bool),
	}
	clock := simclock.NewVirtual()
	reg := obs.NewRegistry()
	nw := netsim.New(clock, simclock.NewRNG(s.Seed))
	nw.SetObs(reg)
	epoch := clock.Now()
	bootEnd := epoch.Add(s.Bootstrap)
	runEnd := bootEnd.Add(s.Duration)

	// Pairing: the victim phone always; a guest phone under its own alias
	// when the attack needs a multi-user home.
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
		Bootstrap:    s.Bootstrap,
		Shards:       s.Shards,
		AttestWindow: s.AttestWindow,
		Obs:          reg,
	})
	if err := proxy.AddDevice(core.DeviceConfig{
		Name: "plug", Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 2,
	}); err != nil {
		return nil, err
	}
	app := core.NewClientApp(clock, phoneKS)
	app.BindApp("com.plug.app", "plug")

	w := &World{
		Clock: clock, Net: nw, Proxy: proxy, App: app,
		BootEnd: bootEnd, RunEnd: runEnd,
		scn: s, spec: spec, res: res, epoch: epoch,
		validator:    validator,
		benignGen:    sensors.NewGenerator(simclock.NewRNG(s.Seed)),
		AtkGen:       sensors.NewGenerator(simclock.NewRNG(s.Seed).Fork("attack-imu")),
		attackerTags: make(map[[32]byte]bool),
		atkFramers:   make(map[netip.Addr]*devices.Framer),
		deviceList:   []deviceEntry{{"plug", devIP}},
	}

	if spec.GuestPhone {
		guestKS, err := keystore.New(mrand.New(mrand.NewSource(s.Seed + 103)))
		if err != nil {
			return nil, err
		}
		guestOffer, err := keystore.NewPairingOfferAlias(proxyKS, mrand.New(mrand.NewSource(s.Seed+104)), GuestAlias)
		if err != nil {
			return nil, err
		}
		if _, err := keystore.AcceptPairing(guestKS, guestOffer); err != nil {
			return nil, err
		}
		proxy.RegisterPairingAlias(GuestAlias)
		w.GuestApp = core.NewClientApp(clock, guestKS)
		w.GuestApp.BindApp("com.plug.app", "plug")
	}
	if spec.SecondDevice {
		if err := proxy.AddDevice(core.DeviceConfig{
			Name: "cam", Classifier: core.RuleClassifier{NotificationSize: 300}, GraceN: 2,
		}); err != nil {
			return nil, err
		}
		w.deviceList = append(w.deviceList, deviceEntry{"cam", camIP})
	}

	// Topology.
	gw := netsim.NewGateway(nw, "router", gwMAC, gwIP)
	gw.ARP.Learn(devIP, devMAC)
	if spec.SecondDevice {
		gw.ARP.Learn(camIP, camMAC)
	}
	gw.SetInspector(&inspector{w: w}, 64)

	nw.Attach(&netsim.Node{Name: "plug", MAC: devMAC, IP: devIP, Loc: netsim.LocLAN})
	if spec.SecondDevice {
		nw.Attach(&netsim.Node{Name: "cam", MAC: camMAC, IP: camIP, Loc: netsim.LocLAN})
	}
	nw.Attach(&netsim.Node{Name: "cloud", MAC: cloudMAC, IP: cloudIP, Loc: netsim.LocCloudUS})
	nw.Attach(&netsim.Node{Name: "attacker", MAC: atkMAC, IP: atkIP, Loc: netsim.LocLAN})
	nw.Attach(&netsim.Node{Name: "phone", MAC: phoneMAC, IP: phoneIP, Loc: netsim.LocMobile})
	if spec.GuestPhone {
		nw.Attach(&netsim.Node{Name: "guest", MAC: guestMAC, IP: guestIP, Loc: netsim.LocMobile})
	}

	// Attestation endpoint: one-shot UDP delivery (no courier — the
	// adversarial runs keep the channel healthy so rows measure the
	// authenticator, not transport weather). Attribution is by payload tag:
	// the attacker registers every payload it ships, so a replay of captured
	// victim bytes scores as forged even though the MAC verifies.
	nw.Attach(&netsim.Node{Name: "fiat-attest", MAC: attMAC, IP: attIP, Loc: netsim.LocLAN,
		Recv: func(_ *netsim.Node, f []byte, now time.Time) {
			p := packet.Decode(f, packet.CaptureInfo{Timestamp: now, Length: len(f), CaptureLength: len(f)})
			udp := p.UDP()
			if udp == nil || len(udp.LayerPayload()) < 32 {
				return
			}
			payload := udp.LayerPayload()
			var tag [32]byte
			copy(tag[:], payload[len(payload)-32:])
			forged := w.attackerTags[tag]
			human, err := proxy.HandleAttestation(payload)
			if !forged {
				return
			}
			w.res.Score.AttestForged++
			if err != nil || !human {
				// The guard rejected the bytes, or the humanness model
				// rejected the interaction — either way the forgery failed.
				w.res.Score.AttestRejected++
				w.noteDetection(now)
			} else {
				w.res.Score.AttestAccepted++
			}
		}})

	// Benign life of the home: the plug heartbeats to its cloud all run.
	framer := devices.NewFramer(devIP, devMAC, gwMAC)
	w.benignFramer = framer
	var heartbeat func(now time.Time)
	heartbeat = func(now time.Time) {
		if now.After(runEnd) {
			return
		}
		nw.SendFrame(framer.Frame(flows.Record{
			Time: now, Size: 128, Proto: "tcp", Dir: flows.DirOutbound,
			RemoteIP: cloudIP, LocalPort: 40000, RemotePort: 443,
			Category: flows.CategoryControl,
		}))
		clock.AfterFunc(10*time.Second, heartbeat)
	}
	clock.AfterFunc(10*time.Second, heartbeat)

	// The dormant flow: periodic during bootstrap, silent afterwards — a
	// learned rule with no living owner.
	if spec.DormantFlow {
		var dormant func(now time.Time)
		dormant = func(now time.Time) {
			if now.After(bootEnd) {
				return
			}
			nw.SendFrame(framer.Frame(flows.Record{
				Time: now, Size: 96, Proto: "udp", Dir: flows.DirOutbound,
				RemoteIP: cloudIP, LocalPort: 41000, RemotePort: 8443,
				Category: flows.CategoryControl,
			}))
			clock.AfterFunc(15*time.Second, dormant)
		}
		clock.AfterFunc(15*time.Second, dormant)
	}

	// The camera heartbeats until it churns away 30 s into enforcement,
	// leaving its identity (IP, learned rules) for the attacker to claim.
	if spec.SecondDevice {
		camFramer := devices.NewFramer(camIP, camMAC, gwMAC)
		churn := bootEnd.Add(30 * time.Second)
		var camBeat func(now time.Time)
		camBeat = func(now time.Time) {
			if now.After(churn) {
				return
			}
			nw.SendFrame(camFramer.Frame(flows.Record{
				Time: now, Size: 180, Proto: "tcp", Dir: flows.DirOutbound,
				RemoteIP: cloudIP, LocalPort: 41000, RemotePort: 8883,
				Category: flows.CategoryControl,
			}))
			clock.AfterFunc(12*time.Second, camBeat)
		}
		clock.AfterFunc(12*time.Second, camBeat)
	}

	// The victim's benign manual interactions: touch, attestation 400 ms
	// later from the phone, command burst from the real cloud ~1 s after the
	// touch (the Table 7 ordering). Windows are pre-screened human.
	var benignB packet.Builder
	if !spec.NoBenignManual {
		for _, off := range []time.Duration{15 * time.Second, 75 * time.Second} {
			win := w.HumanWindow()
			touch := s.Bootstrap + off
			clock.AfterFunc(touch+400*time.Millisecond, func(time.Time) {
				payload, err := app.Attest("com.plug.app", win)
				if err != nil {
					return
				}
				w.BenignAttests = append(w.BenignAttests, payload)
				nw.SendFrame(benignB.UDPPacket(packet.UDPSpec{
					SrcMAC: phoneMAC, DstMAC: attMAC, SrcIP: phoneIP, DstIP: attIP,
					SrcPort: 7843, DstPort: 7844, Payload: payload,
				}))
			})
			for j, lag := range []time.Duration{time.Second, 1100 * time.Millisecond, 1200 * time.Millisecond} {
				size := 235
				if j > 0 {
					size = 134
				}
				sz := size
				clock.AfterFunc(touch+lag, func(time.Time) { w.SendBenignCommand(sz) })
			}
		}
	}

	// The attack schedules itself.
	s.Attack.Arm(w)

	// Housekeeping: flush the gateway batch and settle pending decisions
	// once per virtual second, as cmd/fiat-proxy would.
	var tick func(now time.Time)
	tick = func(now time.Time) {
		gw.Flush()
		proxy.SweepPending()
		if now.Before(runEnd) {
			clock.AfterFunc(time.Second, tick)
		}
	}
	clock.AfterFunc(time.Second, tick)

	clock.Run(runEnd)
	clock.AdvanceTo(runEnd)
	gw.Flush()

	res.Log = proxy.Log()
	res.Stats = proxy.StatsSnapshot()
	res.Metrics = reg.Snapshot()
	for _, de := range w.deviceList {
		locked := proxy.Locked(de.name)
		res.Locked[de.name] = locked
		if locked {
			res.Score.Lockouts++
		}
	}
	res.Score.AttestStale = res.Stats.AttestationsStale
	res.Score.AttestReplayed = res.Stats.AttestationsReplayed
	if w.detected && w.attackStarted {
		res.Score.TimeToDetectMs = int64(w.detectAt.Sub(w.attackStart) / time.Millisecond)
	}
	return res, nil
}
