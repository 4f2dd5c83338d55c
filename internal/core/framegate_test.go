package core

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"fiat/internal/devices"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/netsim"
	"fiat/internal/packet"
	"fiat/internal/simclock"
)

// TestFrameGateFeedsGatewayBatches wires the sharded engine into the
// simulated home router: the gateway buffers same-instant frames from two
// devices and hands them to core.FrameGate (as its BatchInspector), which
// resolves each frame to its device and decides the whole batch with
// ProcessBatch. Bootstrap traffic and post-bootstrap rule hits pass; an
// unattested manual command frame is dropped at the gateway.
func TestFrameGateFeedsGatewayBatches(t *testing.T) {
	clock := simclock.NewVirtual()
	nw := netsim.New(clock, simclock.NewRNG(1))
	// Deterministic arrival instants so same-tick frames batch together.
	nw.SetProfile(netsim.LocLAN, netsim.LocLAN, netsim.PathProfile{OneWay: time.Millisecond})
	nw.SetProfile(netsim.LocLAN, netsim.LocCloudUS, netsim.PathProfile{OneWay: 10 * time.Millisecond})

	var (
		gwMAC    = packet.MAC{2, 0, 0, 0, 0, 0x01}
		plugMAC  = packet.MAC{2, 0, 0, 0, 0, 0x50}
		camMAC   = packet.MAC{2, 0, 0, 0, 0, 0x51}
		cloudMAC = packet.MAC{2, 0, 0, 0, 1, 0x01}
		gwIP     = netip.MustParseAddr("192.168.1.1")
		plugIP   = netip.MustParseAddr("192.168.1.50")
		camIP    = netip.MustParseAddr("192.168.1.51")
		cloudIP  = netip.MustParseAddr("52.1.1.1")
	)
	gw := netsim.NewGateway(nw, "router", gwMAC, gwIP)
	gw.ARP.Learn(plugIP, plugMAC)
	gw.ARP.Learn(camIP, camMAC)
	nw.Attach(&netsim.Node{Name: "plug", MAC: plugMAC, IP: plugIP, Loc: netsim.LocLAN})
	nw.Attach(&netsim.Node{Name: "cam", MAC: camMAC, IP: camIP, Loc: netsim.LocLAN})
	cloudGot := 0
	nw.Attach(&netsim.Node{Name: "cloud", MAC: cloudMAC, IP: cloudIP, Loc: netsim.LocCloudUS,
		Recv: func(*netsim.Node, []byte, time.Time) { cloudGot++ }})

	ks, err := keystore.New(rand.New(rand.NewSource(400)))
	if err != nil {
		t.Fatal(err)
	}
	validator, _, err := sharedValidator()
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewProxy(clock, ks, validator, Config{Bootstrap: 5 * time.Minute, Shards: 4})
	byIP := map[netip.Addr]string{plugIP: "plug", camIP: "cam"}
	for name, size := range map[string]int{"plug": 235, "cam": 600} {
		if err := proxy.AddDevice(DeviceConfig{
			Name: name, Classifier: RuleClassifier{NotificationSize: size}, GraceN: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	gate := &FrameGate{
		Proxy: proxy,
		Resolve: func(frame []byte, at time.Time) (string, flows.Record, string, bool) {
			p := packet.Decode(frame, packet.CaptureInfo{Timestamp: at, Length: len(frame), CaptureLength: len(frame)})
			ip := p.IPv4()
			if ip == nil {
				return "", flows.Record{}, "", false
			}
			for devIP, name := range byIP {
				if ip.SrcIP == devIP || ip.DstIP == devIP {
					rec, ok := devices.RecordFromFrame(p, devIP, nil)
					return name, rec, "", ok
				}
			}
			return "", flows.Record{}, "", false
		},
	}
	gw.SetInspector(gate, 64)

	plugFramer := devices.NewFramer(plugIP, plugMAC, gwMAC)
	camFramer := devices.NewFramer(camIP, camMAC, gwMAC)
	hb := func(f *devices.Framer, size int) []byte {
		return f.Frame(flows.Record{
			Time: clock.Now(), Size: size, Proto: "tcp", Dir: flows.DirOutbound,
			RemoteIP: cloudIP, LocalPort: 40000, RemotePort: 443,
			Category: flows.CategoryControl,
		})
	}

	// Bootstrap: both devices beat each minute; the same-instant pair
	// forms one two-frame batch per tick.
	for i := 0; i < 7; i++ {
		nw.SendFrame(hb(plugFramer, 128))
		nw.SendFrame(hb(camFramer, 130))
		clock.Advance(time.Minute)
	}
	gw.Flush()
	clock.Advance(time.Second)
	if !proxy.Bootstrapped() {
		t.Fatal("proxy not bootstrapped")
	}
	if cloudGot == 0 {
		t.Fatal("no bootstrap frames reached the cloud")
	}
	if gw.BatchStats.Batches == 0 || gw.BatchStats.Frames < 14 {
		t.Fatalf("gateway did not batch: %+v", gw.BatchStats)
	}

	// Post-bootstrap: a same-instant heartbeat pair batches in the
	// gateway; 10 s later (past the event gap, so it opens a fresh
	// event) an unattested manual command for the cam arrives from the
	// WAN. Its arrival flushes the heartbeat batch, and the explicit
	// Flush decides the command itself: manual, no human — dropped.
	before := cloudGot
	nw.SendFrame(hb(plugFramer, 128))
	nw.SendFrame(hb(camFramer, 130))
	clock.Advance(10 * time.Second)
	cmd := camFramer.Frame(flows.Record{
		Time: clock.Now(), Size: 600, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: cloudIP, LocalPort: 40000, RemotePort: 443,
		TCPFlags: 0x18, TLSVersion: 0x0303, Category: flows.CategoryManual,
	})
	// Re-address as the cloud would send it: to the gateway for routing.
	copy(cmd[0:6], gwMAC[:])
	copy(cmd[6:12], cloudMAC[:])
	nw.SendFrame(cmd)
	clock.Advance(20 * time.Millisecond)
	gw.Flush()
	clock.Advance(time.Second)

	if cloudGot != before+2 {
		t.Fatalf("cloud got %d new frames, want 2 (heartbeats pass, command dropped)", cloudGot-before)
	}
	if gw.BatchStats.Dropped != 1 {
		t.Fatalf("gateway dropped %d frames, want 1", gw.BatchStats.Dropped)
	}
	s := proxy.StatsSnapshot()
	if s.RuleHits == 0 || s.Dropped == 0 {
		t.Fatalf("pipeline stats missing rule hits or drops: %+v", s)
	}
}

// TestFrameGateFailsOpenOnUnresolvedFrames: a frame Resolve cannot map is
// not FIAT-protected, so it passes without reaching the proxy.
func TestFrameGateFailsOpenOnUnresolvedFrames(t *testing.T) {
	r := newRig(t, Config{Shards: 2})
	gate := &FrameGate{
		Proxy: r.proxy,
		Resolve: func(frame []byte, at time.Time) (string, flows.Record, string, bool) {
			if len(frame) == 0 {
				return "", flows.Record{}, "", false
			}
			return "ghost", mkRec(at, len(frame), flows.CategoryAutomated), "", true
		},
	}
	allow := gate.InspectBatch([][]byte{nil, {1, 2, 3}}, r.clock.Now())
	if len(allow) != 2 || !allow[0] || !allow[1] {
		t.Fatalf("InspectBatch = %v, want both frames allowed", allow)
	}
	if n := r.proxy.StatsSnapshot().Packets; n != 1 {
		t.Fatalf("proxy saw %d packets, want only the resolved frame", n)
	}
}
