package devices

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/packet"
	"fiat/internal/simclock"
)

var (
	devIP  = netip.MustParseAddr("192.168.1.50")
	devMAC = packet.MAC{2, 0, 0, 0, 0, 0x50}
	gwMAC  = packet.MAC{2, 0, 0, 0, 0, 0x01}
)

func TestFrameRoundTrip(t *testing.T) {
	fr := NewFramer(devIP, devMAC, gwMAC)
	p := ByName("HomeMini")
	recs := p.Generate(simclock.NewRNG(1), TraceOptions{
		Start: simclock.Epoch, Duration: time.Hour, ManualPerDay: 24, Routines: true,
	})
	for i, rec := range recs[:min(300, len(recs))] {
		frame := fr.Frame(rec)
		decoded := packet.Decode(frame, packet.CaptureInfo{
			Timestamp: rec.Time, Length: len(frame), CaptureLength: len(frame),
		})
		if decoded.ErrorLayer() != nil {
			t.Fatalf("record %d: decode error %v", i, decoded.ErrorLayer())
		}
		got, ok := RecordFromFrame(decoded, devIP, func(a netip.Addr) string { return rec.RemoteDomain })
		if !ok {
			t.Fatalf("record %d: RecordFromFrame rejected", i)
		}
		if got.Dir != rec.Dir || got.Proto != rec.Proto {
			t.Fatalf("record %d: dir/proto mismatch: %+v vs %+v", i, got, rec)
		}
		if got.RemoteIP != rec.RemoteIP {
			t.Fatalf("record %d: remote IP %v vs %v", i, got.RemoteIP, rec.RemoteIP)
		}
		if got.LocalPort != rec.LocalPort || got.RemotePort != rec.RemotePort {
			t.Fatalf("record %d: ports %d/%d vs %d/%d", i, got.LocalPort, got.RemotePort, rec.LocalPort, rec.RemotePort)
		}
		// TLS survives when the trace had it and the size allowed a record.
		if rec.TLSVersion != 0 && rec.Size >= 14+20+20+5 && got.TLSVersion != rec.TLSVersion {
			t.Fatalf("record %d: TLS %x vs %x", i, got.TLSVersion, rec.TLSVersion)
		}
	}
}

func TestFrameSizeHonored(t *testing.T) {
	fr := NewFramer(devIP, devMAC, gwMAC)
	rec := flows.Record{
		Time: simclock.Epoch, Size: 235, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: netip.MustParseAddr("52.0.0.9"), LocalPort: 9999, RemotePort: 443,
		TLSVersion: packet.VersionTLS12,
	}
	frame := fr.Frame(rec)
	if len(frame) != 235 {
		t.Fatalf("frame length = %d, want 235", len(frame))
	}
}

func TestRecordFromFrameIgnoresThirdParties(t *testing.T) {
	var b packet.Builder
	frame := b.TCPPacket(packet.TCPSpec{
		SrcMAC: gwMAC, DstMAC: devMAC,
		SrcIP: netip.MustParseAddr("10.9.9.9"), DstIP: netip.MustParseAddr("10.8.8.8"),
		SrcPort: 1, DstPort: 2,
	})
	p := packet.Decode(frame, packet.CaptureInfo{})
	if _, ok := RecordFromFrame(p, devIP, nil); ok {
		t.Fatal("frame not involving the device accepted")
	}
}

func TestRecordFromFrameSkipsLaterFragments(t *testing.T) {
	fr := NewFramer(devIP, devMAC, gwMAC)
	frame := fr.Frame(flows.Record{
		Time: simclock.Epoch, Size: 120, Proto: "tcp", Dir: flows.DirOutbound,
		RemoteIP: netip.MustParseAddr("52.0.0.9"), LocalPort: 40000, RemotePort: 443,
	})
	binary.BigEndian.PutUint16(frame[20:22], 1480/8) // fragment offset 1480 bytes
	if rec, ok := RecordFromFrame(packet.Decode(frame, packet.CaptureInfo{}), devIP, nil); ok {
		t.Fatalf("non-first fragment became a record: %+v", rec)
	}
}

// admitFrame is the per-frame path of a gateway: decode, resolve the frame
// to a protected device by IPv4 address, and build its record. Nothing of
// the Packet outlives the call.
func admitFrame(data []byte, at time.Time, protected map[netip.Addr]bool) (flows.Record, bool) {
	p := packet.Decode(data, packet.CaptureInfo{Timestamp: at, CaptureLength: len(data), Length: len(data)})
	ip := p.IPv4()
	if ip == nil || !protected[ip.SrcIP] && !protected[ip.DstIP] {
		return flows.Record{}, false
	}
	return RecordFromFrame(p, devIP, nil)
}

// TestDecodeRecordZeroAllocs pins the per-frame path at zero heap
// allocations. It rests on packet.Decode inlining into its caller, so that
// the Packet stays in the caller's frame.
func TestDecodeRecordZeroAllocs(t *testing.T) {
	fr := NewFramer(devIP, devMAC, gwMAC)
	remote := netip.MustParseAddr("52.0.0.9")
	rec := func(proto string, tls uint16) flows.Record {
		return flows.Record{
			Time: simclock.Epoch, Size: 120, Proto: proto, Dir: flows.DirOutbound,
			RemoteIP: remote, LocalPort: 40000, RemotePort: 443, TLSVersion: tls,
		}
	}
	var b packet.Builder
	frames := map[string][]byte{
		"tcp":     fr.Frame(rec("tcp", 0)),
		"tcp-tls": fr.Frame(rec("tcp", packet.VersionTLS12)),
		"udp":     fr.Frame(rec("udp", 0)),
		"arp":     b.ARPPacket(packet.ARPRequest, devMAC, devIP, packet.MAC{}, remote),
	}
	protected := map[netip.Addr]bool{devIP: true}
	for name, frame := range frames {
		got, ok := admitFrame(frame, simclock.Epoch, protected)
		if ok != (name != "arp") || (name == "tcp-tls") != (got.TLSVersion != 0) {
			t.Fatalf("%s: admitted = %v, record %+v", name, ok, got)
		}
		if n := testing.AllocsPerRun(100, func() { admitFrame(frame, simclock.Epoch, protected) }); n != 0 {
			t.Errorf("%s: %v allocs per frame, want 0", name, n)
		}
	}
}
