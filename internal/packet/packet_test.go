package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

var (
	macA = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	macB = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
	ipA  = netip.MustParseAddr("192.168.1.10")
	ipB  = netip.MustParseAddr("52.84.12.9")
)

func buildTCP(t *testing.T, payload []byte, flags uint8) *Packet {
	t.Helper()
	var b Builder
	raw := b.TCPPacket(TCPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 40000, DstPort: 443, Seq: 100, Ack: 7, Flags: flags,
		Payload: payload,
	})
	return Decode(raw, CaptureInfo{Timestamp: time.Unix(1, 0), CaptureLength: len(raw), Length: len(raw)})
}

func TestTCPRoundTrip(t *testing.T) {
	p := buildTCP(t, []byte("hello"), TCPFlagPSH|TCPFlagACK)
	if p.ErrorLayer() != nil {
		t.Fatalf("decode error: %v", p.ErrorLayer())
	}
	ip := p.IPv4()
	if ip == nil || ip.SrcIP != ipA || ip.DstIP != ipB {
		t.Fatalf("bad IPs: %+v", ip)
	}
	tcp := p.TCP()
	if tcp == nil {
		t.Fatal("no TCP layer")
	}
	if tcp.SrcPort != 40000 || tcp.DstPort != 443 {
		t.Fatalf("ports = %d->%d", tcp.SrcPort, tcp.DstPort)
	}
	if tcp.Flags != TCPFlagPSH|TCPFlagACK {
		t.Fatalf("flags = %x", tcp.Flags)
	}
	if string(tcp.LayerPayload()) != "hello" {
		t.Fatalf("payload = %q", tcp.LayerPayload())
	}
	if !VerifyIPv4Checksum(p) {
		t.Fatal("IPv4 checksum invalid")
	}
	if !VerifyTransportChecksum(p) {
		t.Fatal("TCP checksum invalid")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	var b Builder
	raw := b.UDPPacket(UDPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 5353, DstPort: 53, Payload: []byte("query"),
	})
	p := Decode(raw, CaptureInfo{Length: len(raw), CaptureLength: len(raw)})
	if p.ErrorLayer() != nil {
		t.Fatalf("decode error: %v", p.ErrorLayer())
	}
	u := p.UDP()
	if u == nil || u.SrcPort != 5353 || u.DstPort != 53 {
		t.Fatalf("bad UDP: %+v", u)
	}
	if string(u.LayerPayload()) != "query" {
		t.Fatalf("payload = %q", u.LayerPayload())
	}
	if !VerifyTransportChecksum(p) {
		t.Fatal("UDP checksum invalid")
	}
	if p.TransportProto() != "udp" {
		t.Fatalf("TransportProto = %q", p.TransportProto())
	}
}

func TestARPRoundTrip(t *testing.T) {
	var b Builder
	raw := b.ARPPacket(ARPReply, macA, ipA, macB, ipB)
	p := Decode(raw, CaptureInfo{})
	a := p.ARP()
	if a == nil {
		t.Fatal("no ARP layer")
	}
	if a.Operation != ARPReply || a.SenderMAC != macA || a.SenderIP != ipA ||
		a.TargetMAC != macB || a.TargetIP != ipB {
		t.Fatalf("bad ARP: %+v", a)
	}
}

func TestARPRequestBroadcast(t *testing.T) {
	var b Builder
	raw := b.ARPPacket(ARPRequest, macA, ipA, MAC{}, ipB)
	p := Decode(raw, CaptureInfo{})
	eth := p.Ethernet()
	if eth == nil || eth.DstMAC != BroadcastMAC {
		t.Fatalf("ARP request not broadcast: %+v", eth)
	}
}

func TestTLSRecordDetection(t *testing.T) {
	rec := TLSAppData(VersionTLS12, 90)
	p := buildTCP(t, rec, TCPFlagACK)
	tls := p.TLS()
	if tls == nil {
		t.Fatal("TLS record not detected")
	}
	if tls.ContentType != TLSApplicationData || tls.Version != VersionTLS12 || tls.Length != 90 {
		t.Fatalf("bad TLS: %+v", tls)
	}
	if len(tls.LayerPayload()) != 90 {
		t.Fatalf("TLS body = %d bytes", len(tls.LayerPayload()))
	}
}

func TestTLSHandshakeRecord(t *testing.T) {
	rec := TLSHandshakeRecord(VersionTLS13, 48)
	p := buildTCP(t, rec, TCPFlagACK)
	tls := p.TLS()
	if tls == nil || tls.ContentType != TLSHandshake {
		t.Fatalf("handshake not detected: %+v", tls)
	}
}

// TestTLSAppDataBytes pins TLSAppData's record, header and body, against a
// byte-at-a-time fill of the 16-byte body pattern for every body length
// from 0 to 1,500.
func TestTLSAppDataBytes(t *testing.T) {
	for n := 0; n <= 1500; n++ {
		want := []byte{TLSApplicationData, 0, 0, 0, 0}
		binary.BigEndian.PutUint16(want[1:3], VersionTLS12)
		binary.BigEndian.PutUint16(want[3:5], uint16(n))
		for i := 0; i < n; i++ {
			want = append(want, byte(0xa0+i%16))
		}
		if got := TLSAppData(VersionTLS12, n); !bytes.Equal(got, want) {
			t.Fatalf("body length %d: record differs from the byte-loop fill", n)
		}
	}
}

func TestNonTLSPayloadStaysOpaque(t *testing.T) {
	p := buildTCP(t, []byte("GET / HTTP/1.1\r\n"), TCPFlagACK)
	if p.TLS() != nil {
		t.Fatal("plain HTTP misdetected as TLS")
	}
	if string(p.Payload()) != "GET / HTTP/1.1\r\n" {
		t.Fatalf("payload = %q", p.Payload())
	}
}

func TestNonFirstFragmentStaysOpaque(t *testing.T) {
	p := buildTCP(t, []byte("hello"), TCPFlagACK)
	binary.BigEndian.PutUint16(p.Data[20:22], 1480/8) // offset 1480 bytes
	frag := Decode(p.Data, CaptureInfo{})
	ip := frag.IPv4()
	if ip == nil || ip.FragOffset != 1480/8 {
		t.Fatalf("IPv4 = %+v", ip)
	}
	if frag.TCP() != nil || frag.UDP() != nil || frag.TLS() != nil || frag.TransportProto() != "" {
		t.Fatalf("later fragment decoded as transport: %v", frag)
	}
	if len(frag.Payload()) != len(ip.LayerPayload()) || frag.ErrorLayer() != nil {
		t.Fatalf("payload = %d bytes, error %v", len(frag.Payload()), frag.ErrorLayer())
	}
	// The first fragment (more-fragments set, offset 0) keeps its header.
	binary.BigEndian.PutUint16(p.Data[20:22], 0x2000)
	if first := Decode(p.Data, CaptureInfo{}); first.TCP() == nil || first.TCP().DstPort != 443 {
		t.Fatalf("first fragment lost its TCP header: %v", first)
	}
}

func TestTruncatedFrames(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),
		make([]byte, 13),
	}
	for _, c := range cases {
		p := Decode(c, CaptureInfo{})
		if p.ErrorLayer() == nil {
			t.Fatalf("len %d: expected decode error", len(c))
		}
	}
}

func TestTruncatedIPv4(t *testing.T) {
	var b Builder
	raw := b.TCPPacket(TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2})
	p := Decode(raw[:20], CaptureInfo{}) // Ethernet ok, IPv4 truncated
	if p.ErrorLayer() == nil {
		t.Fatal("expected error for truncated IPv4")
	}
	if p.Ethernet() == nil {
		t.Fatal("outer Ethernet layer should survive")
	}
}

func TestFlagString(t *testing.T) {
	p := buildTCP(t, nil, TCPFlagSYN|TCPFlagACK)
	if got := p.TCP().FlagString(); got != "SYN|ACK" {
		t.Fatalf("FlagString = %q", got)
	}
	p = buildTCP(t, nil, 0)
	if got := p.TCP().FlagString(); got != "none" {
		t.Fatalf("FlagString = %q", got)
	}
}

func TestEndpointAccessors(t *testing.T) {
	e := IPv4Endpoint(ipA)
	if e.EndpointType() != EndpointIPv4 || e.Addr() != ipA {
		t.Fatalf("bad endpoint: %v", e)
	}
	pe := TCPPortEndpoint(443)
	if pe.Port() != 443 {
		t.Fatalf("Port = %d", pe.Port())
	}
	if pe.Addr().IsValid() {
		t.Fatal("port endpoint produced an Addr")
	}
	if e.String() != "192.168.1.10" {
		t.Fatalf("String = %q", e.String())
	}
}

func TestFlowReverseInvolution(t *testing.T) {
	f := func(a, b [4]byte) bool {
		fl := NewFlow(IPv4Endpoint(netip.AddrFrom4(a)), IPv4Endpoint(netip.AddrFrom4(b)))
		return fl.Reverse().Reverse() == fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowFastHashSymmetric(t *testing.T) {
	f := func(a, b [4]byte, sp, dp uint16) bool {
		fl := NewFlow(IPv4Endpoint(netip.AddrFrom4(a)), IPv4Endpoint(netip.AddrFrom4(b)))
		tf := NewFlow(TCPPortEndpoint(sp), TCPPortEndpoint(dp))
		return fl.FastHash() == fl.Reverse().FastHash() && tf.FastHash() == tf.Reverse().FastHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowHashDistinguishesFlows(t *testing.T) {
	f1 := NewFlow(IPv4Endpoint(ipA), IPv4Endpoint(ipB))
	f2 := NewFlow(IPv4Endpoint(ipA), IPv4Endpoint(netip.MustParseAddr("52.84.12.10")))
	if f1.FastHash() == f2.FastHash() {
		t.Fatal("distinct flows hashed equal (suspicious for FNV-based hash)")
	}
}

func TestMismatchedEndpointFamilies(t *testing.T) {
	fl := NewFlow(IPv4Endpoint(ipA), TCPPortEndpoint(80))
	if fl != (Flow{}) {
		t.Fatal("mismatched families should produce the zero Flow")
	}
}

func TestParseMAC(t *testing.T) {
	m, err := ParseMAC("02:00:00:00:00:01")
	if err != nil || m != macA {
		t.Fatalf("ParseMAC = %v, %v", m, err)
	}
	if _, err := ParseMAC("zz:00"); err == nil {
		t.Fatal("expected parse failure")
	}
	if m.String() != "02:00:00:00:00:01" {
		t.Fatalf("String = %q", m.String())
	}
}

func TestPacketString(t *testing.T) {
	p := buildTCP(t, []byte("x"), TCPFlagACK)
	want := "IPv4 192.168.1.10:40000 -> 52.84.12.9:443 tcp 55B"
	if got := p.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestChecksumTamperDetected(t *testing.T) {
	var b Builder
	raw := b.TCPPacket(TCPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1000, DstPort: 2000, Payload: []byte("payload-bytes"),
	})
	raw[len(raw)-1] ^= 0xff // flip a payload byte
	p := Decode(raw, CaptureInfo{})
	if VerifyTransportChecksum(p) {
		t.Fatal("tampered payload passed checksum")
	}
}

func TestBuilderIPIDIncrements(t *testing.T) {
	var b Builder
	p1 := Decode(b.TCPPacket(TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2}), CaptureInfo{})
	p2 := Decode(b.TCPPacket(TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2}), CaptureInfo{})
	if p1.IPv4().ID+1 != p2.IPv4().ID {
		t.Fatalf("IP IDs = %d, %d; want consecutive", p1.IPv4().ID, p2.IPv4().ID)
	}
}

func TestSerializedTCPDecodesForAnyPayload(t *testing.T) {
	var b Builder
	f := func(payload []byte, sp, dp uint16, flags uint8) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		raw := b.TCPPacket(TCPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: sp, DstPort: dp, Flags: flags, Payload: payload,
		})
		p := Decode(raw, CaptureInfo{Length: len(raw)})
		tcp := p.TCP()
		if tcp == nil || tcp.SrcPort != sp || tcp.DstPort != dp || tcp.Flags != flags {
			return false
		}
		return string(tcp.LayerPayload()) == string(payload) && VerifyIPv4Checksum(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(200)
		data := make([]byte, n)
		rng.Read(data)
		p := Decode(data, CaptureInfo{Length: n, CaptureLength: n})
		// Accessors must be safe regardless of decode outcome.
		_, _, _ = p.Ethernet(), p.ARP(), p.IPv4()
		_, _, _ = p.TCP(), p.UDP(), p.TLS()
		_ = p.Payload()
		_ = p.String()
		_ = p.NetworkFlow()
		_ = p.TransportFlow()
		_ = p.TransportProto()
	}
}

func TestDecodeNeverPanicsOnTruncatedValidFrames(t *testing.T) {
	var b Builder
	full := b.TCPPacket(TCPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1, DstPort: 2, Payload: TLSAppData(VersionTLS12, 64),
	})
	for cut := 0; cut <= len(full); cut++ {
		p := Decode(full[:cut], CaptureInfo{})
		_, _, _ = p.Ethernet(), p.ARP(), p.IPv4()
		_, _, _ = p.TCP(), p.UDP(), p.TLS()
		_ = p.Payload()
		_ = p.String()
	}
}
